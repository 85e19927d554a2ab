/**
 * @file
 * TWiCe (Lee et al., ISCA 2019): per-victim activation counting with a
 * pruned table. Each entry tracks a victim row's activation count (how
 * many times its aggressors were activated) and a lifetime counter;
 * entries whose hammer *rate* is too low to ever reach the threshold are
 * pruned at refresh time, keeping the table small.
 *
 * The mechanism refreshes a victim when its count crosses
 * tRH = HCfirst / 4. Section 6.1 of the paper explains TWiCe cannot be
 * implemented for tRH below the number of refresh intervals per window
 * (~8k, i.e. HCfirst < 32k) without unbounded tables or floating-point
 * pruning thresholds; TWiCe-ideal assumes those problems away and is
 * modeled by lifting the feasibility restriction.
 */

#ifndef ROWHAMMER_MITIGATION_TWICE_HH
#define ROWHAMMER_MITIGATION_TWICE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dram/timing.hh"
#include "mitigation/mitigation.hh"

namespace rowhammer::mitigation
{

/** TWiCe activation-counter table. */
class TWiCe : public Mitigation
{
  public:
    /**
     * @param hc_first Chip vulnerability (tRH = hc_first / 4).
     * @param timing Supplies refresh-window bookkeeping for pruning.
     * @param ideal TWiCe-ideal: assume the table-size and pruning-
     *     latency problems are solved for tRH < refreshes-per-window.
     */
    TWiCe(double hc_first, const dram::TimingSpec &timing,
          bool ideal = false);

    std::string name() const override
    {
        return ideal_ ? "TWiCe-ideal" : "TWiCe";
    }

    void onActivate(int flat_bank, int row, dram::Cycle now,
                    std::vector<VictimRef> &out) override;

    /** Closed form: consumes the run up to the first activation that
     *  brings either neighbor's entry to tRH. */
    [[nodiscard]] std::int64_t onActivateRun(
        int flat_bank, int row, std::int64_t n, dram::Cycle now,
        std::vector<VictimRef> &out) override;

    void onRefresh(std::uint64_t ref_index, int rows_per_ref,
                   std::vector<VictimRef> &out) override;

    bool feasible() const override { return feasible_; }

    /** Activation threshold that triggers a victim refresh. */
    double rowHammerThreshold() const { return tRh_; }

    /** Live table entries (tests / the paper's table-size discussion). */
    std::size_t tableSize() const { return table_.size(); }

    /** Peak table occupancy seen so far. */
    std::size_t peakTableSize() const { return peakTableSize_; }

  private:
    struct Entry
    {
        std::uint32_t actCount = 0;
        std::uint32_t lifetime = 1; ///< In refresh intervals.
    };

    using Key = std::uint64_t;

    static Key key(int flat_bank, int row)
    {
        return (static_cast<std::uint64_t>(
                    static_cast<std::uint32_t>(flat_bank))
                << 32) |
            static_cast<std::uint32_t>(row);
    }

    double tRh_;
    /** Smallest count that triggers a refresh: ceil(tRH). */
    std::uint32_t threshold_ = 0;
    double pruneRatePerInterval_;
    bool ideal_;
    bool feasible_;
    /** Ordered (std::map) so the onRefresh() pruning walk — and any
     *  future order-sensitive emission from it — is deterministic;
     *  the invariant linter forbids unordered containers here. */
    std::map<Key, Entry> table_;
    std::size_t peakTableSize_ = 0;
};

} // namespace rowhammer::mitigation

#endif // ROWHAMMER_MITIGATION_TWICE_HH
