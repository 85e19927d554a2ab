/**
 * @file
 * Ideal refresh-based mitigation (Section 6.1): an oracle that tracks
 * every row's aggressor activations exactly and refreshes a victim row
 * only immediately before it would experience its first RowHammer bit
 * flip (i.e., when an adjacent row has been activated HCfirst times
 * since the victim's last refresh). This lower-bounds the overhead of
 * any refresh-based mechanism.
 */

#ifndef ROWHAMMER_MITIGATION_IDEAL_HH
#define ROWHAMMER_MITIGATION_IDEAL_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mitigation/mitigation.hh"

namespace rowhammer::mitigation
{

/** Oracle per-victim activation counter. */
class IdealRefresh : public Mitigation
{
  public:
    /**
     * @param hc_first Hammer count at which a victim would flip.
     * @param rows_per_bank Rows per bank (for the auto-refresh rotation
     *     bookkeeping that clears counters of refreshed rows).
     */
    IdealRefresh(double hc_first, int rows_per_bank);

    std::string name() const override { return "Ideal"; }

    void onActivate(int flat_bank, int row, dram::Cycle now,
                    std::vector<VictimRef> &out) override;

    /** Closed form: consumes the run up to the first activation that
     *  brings either in-range neighbor to its refresh threshold. */
    [[nodiscard]] std::int64_t onActivateRun(
        int flat_bank, int row, std::int64_t n, dram::Cycle now,
        std::vector<VictimRef> &out) override;

    void onRefresh(std::uint64_t ref_index, int rows_per_ref,
                   std::vector<VictimRef> &out) override;

    /** Victim counters currently live (tests). */
    std::size_t trackedRows() const { return counts_.size(); }

  private:
    using Key = std::uint64_t;

    static Key key(int flat_bank, int row)
    {
        return (static_cast<std::uint64_t>(
                    static_cast<std::uint32_t>(flat_bank))
                << 32) |
            static_cast<std::uint32_t>(row);
    }

    int rowsPerBank_;
    /** Smallest count that triggers a refresh: ceil(hcFirst - 1). */
    std::uint32_t threshold_ = 0;
    int rotation_ = 0; ///< Next row index the refresh rotation covers.
    /** Ordered so the onRefresh() rotation sweep is deterministic
     *  (invariant-linter rule: no unordered containers here). */
    std::map<Key, std::uint32_t> counts_;
};

} // namespace rowhammer::mitigation

#endif // ROWHAMMER_MITIGATION_IDEAL_HH
