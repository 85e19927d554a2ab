#include "twice.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace rowhammer::mitigation
{

TWiCe::TWiCe(double hc_first, const dram::TimingSpec &timing, bool ideal)
    : tRh_(hc_first / 4.0), ideal_(ideal)
{
    if (hc_first <= 0.0)
        util::fatal("TWiCe: HCfirst must be positive");
    threshold_ = static_cast<std::uint32_t>(
        std::min(std::ceil(tRh_), 4294967295.0));

    const double refreshes_per_window =
        static_cast<double>(timing.refreshesPerWindow());
    // Pruning threshold: entries hammered slower than tRH per refresh
    // window can never reach the threshold before their victim row's
    // regular refresh; prune anything below this per-interval rate.
    pruneRatePerInterval_ = tRh_ / refreshes_per_window;

    // Design constraint (Section 6.1): with tRH below the number of
    // refresh intervals per window the pruning threshold drops under one
    // activation per interval, requiring floating-point pruning math and
    // an unbounded table.
    feasible_ = ideal_ || tRh_ >= refreshes_per_window;
}

void
TWiCe::onActivate(int flat_bank, int row, dram::Cycle now,
                  std::vector<VictimRef> &out)
{
    (void)TWiCe::onActivateRun(flat_bank, row, 1, now, out);
}

std::int64_t
TWiCe::onActivateRun(int flat_bank, int row, std::int64_t n,
                     dram::Cycle now, std::vector<VictimRef> &out)
{
    (void)now;
    const std::size_t size = table_.size();
    const auto [lo, lo_new] = table_.try_emplace(key(flat_bank, row - 1));
    const auto [hi, hi_new] = table_.try_emplace(key(flat_bank, row + 1));
    const std::int64_t k = std::min(
        {n, static_cast<std::int64_t>(threshold_) - lo->second.actCount,
         static_cast<std::int64_t>(threshold_) - hi->second.actCount});
    lo->second.actCount += static_cast<std::uint32_t>(k);
    hi->second.actCount += static_cast<std::uint32_t>(k);
    const bool lo_hit = lo->second.actCount >= threshold_;
    const bool hi_hit = hi->second.actCount >= threshold_;

    // Table occupancy as the k activations would have seen it one at a
    // time: the first inserts row - 1's entry, then row + 1's; an entry
    // reaching tRH on that same first activation is dropped in between.
    const std::size_t lo_size = size + (lo_new ? 1 : 0);
    const std::size_t both_size =
        lo_size + (hi_new ? 1 : 0) - (k == 1 && lo_hit ? 1 : 0);
    peakTableSize_ = std::max({peakTableSize_, lo_size, both_size});

    if (lo_hit) {
        out.push_back(VictimRef{flat_bank, row - 1});
        table_.erase(lo);
    }
    if (hi_hit) {
        out.push_back(VictimRef{flat_bank, row + 1});
        table_.erase(hi);
    }
    return k;
}

void
TWiCe::onRefresh(std::uint64_t ref_index, int rows_per_ref,
                 std::vector<VictimRef> &out)
{
    (void)ref_index;
    (void)rows_per_ref;
    (void)out;
    // Pruning stage, performed under cover of the refresh command:
    // age every entry and drop those whose hammer rate cannot reach the
    // threshold within the refresh window.
    for (auto it = table_.begin(); it != table_.end();) {
        Entry &entry = it->second;
        ++entry.lifetime;
        const double rate = static_cast<double>(entry.actCount) /
            static_cast<double>(entry.lifetime);
        if (rate < pruneRatePerInterval_)
            it = table_.erase(it);
        else
            ++it;
    }
}

} // namespace rowhammer::mitigation
