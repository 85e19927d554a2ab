#include "ideal.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/logging.hh"

namespace rowhammer::mitigation
{

IdealRefresh::IdealRefresh(double hc_first, int rows_per_bank)
    : rowsPerBank_(rows_per_bank)
{
    if (hc_first <= 1.0)
        util::fatal("IdealRefresh: HCfirst must exceed one hammer");
    if (rows_per_bank <= 0)
        util::fatal("IdealRefresh: rows_per_bank must be positive");
    // Refresh just before a victim's count reaches HCfirst.
    threshold_ = static_cast<std::uint32_t>(
        std::min(std::ceil(hc_first - 1.0), 4294967295.0));
}

void
IdealRefresh::onActivate(int flat_bank, int row, dram::Cycle now,
                         std::vector<VictimRef> &out)
{
    (void)IdealRefresh::onActivateRun(flat_bank, row, 1, now, out);
}

std::int64_t
IdealRefresh::onActivateRun(int flat_bank, int row, std::int64_t n,
                            dram::Cycle now, std::vector<VictimRef> &out)
{
    (void)now;
    // Edge rows have one in-bank neighbor.
    struct Tracked
    {
        int row;
        std::map<Key, std::uint32_t>::iterator count;
    };
    std::array<Tracked, 2> victims;
    std::size_t tracked = 0;
    std::int64_t k = n;
    for (int victim : {row - 1, row + 1}) {
        if (victim < 0 || victim >= rowsPerBank_)
            continue;
        const auto it = counts_.try_emplace(key(flat_bank, victim)).first;
        k = std::min(k, static_cast<std::int64_t>(threshold_) - it->second);
        victims[tracked++] = Tracked{victim, it};
    }
    for (std::size_t i = 0; i < tracked; ++i) {
        const Tracked &victim = victims[i];
        victim.count->second += static_cast<std::uint32_t>(k);
        if (victim.count->second >= threshold_) {
            out.push_back(VictimRef{flat_bank, victim.row});
            counts_.erase(victim.count);
        }
    }
    return k;
}

void
IdealRefresh::onRefresh(std::uint64_t ref_index, int rows_per_ref,
                        std::vector<VictimRef> &out)
{
    (void)ref_index;
    (void)out;
    // The auto-refresh rotation restores rows_per_ref rows in every
    // bank; their exposure counters restart.
    for (int i = 0; i < rows_per_ref; ++i) {
        const int row = rotation_;
        rotation_ = (rotation_ + 1) % rowsPerBank_;
        for (auto it = counts_.begin(); it != counts_.end();) {
            if (static_cast<int>(it->first & 0xffffffffU) == row)
                it = counts_.erase(it);
            else
                ++it;
        }
    }
}

} // namespace rowhammer::mitigation
