#include "session.hh"

#include <algorithm>

#include "util/logging.hh"

namespace rowhammer::attack
{

namespace
{

void
validate(const fault::ChipModel &chip, const AccessPattern &pattern)
{
    std::string why;
    if (!pattern.wellFormed(&why))
        util::fatal("attack session: malformed pattern: " + why);
    if (pattern.bank < 0 || pattern.bank >= chip.geometry().banks)
        util::fatal("attack session: pattern bank out of range");
    for (const AggressorSlot &slot : pattern.slots) {
        if (slot.row >= chip.geometry().rows)
            util::fatal("attack session: aggressor row beyond the array");
    }
}

} // namespace

SessionResult
runPattern(fault::ChipModel &chip, const AccessPattern &pattern,
           mitigation::Mitigation *mechanism, const SessionConfig &config,
           util::Rng &rng)
{
    validate(chip, pattern);
    if (config.actsPerRefInterval < 1)
        util::fatal("attack session: actsPerRefInterval must be positive");

    const fault::DataPattern dp =
        config.dataPattern.value_or(chip.spec().worstPattern);
    const int bank = pattern.bank;
    const int rows = chip.geometry().rows;

    chip.writePattern(dp, pattern.victimRow & 1);
    chip.refreshRow(bank, pattern.victimRow);

    mitigation::NoMitigation unprotected;
    mitigation::Mitigation &mech = mechanism ? *mechanism : unprotected;

    SessionResult result;
    // Victims the mechanism requested; empty between its calls.
    std::vector<mitigation::VictimRef> scratch;
    // A refresh restores charge but does not undo a flip that already
    // happened: harvest a row's observable flips immediately before
    // every restorative row cycle (rows below their flip region read
    // back clean at zero cost, so latching is cheap).
    const auto latch_and_refresh = [&](int row) {
        chip.readRowInto(bank, row, rng, result.flips);
        chip.refreshRow(bank, row);
    };
    const auto apply_victims = [&] {
        for (const mitigation::VictimRef &ref : scratch) {
            if (ref.flatBank != bank || ref.row < 0 || ref.row >= rows)
                continue; // Neighbor of an edge row, or another bank.
            latch_and_refresh(ref.row);
            ++result.mitigationRefreshes;
        }
        scratch.clear();
    };

    const int rows_per_ref =
        config.autoRefreshRotation ? config.rowsPerRef : 0;
    int rotation = 0;
    std::uint64_t ref_index = 0;
    std::int64_t until_ref = config.actsPerRefInterval;

    const auto refresh = [&] {
        ++result.refIntervals;
        if (config.autoRefreshRotation) {
            for (int r = 0; r < config.rowsPerRef; ++r)
                latch_and_refresh((rotation + r) % rows);
            rotation = (rotation + config.rowsPerRef) % rows;
        }
        mech.onRefresh(ref_index, rows_per_ref, scratch);
        apply_victims();
        ++ref_index;
    };

    // Issue `n` consecutive ACTs of `row`: split at REF boundaries, and
    // within an interval let the mechanism consume as much of the run
    // as it can account for before its next victim refresh.
    const auto activate_run = [&](int row, std::int64_t n) {
        while (n > 0) {
            const std::int64_t chunk = std::min(n, until_ref);
            for (std::int64_t left = chunk; left > 0;) {
                const std::int64_t k = mech.onActivateRun(
                    bank, row, left, result.activations, scratch);
                if (k < 1 || k > left)
                    util::panic("attack session: onActivateRun consumed "
                                "outside [1, n]");
                chip.addActivations(bank, row, k);
                result.activations += k;
                left -= k;
                apply_victims();
            }
            n -= chunk;
            until_ref -= chunk;
            if (until_ref == 0) {
                refresh();
                until_ref = config.actsPerRefInterval;
            }
        }
    };

    // Walk the periods run by run, merging a period's last run with the
    // next period's first when they hammer the same row.
    const std::vector<ActivationRun> runs = pattern.periodRuns();
    ActivationRun pending{runs.front().row, 0};
    for (int period = 0; period < pattern.periods; ++period) {
        for (const ActivationRun &run : runs) {
            if (run.row != pending.row) {
                activate_run(pending.row, pending.count);
                pending.row = run.row;
                pending.count = 0;
            }
            pending.count += run.count;
        }
    }
    activate_run(pending.row, pending.count);

    // Read back every row the pattern can have disturbed, in ascending
    // order (aggressor rows self-report no flips and draw no
    // randomness).
    int span_lo = pattern.victimRow;
    int span_hi = pattern.victimRow;
    for (const AggressorSlot &slot : pattern.slots) {
        span_lo = std::min(span_lo, slot.row);
        span_hi = std::max(span_hi, slot.row);
    }
    const auto [lo, hi] = chip.blastReadRange(span_lo, span_hi);
    for (int row = lo; row <= hi; ++row)
        chip.readRowInto(bank, row, rng, result.flips);

    // A cell refreshed past its threshold more than once can latch the
    // same flip repeatedly; report each observed flip once.
    std::sort(result.flips.begin(), result.flips.end());
    result.flips.erase(
        std::unique(result.flips.begin(), result.flips.end()),
        result.flips.end());
    return result;
}

softmc::HammerResult
runOnTester(softmc::ChipTester &tester, const AccessPattern &pattern,
            fault::DataPattern dp, util::Rng &rng)
{
    std::string why;
    if (!pattern.wellFormed(&why))
        util::fatal("attack::runOnTester: malformed pattern: " + why);
    const std::vector<fault::AggressorDose> doses = pattern.doses();
    return tester.runPatternTest(pattern.bank, pattern.victimRow, doses,
                                 dp, rng);
}

} // namespace rowhammer::attack
