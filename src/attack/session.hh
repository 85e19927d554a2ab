/**
 * @file
 * Fast-path hammer session: drive an AccessPattern against a
 * fault::ChipModel with an optional mitigation mechanism observing the
 * activation stream — the arena where attack patterns and defenses
 * meet without the cycle-accurate controller's cost.
 *
 * The session walks one period of the pattern as runs of consecutive
 * same-row ACTs (AccessPattern::periodRuns), `periods` times, without
 * materializing the per-ACT schedule, so its memory does not grow with
 * the activation budget. Every `actsPerRefInterval` ACTs a REF boundary
 * fires, giving the mechanism its onRefresh hook; runs are split at
 * those boundaries. Within an interval the mechanism sees each run
 * through Mitigation::onActivateRun (as the memory controller or the
 * in-DRAM TRR logic would see its ACTs) and consumes it in as few
 * steps as its victim refreshes allow: counters and samplers with a
 * closed form take a whole run at once, randomized mechanisms one ACT
 * at a time. The chip is dosed once per consumed step, and victim-row
 * refreshes the mechanism requests are applied as restorative row
 * cycles right after the ACT that triggered them, so flips match a
 * per-ACT replay exactly.
 *
 * Refresh-window modeling: the attack is assumed to be synchronized
 * with REF and to fit before the victim's own auto-refresh slot comes
 * around (Blacksmith synchronizes exactly this way; the paper's
 * Algorithm 1 likewise bounds the core loop to one refresh window), so
 * by default no auto-refresh rotation touches the array and mechanisms
 * see rows_per_ref = 0. Enabling `autoRefreshRotation` models the
 * rotation explicitly and consistently on both the chip and the
 * mechanism (rotation starting at row 0, as IdealRefresh assumes).
 */

#ifndef ROWHAMMER_ATTACK_SESSION_HH
#define ROWHAMMER_ATTACK_SESSION_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "attack/pattern.hh"
#include "fault/chip_model.hh"
#include "mitigation/mitigation.hh"
#include "softmc/chip_tester.hh"
#include "util/rng.hh"

namespace rowhammer::attack
{

/** Session knobs; defaults model DDR4 tREFI at attack-loop ACT rates. */
struct SessionConfig
{
    /**
     * ACT slots between REF boundaries (~tREFI / tRC for DDR4-2400 is
     * ~170; the default is a multiple of every N-sided round length so
     * in-order samplers see round-aligned intervals).
     */
    std::int64_t actsPerRefInterval = 240;
    /** Model the auto-refresh rotation (see the file comment). */
    bool autoRefreshRotation = false;
    /** Rows refreshed per REF per bank when the rotation is modeled. */
    int rowsPerRef = 1;
    /** Data pattern; defaults to the chip's worst-case pattern. */
    std::optional<fault::DataPattern> dataPattern;
};

/** Outcome of one pattern-vs-mechanism session. */
struct SessionResult
{
    /**
     * Distinct flips observed over the whole session: a refresh
     * restores charge but does not undo a flip that already happened,
     * so rows are harvested immediately before every restorative row
     * cycle and once more at the end (sorted, deduplicated).
     */
    std::vector<fault::FlipObservation> flips;
    std::int64_t activations = 0;
    std::int64_t refIntervals = 0;
    /** Victim-row refreshes the mechanism issued. */
    std::int64_t mitigationRefreshes = 0;
};

/**
 * Run `pattern` against `chip` with `mechanism` watching (nullptr =
 * unprotected). Reads back every row within the coupling radius of the
 * pattern's span at the end and reports the observed flips.
 * Deterministic given (chip, pattern, mechanism seed, rng state).
 */
SessionResult runPattern(fault::ChipModel &chip,
                         const AccessPattern &pattern,
                         mitigation::Mitigation *mechanism,
                         const SessionConfig &config, util::Rng &rng);

/**
 * Replay a pattern through the command-level softmc::ChipTester
 * instead: the pattern's weighted aggressor set runs under full DRAM
 * timing enforcement (Algorithm 1 generalized; no mitigation — the
 * tester is the characterization platform, which disables refresh).
 */
softmc::HammerResult runOnTester(softmc::ChipTester &tester,
                                 const AccessPattern &pattern,
                                 fault::DataPattern dp, util::Rng &rng);

} // namespace rowhammer::attack

#endif // ROWHAMMER_ATTACK_SESSION_HH
