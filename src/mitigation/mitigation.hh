/**
 * @file
 * Common interface for RowHammer mitigation mechanisms (Section 6.1).
 *
 * All six evaluated mechanisms are ACT-stream observers: the memory
 * controller reports every row activation, and the mechanism may request
 * targeted refreshes of victim rows (implemented by the controller as
 * high-priority ACT+PRE row cycles) and/or scale the auto-refresh rate.
 * This matches how the paper's simulated controller hosts them and makes
 * the ideal oracle just another observer.
 */

#ifndef ROWHAMMER_MITIGATION_MITIGATION_HH
#define ROWHAMMER_MITIGATION_MITIGATION_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dram/types.hh"

namespace rowhammer::mitigation
{

/** A victim row the mechanism wants refreshed. */
struct VictimRef
{
    int flatBank = 0;
    int row = 0;
};

/**
 * Abstract RowHammer mitigation mechanism.
 *
 * Implementations must be deterministic given their constructor Rng
 * seed. Every demand/auto ACT (not the ACTs the mechanism itself
 * induced) is observed exactly once, in order: the controller reports
 * each one through onActivate, and the attack fast path reports runs
 * of consecutive same-row ACTs through onActivateRun, which must
 * behave exactly like that many onActivate calls.
 */
class Mitigation
{
  public:
    virtual ~Mitigation() = default;

    /** Mechanism name for reports, e.g. "PARA". */
    virtual std::string name() const = 0;

    /**
     * Observe an activation of (flat_bank, row) at cycle `now`; append
     * any victim rows to refresh to `out`.
     */
    virtual void onActivate(int flat_bank, int row, dram::Cycle now,
                            std::vector<VictimRef> &out) = 0;

    /**
     * Observe the first k of `n` (>= 1) consecutive activations of
     * (flat_bank, row), the first at cycle `now`, and return k in
     * [1, n]. Victims appended to `out` belong to the k-th activation;
     * the caller applies them before reporting the remaining n - k.
     * The observable state and every victim must match k onActivate
     * calls. The default consumes exactly one activation, which keeps
     * randomized mechanisms on their per-ACT draw order; mechanisms
     * with a closed form for a run override it.
     */
    [[nodiscard]] virtual std::int64_t
    onActivateRun(int flat_bank, int row, std::int64_t n, dram::Cycle now,
                  std::vector<VictimRef> &out)
    {
        (void)n;
        onActivate(flat_bank, row, now, out);
        return 1;
    }

    /**
     * Observe an auto-refresh command. `ref_index` counts REFs since
     * start; rows_per_ref rows per bank advance through the refresh
     * rotation per REF. Mechanisms use this for pruning (TWiCe), table
     * service (ProHIT), or counter clearing (Ideal).
     */
    virtual void onRefresh(std::uint64_t ref_index, int rows_per_ref,
                           std::vector<VictimRef> &out)
    {
        (void)ref_index;
        (void)rows_per_ref;
        (void)out;
    }

    /**
     * Auto-refresh rate multiplier (> 1 shortens tREFI). Only the
     * increased-refresh-rate mechanism returns a value above 1.
     */
    virtual double refreshRateMultiplier() const { return 1.0; }

    /**
     * True if the mechanism's design remains implementable at its
     * configured HCfirst (Section 6.1 discusses the scalability limits
     * of the increased refresh rate and TWiCe).
     */
    virtual bool feasible() const { return true; }
};

/** No-op mechanism used for baseline runs. */
class NoMitigation : public Mitigation
{
  public:
    std::string name() const override { return "None"; }

    void
    onActivate(int, int, dram::Cycle, std::vector<VictimRef> &) override
    {
    }

    [[nodiscard]] std::int64_t
    onActivateRun(int, int, std::int64_t n, dram::Cycle,
                  std::vector<VictimRef> &) override
    {
        return n;
    }
};

} // namespace rowhammer::mitigation

#endif // ROWHAMMER_MITIGATION_MITIGATION_HH
