/**
 * @file
 * The benchmark's workloads. Each workload belongs to one family — the
 * Fig. 10 system path, the attack fast path, or the checkpointed
 * population characterization — and fixes that family's input size.
 * A batch runs one family end to end, from inputs derived only from the
 * workload seed, and checks its outputs through a DigestGate.
 *
 * Untraced batches give the end-to-end numbers. A traced batch runs the
 * same work with spans around the benchmark's own calls into src/ and
 * then measures the per-layer quantities (see DESIGN.md).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "metrics.hh"
#include "util/taskpool.hh"

namespace perfbench
{

/** The seed whose outputs the reference digests pin. */
constexpr std::uint64_t kDefaultSeed = 1;

/**
 * Batches of a run rotate through this many input sets, so a run's
 * median averages over inputs as well as over repetitions. Batch k and
 * batch k + kInputRotation run identical inputs.
 */
constexpr int kInputRotation = 8;

/** Seed of input set `index` of a run at `seed` (index 0: `seed`). */
std::uint64_t inputSeed(std::uint64_t seed, int index);

enum class Family
{
    Fig10,
    Attack,
    Characterize,
};

/** Input size of one workload (only its family's fields apply). */
struct WorkloadSpec
{
    std::string name;
    Family family = Family::Fig10;
    /** Fig10: catalogue mixes and instructions per core. */
    std::vector<int> mixes;
    std::int64_t instructions = 0;
    /** Attack: campaign generations x population, then a runSweep grid
     *  of gridFuzz fuzzed patterns at gridBudget activations. */
    int generations = 0;
    int population = 0;
    int gridFuzz = 0;
    std::int64_t gridBudget = 0;
    /** Characterize: chips sampled per module group per sample seed,
     *  and victim rows per HCfirst search. */
    int chipsPerGroup = 0;
    int sampleRows = 0;
};

/** The named workloads, in BENCHMARK.json order. */
const std::vector<WorkloadSpec> &workloads();

/** The workload called `name`, or nullptr. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Reduced-size run of a family, used by traced runs to measure the
 *  layers the workload itself does not reach. */
WorkloadSpec probeSpec(Family family);

/** What a batch shares with the rest of the process. */
struct BatchContext
{
    rowhammer::util::TaskPool *pool = nullptr;
    /** Directory for checkpoint stores (emptied by each batch). */
    std::string scratchDir;
    std::uint64_t seed = kDefaultSeed;
    /** Set only for the full-size workload at the default seed. */
    const DigestTable *reference = nullptr;
    /** Non-null in a traced batch. */
    Tracer *tracer = nullptr;
    /** Per-layer metrics a traced batch adds. */
    MetricSet *layers = nullptr;
};

/** Wall time of one batch, split into the workload's two phases (the
 *  traced run reports them as phase.* metrics). */
struct BatchTimes
{
    double phase1 = 0.0;
    double phase2 = 0.0;
    double batch() const { return phase1 + phase2; }
};

/**
 * The per-process inputs of a workload, built by setup(). Repeated
 * setups build identical inputs.
 */
class Prepared
{
  public:
    virtual ~Prepared() = default;
    virtual BatchTimes run(const BatchContext &ctx, DigestGate &gate) = 0;
};

/** Build the inputs of `spec` at `seed` (the set-up the timed batches
 *  depend on). */
std::unique_ptr<Prepared> setup(const WorkloadSpec &spec,
                                std::uint64_t seed);

/** On-die ECC read cost, ns per readWithFlips of a 128-bit word with
 *  0-3 flipped stored bits (inputs derived from `seed`). */
double eccReadNs(std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
