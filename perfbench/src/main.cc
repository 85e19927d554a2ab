/**
 * @file
 * perfbench: run one benchmark workload and print its metrics.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --reference FILE --scratch DIR [--trace-out FILE]
 *
 * Untraced (--trace 0): set up the workload's inputs, run batches as a
 * closed loop on a TaskPool of nproc - 1 workers until S seconds have
 * passed, then set up again several times (setup_s is the median), and
 * report the median batch wall and CPU times. Traced (--trace 1): one untraced and
 * one traced batch of the workload, then reduced-size traced batches of
 * the other families, and the per-layer metrics; spans go to FILE.
 *
 * The last line of stdout is the result JSON. Digests of the checked
 * outputs are printed before it.
 */

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "util/logging.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

const Clock::time_point kProcessStart = Clock::now();

/** Setups per run; setup_s is their median. */
constexpr int kSetups = 51;

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string reference;
    std::string scratch;
    std::string traceOut;
    /** Run at least this many batches (reference regeneration). */
    int minBatches = 1;
    /** Print every digest line, not only one per batch. */
    bool digests = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::stoull(value);
        else if (flag == "--seconds")
            args.seconds = std::stod(value);
        else if (flag == "--trace")
            args.trace = std::stoi(value) != 0;
        else if (flag == "--reference")
            args.reference = value;
        else if (flag == "--scratch")
            args.scratch = value;
        else if (flag == "--trace-out")
            args.traceOut = value;
        else if (flag == "--min-batches")
            args.minBatches = std::stoi(value);
        else if (flag == "--digests")
            args.digests = std::stoi(value) != 0;
        else
            throw std::invalid_argument("unknown flag " + flag);
    }
    if (!findWorkload(args.workload))
        throw std::invalid_argument("unknown workload '" + args.workload +
                                    "'");
    if (args.reference.empty() || args.scratch.empty())
        throw std::invalid_argument("--reference and --scratch are required");
    return args;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    }
    return "unknown";
}

/** CPU seconds used by every thread of the process so far. */
double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
        1e-9 * static_cast<double>(ts.tv_nsec);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** One batch's times, operation tally and digest lines. */
struct BatchRecord
{
    BatchTimes times;
    double cpuSeconds = 0.0;
    long long attempted = 0;
    long long failed = 0;
    std::vector<std::string> lines;
};

/**
 * Run one batch on input set `index`. A batch whose digests differ from
 * `expect` (an earlier batch of the same inputs) fails every operation
 * it attempted.
 */
BatchRecord
runBatch(Prepared &prepared, const BatchContext &ctx,
         const std::string &workload, int index,
         const std::vector<std::string> *expect)
{
    DigestGate gate(ctx.reference, workload,
                    "s" + std::to_string(index) + ".");
    BatchRecord rec;
    const double cpu0 = processCpuSeconds();
    rec.times = prepared.run(ctx, gate);
    rec.cpuSeconds = processCpuSeconds() - cpu0;
    rec.attempted = gate.attempted();
    rec.failed = gate.failed();
    rec.lines = gate.lines();
    if (expect && *expect != rec.lines) {
        std::cerr << "perfbench: " << workload << " input set " << index
                  << ": outputs differ from an earlier batch\n";
        rec.failed = rec.attempted;
    }
    return rec;
}

/** "digest-all <workload> s<k> <hex>" per input set run, and with
 *  `all` every digest line. */
void
printDigests(const std::vector<std::vector<std::string>> &by_input,
             const std::string &workload, bool all)
{
    for (std::size_t k = 0; k < by_input.size(); ++k) {
        if (by_input[k].empty())
            continue;
        std::string joined;
        for (const auto &line : by_input[k]) {
            if (all)
                std::cout << "digest " << line << "\n";
            joined += line + "\n";
        }
        std::cout << "digest-all " << workload << " s" << k << " "
                  << hexDigest(joined) << "\n";
    }
}

int
run(const Args &args)
{
    const WorkloadSpec &spec = *findWorkload(args.workload);
    const int nproc =
        std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
    const int workers = nproc - 1;
    std::cout << "host: nproc=" << nproc << " cpu=\"" << cpuModel()
              << "\" workers=" << workers << "\n";

    std::string reference_text;
    {
        std::ifstream in(args.reference);
        if (!in)
            throw std::runtime_error("cannot read " + args.reference);
        std::stringstream ss;
        ss << in.rdbuf();
        reference_text = ss.str();
    }
    const DigestTable reference = DigestTable::parse(reference_text);
    std::filesystem::create_directories(args.scratch);

    // Set-up: the pool, then every input set of the run, timed from
    // process start. More set-ups follow the batches (see below).
    std::vector<double> setup_s;
    auto pool = std::make_unique<rowhammer::util::TaskPool>(workers);
    std::vector<std::unique_ptr<Prepared>> inputs;
    const auto buildInputs = [&] {
        inputs.clear();
        for (int index = 0; index < kInputRotation; ++index)
            inputs.push_back(setup(spec, inputSeed(args.seed, index)));
    };
    buildInputs();
    setup_s.push_back(secondsSince(kProcessStart));

    BatchContext ctx;
    ctx.pool = pool.get();
    ctx.scratchDir = args.scratch;
    ctx.seed = args.seed;
    ctx.reference = args.seed == kDefaultSeed ? &reference : nullptr;

    MetricSet metrics;
    long long attempted = 0;
    long long failed = 0;
    std::vector<std::vector<std::string>> lines(kInputRotation);
    const auto tally = [&](const BatchRecord &rec) {
        attempted += rec.attempted;
        failed += rec.failed;
    };

    if (!args.trace) {
        std::vector<double> batch, cpu;
        const auto start = Clock::now();
        do {
            const int index = static_cast<int>(batch.size()) % kInputRotation;
            auto &seen = lines[static_cast<std::size_t>(index)];
            BatchRecord rec = runBatch(*inputs[static_cast<std::size_t>(index)],
                                       ctx, spec.name,
                                       index, seen.empty() ? nullptr : &seen);
            if (seen.empty())
                seen = rec.lines;
            tally(rec);
            batch.push_back(rec.times.batch());
            cpu.push_back(rec.cpuSeconds);
        } while (secondsSince(start) < args.seconds ||
                 static_cast<int>(batch.size()) < args.minBatches);
        std::cout << "batches:";
        for (double b : batch)
            std::cout << " " << b;
        std::cout << "\n";
        // The repeated set-ups visit every vCPU in turn: on the 4-vCPU VM
        // this was measured on, one vCPU built inputs a third faster than
        // the others, so a median over set-ups pinned wherever the
        // scheduler put the main thread moved by half between runs.
        cpu_set_t original;
        CPU_ZERO(&original);
        const bool pinned =
            sched_getaffinity(0, sizeof original, &original) == 0;
        for (int k = 1; k < kSetups; ++k) {
            if (pinned) {
                cpu_set_t one;
                CPU_ZERO(&one);
                CPU_SET(k % nproc, &one);
                if (sched_setaffinity(0, sizeof one, &one) != 0)
                    std::cerr << "perfbench: cannot pin set-up to cpu "
                              << k % nproc << "\n";
            }
            const auto t0 = Clock::now();
            buildInputs();
            setup_s.push_back(secondsSince(t0));
        }
        if (pinned && sched_setaffinity(0, sizeof original, &original) != 0)
            std::cerr << "perfbench: cannot restore the cpu mask\n";
        metrics.set("setup_s", median(setup_s), "s");
        metrics.set("batch_s", median(batch), "s");
        metrics.set("batch_cpu_s", median(cpu), "s");
        metrics.set("peak_rss_mb", peakRssMb(), "MB");
    } else {
        Tracer tracer;
        BatchRecord plain = runBatch(*inputs[0], ctx, spec.name, 0, nullptr);
        lines[0] = plain.lines;
        tally(plain);

        BatchContext traced = ctx;
        traced.tracer = &tracer;
        traced.layers = &metrics;
        BatchRecord rec =
            runBatch(*inputs[0], traced, spec.name, 0, &lines[0]);
        tally(rec);
        metrics.set("trace.overhead_pct",
                    100.0 * (rec.times.batch() / plain.times.batch() - 1.0),
                    "%");

        // Layers this workload does not reach: the other families at
        // probe size, traced the same way (no reference applies).
        for (Family family :
             {Family::Fig10, Family::Attack, Family::Characterize}) {
            if (family == spec.family)
                continue;
            const WorkloadSpec probe = probeSpec(family);
            auto probe_inputs = setup(probe, args.seed);
            BatchContext probe_ctx = traced;
            probe_ctx.reference = nullptr;
            tally(runBatch(*probe_inputs, probe_ctx, probe.name, 0, nullptr));
        }
        if (!args.traceOut.empty()) {
            std::ofstream out(args.traceOut);
            tracer.writeJsonl(out);
        }
    }

    std::error_code ec;
    std::filesystem::remove_all(args.scratch, ec);
    printDigests(lines, spec.name, args.digests);
    std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed
              << ", \"metrics\": " << metrics.json() << "}" << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        rowhammer::util::setVerbose(false);
        return run(parseArgs(argc, argv));
    } catch (const std::exception &err) {
        std::cerr << "perfbench: " << err.what() << "\n";
        return 2;
    }
}
