#include "workloads.hh"

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>

#include "attack/builder.hh"
#include "attack/fuzzer.hh"
#include "attack/session.hh"
#include "attack/sweep.hh"
#include "charlib/runner.hh"
#include "core/experiment.hh"
#include "ecc/ondie.hh"
#include "fault/population.hh"
#include "mitigation/factory.hh"
#include "mitigation/ideal.hh"
#include "mitigation/para.hh"
#include "mitigation/prohit.hh"
#include "mitigation/trr.hh"
#include "util/rng.hh"
#include "util/run_store.hh"
#include "util/serialize.hh"
#include "workload/synthetic.hh"

namespace fs = std::filesystem;
using namespace rowhammer;

namespace perfbench
{

const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> all = [] {
        std::vector<WorkloadSpec> out;
        WorkloadSpec mid;
        mid.name = "fig10_mid_mpki";
        mid.family = Family::Fig10;
        mid.mixes = {12, 36};
        mid.instructions = 40000;
        out.push_back(mid);

        WorkloadSpec attack;
        attack.name = "attack_fastpath";
        attack.family = Family::Attack;
        attack.generations = 10;
        attack.population = 64;
        attack.gridFuzz = 16;
        attack.gridBudget = 640000;
        out.push_back(attack);

        WorkloadSpec charz;
        charz.name = "characterize_ckpt";
        charz.family = Family::Characterize;
        charz.chipsPerGroup = 48;
        charz.sampleRows = 32;
        out.push_back(charz);
        return out;
    }();
    return all;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const auto &w : workloads()) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

WorkloadSpec
probeSpec(Family family)
{
    WorkloadSpec spec;
    spec.family = family;
    switch (family) {
    case Family::Fig10:
        spec.name = "probe_fig10";
        spec.mixes = {12, 36};
        spec.instructions = 1000;
        break;
    case Family::Attack:
        spec.name = "probe_attack";
        spec.generations = 2;
        spec.population = 16;
        spec.gridFuzz = 2;
        spec.gridBudget = 64000;
        break;
    case Family::Characterize:
        spec.name = "probe_characterize";
        spec.chipsPerGroup = 16;
        spec.sampleRows = 4;
        break;
    }
    return spec;
}

namespace
{

/** Key-safe rendering: whitespace becomes '_'. */
std::string
keyPart(std::string s)
{
    for (char &c : s) {
        if (c == ' ' || c == '\t')
            c = '_';
    }
    return s;
}

/** Workload-seed derivation: one independent stream per input. */
std::uint64_t
derive(std::uint64_t seed, std::uint64_t salt)
{
    return util::mix64(seed * 0x9E3779B97F4A7C15ULL + salt);
}

/** Run `fn`; on an exception report it and return false. */
template <typename Fn>
bool
guarded(const std::string &what, Fn &&fn)
{
    try {
        fn();
        return true;
    } catch (const std::exception &err) {
        std::cerr << "perfbench: " << what << " failed: " << err.what()
                  << "\n";
        return false;
    }
}

// ------------------------------------------------------------ Fig. 10

std::vector<double>
fig10HcFirsts()
{
    return {200000, 69200, 32000, 17500, 10000, 4800,
            2000,   1024,  512,   256,   128,   64};
}

struct GridCell
{
    mitigation::Kind kind;
    double hc;
    int mix;
    std::size_t point;
};

class Fig10Prepared : public Prepared
{
  public:
    Fig10Prepared(const WorkloadSpec &spec, std::uint64_t seed)
        : spec_(spec), hcs_(fig10HcFirsts())
    {
        // The fig10_mitigations defaults (scaled model, Table 6 core
        // count), cut to the workload's mixes and run length.
        config_.system.cores = 8;
        config_.instructionsPerCore = spec.instructions;
        config_.warmupInstructions = spec.instructions / 8;
        config_.mixIndices = spec.mixes;
        config_.mixCount = static_cast<int>(spec.mixes.size());
        config_.system.organization.rows = 512;
        config_.system.llcBytes = 1024 * 1024;
        config_.coldBytesPerApp = 2 * 1024 * 1024;
        config_.seed = seed;
        for (mitigation::Kind kind : mitigation::allKinds()) {
            for (double hc : hcs_) {
                const std::size_t point = points_++;
                if (!mitigation::evaluatedAt(kind, hc,
                                             config_.system.timing))
                    continue;
                for (int mix : spec.mixes)
                    cells_.push_back(GridCell{kind, hc, mix, point});
            }
        }
    }

    BatchTimes run(const BatchContext &ctx, DigestGate &gate) override
    {
        core::ExperimentConfig config = config_;
        config.pool = ctx.pool;
        core::ExperimentRunner runner(config);
        BatchTimes times;
        std::vector<core::SweepPoint> points;
        const bool ok = guarded(spec_.name, [&] {
            if (ctx.tracer)
                points = tracedSweep(runner, ctx, times);
            else
                points = sweep(runner, times);
        });
        if (!ok || points.size() != points_) {
            gate.count(static_cast<long long>(cells_.size()),
                       static_cast<long long>(cells_.size()));
            return times;
        }

        const long long per_point =
            static_cast<long long>(spec_.mixes.size());
        long long failed = 0;
        for (std::size_t i = 0; i < points.size(); ++i) {
            const core::SweepPoint &p = points[i];
            util::ByteWriter w;
            w.i64(static_cast<int>(p.kind));
            w.f64(p.hcFirst);
            w.u8(p.evaluated ? 1 : 0);
            p.normalizedPerformance.serialize(w);
            p.bandwidthOverheadPercent.serialize(w);
            p.droppedWritebacks.serialize(w);
            const std::string key = "point." +
                keyPart(mitigation::toString(p.kind)) + "." +
                std::to_string(static_cast<long long>(p.hcFirst));
            if (!gate.matches(key, hexDigest(w.bytes())) && p.evaluated)
                failed += per_point;
        }
        gate.count(static_cast<long long>(cells_.size()), failed);
        return times;
    }

  private:
    std::vector<core::SweepPoint>
    sweep(core::ExperimentRunner &runner, BatchTimes &times)
    {
        const auto start = Clock::now();
        runner.prepare(spec_.mixes);
        times.phase1 = secondsSince(start);
        const auto cells_start = Clock::now();
        auto points = runner.sweep(hcs_);
        times.phase2 = secondsSince(cells_start);
        return points;
    }

    /**
     * sweep() with a span per grid cell: the same prepare() call, then
     * the grid laid out and aggregated exactly as sweep() does, each
     * cell's runMix() dispatched on the runner's pool.
     */
    std::vector<core::SweepPoint>
    tracedSweep(core::ExperimentRunner &runner, const BatchContext &ctx,
                BatchTimes &times)
    {
        Tracer &tracer = *ctx.tracer;
        ScopedSpan whole(&tracer, "fig10.sweep");
        const auto start = Clock::now();
        {
            ScopedSpan span(&tracer, "core.prepare", whole.id());
            runner.prepare(spec_.mixes);
        }
        times.phase1 = secondsSince(start);

        std::vector<core::SweepPoint> points;
        for (mitigation::Kind kind : mitigation::allKinds()) {
            for (double hc : hcs_) {
                core::SweepPoint p;
                p.kind = kind;
                p.hcFirst = hc;
                p.evaluated = mitigation::evaluatedAt(
                    kind, hc, config_.system.timing);
                points.push_back(std::move(p));
            }
        }
        std::vector<double> seconds(cells_.size());
        const auto cells_start = Clock::now();
        const int cells_span = tracer.begin("core.cells", whole.id());
        const auto outcomes = runner.pool().map(
            cells_.size(), [&](std::size_t i) {
                const GridCell &cell = cells_[i];
                const auto t0 = Clock::now();
                auto outcome = runner.runMix(cell.mix, cell.kind, cell.hc);
                const auto t1 = Clock::now();
                tracer.record("core.run_mix", t0, t1, cells_span);
                seconds[i] = std::chrono::duration<double>(t1 - t0).count();
                return outcome;
            });
        tracer.end(cells_span);
        times.phase2 = secondsSince(cells_start);
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            if (!outcomes[i])
                continue;
            core::SweepPoint &p = points[cells_[i].point];
            p.normalizedPerformance.add(outcomes[i]->normalizedPerformance);
            p.bandwidthOverheadPercent.add(
                outcomes[i]->bandwidthOverheadPercent);
            p.droppedWritebacks.add(outcomes[i]->droppedWritebacks);
        }

        MetricSet &m = *ctx.layers;
        double sum = 0.0;
        for (double s : seconds)
            sum += s;
        m.set("core.prepare_s", times.phase1, "s");
        m.set("phase.sweep_s", times.batch(), "s");
        m.distribution("core.run_mix", seconds, 1.0, "s", 90);
        m.set("core.run_mix.max_s",
              *std::max_element(seconds.begin(), seconds.end()), "s");
        m.set("core.run_mix.sum_s", sum, "s");
        m.set("core.pool.busy_frac",
              sum / (times.phase2 *
                     (runner.pool().threadCount() + 1)),
              "1");
        rerunCells(seconds, m);
        return points;
    }

    /**
     * Host cost per simulated event: the slowest and the median cell of
     * the traced grid, each re-run alone through System::run with the
     * seeds ExperimentRunner::runMix derives.
     */
    void
    rerunCells(const std::vector<double> &seconds, MetricSet &m)
    {
        std::vector<std::size_t> order(seconds.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return seconds[a] > seconds[b];
                         });
        const std::size_t picks[] = {order.front(),
                                     order[order.size() / 2]};
        // Counts summed over both re-runs; rates from summed parts.
        double wall = 0.0, llc_hits = 0.0, llc_accesses = 0.0;
        double busy_weighted = 0.0;
        std::map<std::string, double> count;
        const auto catalogue = workload::mixCatalogue(
            config_.system.cores, config_.coldBytesPerApp,
            config_.appRegionStride);
        for (std::size_t pick : picks) {
            const GridCell &cell = cells_[pick];
            std::cerr << "perfbench: re-running cell "
                      << mitigation::toString(cell.kind) << " hc="
                      << cell.hc << " mix=" << cell.mix << "\n";
            const workload::Mix &mix =
                catalogue[static_cast<std::size_t>(cell.mix)];
            std::vector<std::unique_ptr<mitigation::Mitigation>> mechs;
            std::vector<mitigation::Mitigation *> attached;
            for (int ch = 0; ch < config_.system.organization.channels;
                 ++ch) {
                mechs.push_back(mitigation::makeMitigation(
                    cell.kind, cell.hc, config_.system.timing,
                    config_.system.organization.rows,
                    config_.seed ^ 0x1157ULL ^
                        static_cast<std::uint64_t>(cell.mix) ^
                        (static_cast<std::uint64_t>(ch) << 40)));
                attached.push_back(mechs.back().get());
            }
            core::System system(
                config_.system, mix.apps,
                config_.seed ^ (static_cast<std::uint64_t>(cell.mix) << 16));
            system.setMitigations(attached);
            const auto t0 = Clock::now();
            const core::SystemResult r = system.run(
                config_.instructionsPerCore, config_.warmupInstructions);
            wall += secondsSince(t0);

            for (const auto &core : r.coreStats) {
                count["cpu.retired"] += static_cast<double>(core.retired);
                count["cpu.cycles"] += static_cast<double>(core.cycles);
                count["cpu.ipc_sum"] += core.ipc();
            }
            const auto &llc = r.llcStats;
            const auto &mem = r.memStats;
            llc_hits += static_cast<double>(llc.hits);
            llc_accesses += static_cast<double>(llc.accesses);
            busy_weighted += mem.bandwidthOverheadPercent() *
                static_cast<double>(mem.cycles);
            count["cpu.llc.misses"] += static_cast<double>(llc.misses);
            count["cpu.llc.writebacks"] += static_cast<double>(llc.writebacks);
            count["sim.device_cycles"] += static_cast<double>(mem.cycles);
            count["sim.reads"] += static_cast<double>(mem.readsServed);
            count["sim.writes"] += static_cast<double>(mem.writesServed);
            count["sim.demand_acts"] += static_cast<double>(mem.demandActs);
            count["sim.auto_refreshes"] +=
                static_cast<double>(mem.autoRefreshes);
            count["sim.mitigation_refreshes"] +=
                static_cast<double>(mem.mitigationRefreshes);
            count["sim.read_queue_full"] +=
                static_cast<double>(mem.readQueueFullEvents);
            count["sim.dropped_writebacks"] +=
                static_cast<double>(mem.droppedWritebacks);
        }
        for (const auto &[name, value] : count)
            m.set(name, value, name == "cpu.ipc_sum" ? "1" : "count");
        const double cycles = count["sim.device_cycles"];
        const double served = count["sim.reads"] + count["sim.writes"];
        m.set("core.host_ns_per_device_cycle", 1e9 * wall / cycles, "ns");
        m.set("core.host_ns_per_instruction",
              1e9 * wall / count["cpu.retired"], "ns");
        m.set("cpu.llc.hit_rate", llc_hits / llc_accesses, "1");
        m.set("sim.bandwidth_overhead_pct", busy_weighted / cycles, "%");
        // Refresh closes open rows, so refresh-heavy mechanisms can need
        // more demand ACTs than requests served; the rate floors at 0.
        m.set("sim.row_hit_rate",
              std::max(0.0, 1.0 - count["sim.demand_acts"] / served), "1");
    }

    WorkloadSpec spec_;
    std::vector<double> hcs_;
    core::ExperimentConfig config_;
    std::vector<GridCell> cells_;
    std::size_t points_ = 0;
};

// ------------------------------------------------------------- attack

class AttackPrepared : public Prepared
{
  public:
    AttackPrepared(const WorkloadSpec &spec, std::uint64_t seed)
    {
        campaign_.generations = spec.generations;
        campaign_.population = spec.population;
        campaign_.seed = derive(seed, 1);
        grid_.fuzzCount = spec.gridFuzz;
        grid_.activationBudget = spec.gridBudget;
        grid_.seed = derive(seed, 2);
        // Constructing the fuzzer validates the campaign; the probe
        // chip is the profiling target the campaign anchors on.
        attack::Fuzzer validate(campaign_);
        anchor_ = std::make_unique<fault::ChipModel>(
            campaign_.spec, campaign_.hcFirst, campaign_.seed,
            campaign_.geometry);
        gridCells_ = static_cast<long long>(
            (2 + grid_.nSides.size() + grid_.fuzzCount) *
            (6 + grid_.samplerSizes.size()));
    }

    BatchTimes run(const BatchContext &ctx, DigestGate &gate) override
    {
        attack::FuzzerConfig campaign = campaign_;
        campaign.pool = ctx.pool;
        attack::SweepConfig grid = grid_;
        grid.pool = ctx.pool;
        BatchTimes times;

        attack::CampaignResult result;
        const auto start = Clock::now();
        bool ok;
        {
            ScopedSpan span(ctx.tracer, "attack.campaign");
            ok = guarded("attack campaign", [&] {
                result = attack::Fuzzer(campaign).run();
            });
        }
        times.phase1 = secondsSince(start);
        gate.count(1, ok && gate.matches(
                                "campaign",
                                hexDigest(attack::renderCampaign(result)))
                          ? 0
                          : 1);

        std::vector<attack::SweepCell> cells;
        const auto grid_start = Clock::now();
        {
            ScopedSpan span(ctx.tracer, "attack.grid");
            ok = guarded("attack grid",
                         [&] { cells = attack::runSweep(grid); });
        }
        times.phase2 = secondsSince(grid_start);
        if (!ok || static_cast<long long>(cells.size()) != gridCells_) {
            gate.count(gridCells_, gridCells_);
        } else {
            // One digest per pattern row (cells are pattern-major); a
            // mismatch fails every cell of the row.
            long long failed = 0;
            std::size_t row_start = 0;
            for (std::size_t i = 0; i <= cells.size(); ++i) {
                if (i < cells.size() &&
                    cells[i].pattern == cells[row_start].pattern)
                    continue;
                util::ByteWriter w;
                for (std::size_t j = row_start; j < i; ++j) {
                    const attack::SweepCell &c = cells[j];
                    w.str(c.mechanism);
                    w.i64(c.activations);
                    w.i64(c.flips);
                    w.i64(c.mitigationRefreshes);
                }
                if (!gate.matches("row." + keyPart(cells[row_start].pattern),
                                  hexDigest(w.bytes())))
                    failed += static_cast<long long>(i - row_start);
                row_start = i;
            }
            gate.count(gridCells_, failed);
        }

        if (ctx.tracer && ok) {
            ctx.layers->set("phase.campaign_s", times.phase1, "s");
            ctx.layers->set("phase.grid_s", times.phase2, "s");
            measureSessions(ctx, result);
        }
        return times;
    }

  private:
    /**
     * The fast path layer by layer: runPattern sessions of the
     * campaign's best evolved pattern and its N-sided baselines on the
     * anchor chip, against no mechanism, TRR-4 and the Section 6
     * mechanisms, four session streams each.
     */
    void
    measureSessions(const BatchContext &ctx,
                    const attack::CampaignResult &result)
    {
        const fault::ChipModel &anchor = *anchor_;
        const int rows = campaign_.geometry.rows;
        const int step = anchor.aggressorStep();
        const int victim =
            std::clamp(anchor.weakestRow(), 1 + step, rows - 2 - step);
        const std::int64_t budget = campaign_.activationBudget > 0
            ? campaign_.activationBudget
            : static_cast<std::int64_t>(20.0 * campaign_.hcFirst *
                                        campaign_.maxOrder);
        attack::BuilderConfig builder_config;
        builder_config.rows = rows;
        builder_config.step = step;
        builder_config.activationBudget = budget;
        builder_config.maxOrder =
            std::max(20, *std::max_element(campaign_.baselineNSides.begin(),
                                           campaign_.baselineNSides.end()));
        const attack::PatternBuilder builder(builder_config, campaign_.seed);
        std::vector<attack::AccessPattern> patterns{result.bestPattern};
        for (int n : campaign_.baselineNSides)
            patterns.push_back(builder.nSided(anchor.weakestBank(), victim, n));

        const std::vector<std::string> mech_names{"none", "trr4", "para",
                                                  "prohit", "ideal"};
        const double hc = campaign_.hcFirst;
        const auto make_mech = [&](std::size_t m, std::uint64_t seed)
            -> std::unique_ptr<mitigation::Mitigation> {
            switch (m) {
            case 1: {
                mitigation::TrrSampler::Params trr;
                trr.samplerSize = 4;
                trr.policy = mitigation::TrrSampler::Policy::InOrder;
                trr.refreshSlotsPerRef = 4;
                return std::make_unique<mitigation::TrrSampler>(seed, trr);
            }
            case 2:
                return std::make_unique<mitigation::Para>(
                    hc, dram::ddr4_2400(), seed);
            case 3:
                return std::make_unique<mitigation::ProHit>(seed);
            case 4:
                return std::make_unique<mitigation::IdealRefresh>(hc, rows);
            default:
                return nullptr;
            }
        };

        constexpr std::size_t kStreams = 4;
        const std::size_t jobs =
            patterns.size() * mech_names.size() * kStreams;
        struct SessionStat
        {
            double seconds = 0.0;
            attack::SessionResult result;
        };
        attack::SessionConfig session;
        session.actsPerRefInterval = campaign_.actsPerRefInterval;
        const int sessions_span = ctx.tracer->begin("attack.sessions");
        const auto stats = ctx.pool->map(jobs, [&](std::size_t j) {
            const std::size_t p = j / (mech_names.size() * kStreams);
            const std::size_t m = (j / kStreams) % mech_names.size();
            const std::uint64_t stream = derive(campaign_.seed, 100 + j);
            fault::ChipModel chip(campaign_.spec, campaign_.hcFirst,
                                  campaign_.seed, campaign_.geometry);
            auto mech = make_mech(m, stream);
            util::Rng rng(util::mix64(stream));
            SessionStat out;
            const auto t0 = Clock::now();
            out.result = attack::runPattern(chip, patterns[p], mech.get(),
                                            session, rng);
            const auto t1 = Clock::now();
            ctx.tracer->record("attack.session", t0, t1, sessions_span);
            out.seconds = std::chrono::duration<double>(t1 - t0).count();
            return out;
        });
        ctx.tracer->end(sessions_span);

        MetricSet &m = *ctx.layers;
        std::vector<double> seconds;
        double acts = 0.0, refs = 0.0, flips = 0.0;
        std::vector<double> mech_seconds(mech_names.size());
        std::vector<double> mech_acts(mech_names.size());
        std::vector<double> mech_refreshes(mech_names.size());
        for (std::size_t j = 0; j < jobs; ++j) {
            const std::size_t mi = (j / kStreams) % mech_names.size();
            const SessionStat &s = stats[j];
            seconds.push_back(s.seconds);
            acts += static_cast<double>(s.result.activations);
            refs += static_cast<double>(s.result.refIntervals);
            flips += static_cast<double>(s.result.flips.size());
            mech_seconds[mi] += s.seconds;
            mech_acts[mi] += static_cast<double>(s.result.activations);
            mech_refreshes[mi] +=
                static_cast<double>(s.result.mitigationRefreshes);
        }
        m.distribution("attack.session", seconds, 1e3, "ms", 90);
        m.set("attack.acts", acts, "count");
        m.set("attack.ref_intervals", refs, "count");
        m.set("attack.flips", flips, "count");
        for (std::size_t mi = 0; mi < mech_names.size(); ++mi) {
            m.set("mitigation." + mech_names[mi] + ".ns_per_act",
                  1e9 * mech_seconds[mi] / mech_acts[mi], "ns");
        }
        m.set("mitigation.trr4.refreshes", mech_refreshes[1], "count");
        m.set("mitigation.para.refreshes", mech_refreshes[2], "count");

        // Lowering a pattern to its activation stream, per activation.
        double schedule_acts = 0.0;
        std::size_t checksum = 0;
        const auto t0 = Clock::now();
        for (int rep = 0; rep < 3; ++rep) {
            for (const auto &p : patterns) {
                const std::vector<int> stream = p.schedule();
                schedule_acts += static_cast<double>(stream.size());
                checksum += stream.empty() ? 0 : static_cast<std::size_t>(
                                                     stream.back());
            }
        }
        const double schedule_s = secondsSince(t0);
        if (checksum == 0)
            std::cerr << "perfbench: empty attack schedules\n";
        m.set("attack.schedule.ns_per_act", 1e9 * schedule_s / schedule_acts,
              "ns");
    }

    attack::FuzzerConfig campaign_;
    attack::SweepConfig grid_;
    std::unique_ptr<fault::ChipModel> anchor_;
    long long gridCells_ = 0;
};

// ------------------------------------------------------- characterize

/** Which standard a chip belongs to, for the per-standard sums. */
int
standardOf(const fault::ChipInstance &chip)
{
    switch (chip.spec.typeNode) {
    case fault::TypeNode::DDR3Old:
    case fault::TypeNode::DDR3New:
        return 0;
    case fault::TypeNode::DDR4Old:
    case fault::TypeNode::DDR4New:
        return 1;
    default:
        return 2;
    }
}

const char *const kStandards[] = {"ddr3", "ddr4", "lpddr4"};

using HcResults = std::vector<std::optional<std::int64_t>>;

class CharacterizePrepared : public Prepared
{
  public:
    static constexpr int kSampleSeeds = 3;
    /** Sample seeds measured by the cold checkpointed run. */
    static constexpr int kColdSeeds = 2;

    CharacterizePrepared(const WorkloadSpec &spec, std::uint64_t seed)
    {
        options_.sampleRows = spec.sampleRows;
        const auto groups = fault::allModules();
        for (int s = 0; s < kSampleSeeds; ++s) {
            const std::uint64_t sample_seed = derive(seed, 10 + s);
            for (const auto &g : groups) {
                for (auto &chip :
                     fault::sampleChips(g, sample_seed, spec.chipsPerGroup)) {
                    slice_.push_back(s * 3 + standardOf(chip));
                    chips_.push_back(std::move(chip));
                }
            }
            if (s + 1 == kColdSeeds)
                cold_ = chips_;
        }
    }

    BatchTimes run(const BatchContext &ctx, DigestGate &gate) override
    {
        BatchTimes times;
        const std::size_t cold_count = cold_.size();
        HcResults plain, first, resumed;

        const auto start = Clock::now();
        bool ok = guarded("characterize", [&] {
            plain = ctx.tracer ? tracedCharacterize(ctx)
                               : runner(ctx, nullptr)->measureHcFirst(
                                     chips_, options_);
        });
        times.phase1 = secondsSince(start);

        // The store lives in memory (see MemoryIo); only the traced
        // put replay in measureStore writes to the disk, under dir.
        const std::string dir = ctx.scratchDir + "/store";
        std::error_code ec;
        fs::remove_all(dir, ec);
        MemoryIo disk;
        CountingIo io(disk);
        const auto ckpt_start = Clock::now();
        ok = ok && guarded("checkpoint", [&] {
            {
                ScopedSpan span(ctx.tracer, "charlib.checkpoint_cold");
                first =
                    runner(ctx, &io, dir)->measureHcFirst(cold_, options_);
            }
            const long long cold_bytes = io.bytesWritten();
            const long long cold_fsyncs = io.fsyncs();
            const long long cold_renames = io.renames();
            const double cold_s = secondsSince(ckpt_start);
            io.reset();
            const auto resume_start = Clock::now();
            {
                ScopedSpan span(ctx.tracer, "charlib.checkpoint_resume");
                resumed =
                    runner(ctx, &io, dir)->measureHcFirst(chips_, options_);
            }
            times.phase2 = secondsSince(ckpt_start);
            if (ctx.tracer) {
                MetricSet &m = *ctx.layers;
                m.set("phase.checkpoint_cold_s", cold_s, "s");
                m.set("phase.checkpoint_resume_s", secondsSince(resume_start),
                      "s");
                m.set("util.io.bytes_written.cold",
                      static_cast<double>(cold_bytes), "B");
                m.set("util.io.fsyncs.cold", static_cast<double>(cold_fsyncs),
                      "count");
                m.set("util.io.bytes_written.resume",
                      static_cast<double>(io.bytesWritten()), "B");
                m.set("util.io.fsyncs.resume",
                      static_cast<double>(io.fsyncs()), "count");
                m.set("util.io.renames.cold",
                      static_cast<double>(cold_renames), "count");
                m.set("util.io.renames.resume",
                      static_cast<double>(io.renames()), "count");
                measureStore(ctx, disk, dir);
            }
        });
        fs::remove_all(dir, ec);

        const long long measurements =
            static_cast<long long>(2 * chips_.size() + cold_count);
        if (!ok || plain.size() != chips_.size() ||
            first.size() != cold_count || resumed.size() != chips_.size()) {
            gate.count(measurements, measurements);
            return times;
        }

        // The reference pins the no-store vector per (sample seed,
        // standard) slice; at any seed all three phases must agree chip
        // for chip. A chip failing either check fails in every phase.
        std::vector<bool> slice_ok(kSampleSeeds * 3, true);
        for (int sl = 0; sl < kSampleSeeds * 3; ++sl) {
            util::ByteWriter w;
            for (std::size_t i = 0; i < chips_.size(); ++i) {
                if (slice_[i] != sl)
                    continue;
                w.u8(plain[i] ? 1 : 0);
                w.i64(plain[i].value_or(0));
            }
            slice_ok[static_cast<std::size_t>(sl)] = gate.matches(
                std::string("hcfirst.") + kStandards[sl % 3] + ".s" +
                    std::to_string(sl / 3),
                hexDigest(w.bytes()));
        }
        long long failed = 0;
        for (std::size_t i = 0; i < chips_.size(); ++i) {
            const bool agree = plain[i] == resumed[i] &&
                (i >= cold_count || plain[i] == first[i]);
            if (!agree || !slice_ok[static_cast<std::size_t>(slice_[i])])
                failed += i < cold_count ? 3 : 2;
        }
        gate.count(measurements, failed);
        return times;
    }

  private:
    std::unique_ptr<charlib::PopulationRunner>
    runner(const BatchContext &ctx, util::Io *io,
           const std::string &dir = "") const
    {
        charlib::RunnerOptions options;
        if (dir.empty()) {
            options.pool = ctx.pool;
        } else {
            // A checkpointed phase runs on one thread. Its puts hold the
            // store's lock one at a time, and with the batch pool every
            // put handed that lock to a sleeping thread. The wake-ups
            // moved batch_s by a quarter between runs while CPU time
            // held (DESIGN.md). An armed watchdog keeps the dispatching
            // thread out of the batch (TaskPool::setBatchDeadline), so
            // the pool's single worker runs it alone; the deadline is
            // past the run's own time limit.
            options.threads = 1;
            options.batchDeadlineMs = 170000;
        }
        options.io = io;
        options.checkpointPath = dir;
        return std::make_unique<charlib::PopulationRunner>(options);
    }

    /**
     * measureHcFirst without a store, as PopulationRunner::map over the
     * same chip-salted streams, with spans around each chip's model
     * construction and findHcFirst.
     */
    HcResults
    tracedCharacterize(const BatchContext &ctx)
    {
        Tracer &tracer = *ctx.tracer;
        auto run = runner(ctx, nullptr);
        std::vector<std::uint64_t> salts;
        for (const auto &chip : chips_)
            salts.push_back(chip.seed);
        std::vector<double> make_s(chips_.size());
        std::vector<double> search_s(chips_.size());
        const auto start = Clock::now();
        const int root = tracer.begin("charlib.characterize");
        HcResults out = run->map(
            chips_.size(),
            [&](std::size_t i, util::Rng &rng) {
                const auto t0 = Clock::now();
                fault::ChipModel model = chips_[i].makeModel();
                const auto t1 = Clock::now();
                const auto hc = charlib::findHcFirst(model, options_, rng);
                const auto t2 = Clock::now();
                const int chip_span =
                    tracer.record("charlib.chip", t0, t2, root);
                tracer.record("fault.make_model", t0, t1, chip_span);
                tracer.record("charlib.hcfirst", t1, t2, chip_span);
                make_s[i] = std::chrono::duration<double>(t1 - t0).count();
                search_s[i] = std::chrono::duration<double>(t2 - t1).count();
                return hc;
            },
            &salts);
        tracer.end(root);

        MetricSet &m = *ctx.layers;
        m.set("phase.characterize_s", secondsSince(start), "s");
        double found = 0.0;
        double per_standard[3] = {0.0, 0.0, 0.0};
        for (std::size_t i = 0; i < chips_.size(); ++i) {
            found += out[i] ? 1.0 : 0.0;
            per_standard[standardOf(chips_[i])] += search_s[i];
        }
        m.distribution("charlib.hcfirst", search_s, 1e6, "us", 99);
        m.set("charlib.hcfirst.found", found, "count");
        for (int s = 0; s < 3; ++s) {
            m.set(std::string("charlib.hcfirst.") + kStandards[s] + ".sum_s",
                  per_standard[s], "s");
        }
        m.set("fault.make_model_ms", 1e3 * median(make_s), "ms");
        m.set("ecc.ondie.read_ns", eccReadNs(ctx.seed), "ns");
        return out;
    }

    /**
     * The store itself, after the resume: load it from `disk`, read
     * every record back, and replay the cold records in chip order into
     * a fresh store on the real disk (Io::system(), under `dir`) to time
     * each put with its fsync.
     */
    void
    measureStore(const BatchContext &ctx, MemoryIo &disk,
                 const std::string &dir)
    {
        const auto stores = disk.filesEndingIn(".rst");
        if (stores.size() != 1)
            throw std::runtime_error("expected one checkpoint store, found " +
                                     std::to_string(stores.size()));
        const std::string &path = stores.front();
        const std::uint64_t hash =
            std::stoull(fs::path(path).stem().string(), nullptr, 16);
        MetricSet &m = *ctx.layers;
        m.set("util.store.file_bytes",
              static_cast<double>(disk.fileSize(path)), "B");

        util::RunStore store(path, hash, &disk);
        const auto t0 = Clock::now();
        const std::size_t records = store.load();
        m.set("util.store.load_ms", 1e3 * secondsSince(t0), "ms");
        m.set("util.store.records", static_cast<double>(records), "count");

        std::vector<std::uint64_t> keys;
        for (const auto &chip : chips_)
            keys.push_back(chip.hash());
        std::size_t hits = 0;
        const auto t1 = Clock::now();
        for (std::uint64_t key : keys)
            hits += store.get(key) ? 1 : 0;
        m.set("util.store.get_ns",
              1e9 * secondsSince(t1) / static_cast<double>(keys.size()),
              "ns");
        if (hits != records)
            throw std::runtime_error("store holds records for unknown chips");

        const std::string replay_dir = dir + "/replay";
        util::RunStore replay(util::RunStore::pathInDir(replay_dir, hash),
                              hash);
        std::vector<double> put_s;
        for (const auto &chip : cold_) {
            const std::string *value = store.get(chip.hash());
            if (!value)
                throw std::runtime_error("cold record missing from store");
            const auto p0 = Clock::now();
            replay.put(chip.hash(), *value);
            put_s.push_back(secondsSince(p0));
        }
        m.distribution("util.store.put", put_s, 1e6, "us", 99);
    }

    charlib::HcFirstOptions options_;
    /** Every sample seed's chips, sample seed 0 first. */
    std::vector<fault::ChipInstance> chips_;
    /** The chips of the first kColdSeeds sample seeds (a prefix). */
    std::vector<fault::ChipInstance> cold_;
    /** Per chip: sample seed * 3 + standard. */
    std::vector<int> slice_;
};

} // namespace

double
eccReadNs(std::uint64_t seed)
{
    const ecc::OnDieEcc ecc(128);
    util::Rng rng(derive(seed, 30));
    util::BitVec data(128, 0x5A);
    constexpr int kWords = 256;
    std::vector<std::vector<std::size_t>> flips(kWords);
    for (int i = 0; i < kWords; ++i) {
        const int count = i % 4;
        for (int f = 0; f < count; ++f) {
            flips[static_cast<std::size_t>(i)].push_back(
                static_cast<std::size_t>(rng.uniform() *
                                         static_cast<double>(ecc.codeBits())) %
                ecc.codeBits());
        }
    }
    constexpr int kReads = 400000;
    std::size_t ones = 0;
    const auto t0 = Clock::now();
    for (int r = 0; r < kReads; ++r) {
        ones += ecc.readWithFlips(data, flips[static_cast<std::size_t>(
                                                r % kWords)])
                    .popcount();
    }
    const double s = secondsSince(t0);
    if (ones == 0)
        std::cerr << "perfbench: on-die ECC returned empty words\n";
    return 1e9 * s / kReads;
}

std::uint64_t
inputSeed(std::uint64_t seed, int index)
{
    return index == 0 ? seed
                      : util::mix64(seed ^ (0xD1B54A32D192ED03ULL *
                                            static_cast<std::uint64_t>(index)));
}

std::unique_ptr<Prepared>
setup(const WorkloadSpec &spec, std::uint64_t seed)
{
    switch (spec.family) {
    case Family::Fig10:
        return std::make_unique<Fig10Prepared>(spec, seed);
    case Family::Attack:
        return std::make_unique<AttackPrepared>(spec, seed);
    case Family::Characterize:
        return std::make_unique<CharacterizePrepared>(spec, seed);
    }
    return nullptr;
}

} // namespace perfbench
