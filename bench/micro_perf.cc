/**
 * @file
 * Google-benchmark microbenchmarks of the simulation substrates: DRAM
 * command issue, controller ticks, fault-model hammering, the attack
 * fast path, ECC decode throughput, and checkpoint-store puts. These
 * bound the wall-clock cost of the experiment harness itself.
 */

#include <benchmark/benchmark.h>

#include <stdlib.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "attack/fuzzer.hh"
#include "attack/session.hh"
#include "charlib/hcfirst.hh"
#include "core/system.hh"
#include "dram/address_functions.hh"
#include "dram/device.hh"
#include "ecc/ondie.hh"
#include "fault/chip_model.hh"
#include "mitigation/factory.hh"
#include "mitigation/trr.hh"
#include "sim/controller.hh"
#include "util/io.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/run_store.hh"
#include "util/serialize.hh"
#include "workload/synthetic.hh"

using namespace rowhammer;

namespace
{

void
BM_DeviceHammerPair(benchmark::State &state)
{
    dram::Device dev(dram::table6Organization(), dram::ddr4_2400());
    dram::Address a{.rank = 0, .bankGroup = 0, .bank = 0, .row = 100,
                    .column = 0};
    dram::Address b = a;
    b.row = 102;
    dram::Cycle now = 0;
    for (auto _ : state) {
        for (const auto &addr : {a, b}) {
            now = dev.earliest(dram::Command::ACT, addr, now);
            dev.issue(dram::Command::ACT, addr, now);
            now = dev.earliest(dram::Command::PRE, addr, now);
            dev.issue(dram::Command::PRE, addr, now);
        }
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_DeviceHammerPair);

void
BM_ControllerTick(benchmark::State &state)
{
    sim::Controller ctrl(dram::table6Organization(), dram::ddr4_2400());
    std::uint64_t addr = 0;
    for (auto _ : state) {
        if (ctrl.readQueueSpace() > 0) {
            sim::Request r;
            r.addr = addr;
            addr += 8192 * 16; // New row each time.
            r.type = sim::Request::Type::Read;
            // Guarded by readQueueSpace() above; cannot be refused.
            (void)ctrl.enqueue(std::move(r));
        }
        ctrl.tick();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ControllerTick);

void
BM_ControllerRowHit(benchmark::State &state)
{
    // Row-buffer-hit stream: consecutive cache lines of one row, the
    // path the FR-FCFS first pass serves without any precharge work.
    sim::Controller ctrl(dram::table6Organization(), dram::ddr4_2400());
    std::uint64_t line = 0;
    for (auto _ : state) {
        if (ctrl.readQueueSpace() > 0) {
            sim::Request r;
            r.addr = (line++ % 128) * 64; // Stay inside one row.
            r.type = sim::Request::Type::Read;
            // Guarded by readQueueSpace() above; cannot be refused.
            (void)ctrl.enqueue(std::move(r));
        }
        ctrl.tick();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ControllerRowHit);

void
BM_ControllerDeepQueue(benchmark::State &state)
{
    // A full 64-entry read queue spread over all 16 banks, four rows
    // per bank, refilled every cycle: each step's FR-FCFS scan sees the
    // whole queue and every bank, unlike the single-bank ticks above.
    const dram::Organization org = dram::table6Organization();
    sim::Controller ctrl(org, dram::ddr4_2400());
    util::Rng rng(1);
    for (auto _ : state) {
        while (ctrl.readQueueSpace() > 0) {
            dram::Address a = org.bankAddress(static_cast<int>(
                rng.uniformInt(0, static_cast<std::uint64_t>(
                                      org.totalBanks() - 1))));
            a.row = static_cast<int>(rng.uniformInt(0, 3));
            a.column = static_cast<int>(rng.uniformInt(
                0, static_cast<std::uint64_t>(org.columns - 1)));
            sim::Request r;
            r.addr = ctrl.mapper().encode(a);
            r.type = sim::Request::Type::Read;
            // Guarded by readQueueSpace() above; cannot be refused.
            (void)ctrl.enqueue(std::move(r));
        }
        ctrl.tick();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ControllerDeepQueue);

void
BM_ExperimentStep(benchmark::State &state)
{
    // One multicore experiment step (device cycle + CPU cycles) with
    // PARA attached: the unit of work behind every Figure 10 cell.
    core::SystemConfig config;
    config.cores = 4;
    config.organization.rows = 512;
    config.llcBytes = 1024 * 1024;
    const auto mixes =
        workload::mixCatalogue(config.cores, 2 * 1024 * 1024);
    core::System system(config, mixes[0].apps, 1);
    auto para = mitigation::makeMitigation(
        mitigation::Kind::PARA, 4800.0, config.timing,
        config.organization.rows, 7);
    system.setMitigation(para.get());
    for (auto _ : state)
        system.step();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExperimentStep);

void
BM_SystemRun(benchmark::State &state)
{
    // A whole system run. Arg 0 = 4 cores on 4 channel-xor channels
    // under the reference lockstep engine, 1 = the same under serial
    // epochs (the product engine); their results are bit-identical, so
    // only wall-clock should move. Arg 2 = the stall-heavy arm: 8 cores
    // on one channel running catalogue mix 36 (270 summed MPKI) under
    // serial epochs, so windows fill on pending reads and the CPU side
    // mostly waits on the controller.
    const bool stall_heavy = state.range(0) == 2;
    core::SystemConfig config;
    config.cores = stall_heavy ? 8 : 4;
    config.organization.rows = 512;
    config.organization.channels = stall_heavy ? 1 : 4;
    config.llcBytes = 1024 * 1024;
    if (!stall_heavy) {
        config.addressFunctions = dram::AddressFunctions::resolve(
            "channel-xor", config.organization);
    }
    config.lockstep = state.range(0) == 0;
    const auto mixes =
        workload::mixCatalogue(config.cores, 2 * 1024 * 1024);
    const workload::Mix &mix = stall_heavy ? mixes[36] : mixes[0];
    for (auto _ : state) {
        // Fresh System per iteration: run() is run-to-completion.
        core::System system(config, mix.apps, 1);
        std::vector<std::unique_ptr<mitigation::Mitigation>> paras;
        std::vector<mitigation::Mitigation *> attached;
        for (int ch = 0; ch < config.organization.channels; ++ch) {
            paras.push_back(mitigation::makeMitigation(
                mitigation::Kind::PARA, 4800.0, config.timing,
                config.organization.rows,
                7 + static_cast<std::uint64_t>(ch)));
            attached.push_back(paras.back().get());
        }
        system.setMitigations(attached);
        benchmark::DoNotOptimize(system.run(20000));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SystemRun)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

void
BM_ChipModelHammer(benchmark::State &state)
{
    fault::ChipSpec spec = fault::configFor(fault::TypeNode::DDR4New,
                                            fault::Manufacturer::A);
    fault::ChipModel chip(spec, 10000, 1);
    util::Rng rng(1);
    int row = 64;
    for (auto _ : state) {
        benchmark::DoNotOptimize(chip.hammerDoubleSided(
            0, row, 100000, spec.worstPattern, rng));
        row = 64 + (row + 7) % 8192;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChipModelHammer);

// One fuzzer-drawn (REF-synchronized) pattern replayed through
// attack::runPattern at the campaign's default budget (20 * HCfirst *
// maxOrder ACTs): arg 0 = no mitigation, arg 1 = a 4-slot in-order TRR
// sampler. Reports the time per activation.
void
BM_HammerSessionPeriod(benchmark::State &state)
{
    const attack::FuzzerConfig config;
    const std::int64_t budget = static_cast<std::int64_t>(
        20.0 * config.hcFirst * config.maxOrder);
    fault::ChipModel chip(config.spec, config.hcFirst, config.seed,
                          config.geometry);
    const attack::FuzzingParameterSet params(config, chip.aggressorStep(),
                                             budget);
    const attack::AccessPattern pattern =
        params.sample(chip.weakestBank(), chip.weakestRow(), 1);
    attack::SessionConfig session;
    session.actsPerRefInterval = config.actsPerRefInterval;
    const mitigation::TrrSampler::Params trr{.samplerSize = 4,
                                             .refreshSlotsPerRef = 4};
    util::Rng rng(1);
    std::int64_t acts = 0;
    for (auto _ : state) {
        mitigation::TrrSampler sampler(1, trr);
        const attack::SessionResult result = attack::runPattern(
            chip, pattern, state.range(0) == 1 ? &sampler : nullptr,
            session, rng);
        acts += result.activations;
        benchmark::DoNotOptimize(result.flips.data());
    }
    state.SetItemsProcessed(acts);
    state.counters["time_per_act"] = benchmark::Counter(
        static_cast<double>(acts),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_HammerSessionPeriod)->Arg(0)->Arg(1)->Unit(
    benchmark::kMillisecond);

void
BM_OnDieEccDecode(benchmark::State &state)
{
    ecc::OnDieEcc ecc(128);
    const util::BitVec data(128, 0x5A);
    const std::vector<std::size_t> flips{17, 63};
    for (auto _ : state)
        benchmark::DoNotOptimize(ecc.readWithFlips(data, flips));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OnDieEccDecode);

void
BM_HcFirstSearch(benchmark::State &state)
{
    fault::ChipSpec spec = fault::configFor(fault::TypeNode::DDR4New,
                                            fault::Manufacturer::A);
    fault::ChipModel chip(spec, 10000, 2);
    util::Rng rng(2);
    charlib::HcFirstOptions options;
    options.sampleRows = 8;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            charlib::findHcFirst(chip, options, rng));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HcFirstSearch);

// One RunStore::put into a store already holding N records (the arg),
// on the real filesystem under a temp dir: the put's encoding plus
// what it writes and fsyncs. The N records are written up front as
// one file image (header, then per record u32 length, u32 CRC-32 and
// u64 key + value) and loaded, so filling costs O(N) whatever put()
// does; one untimed put then takes the store's first-write cost. A
// fixed 100 timed puts keep the store within 10% of N.
void
BM_RunStorePut(benchmark::State &state)
{
    const std::uint64_t hash = 1;
    const auto records = static_cast<std::uint64_t>(state.range(0));
    const std::string value(32, 'v');
    char templ[] = "/tmp/rh_bm_run_store_XXXXXX";
    const std::string dir = ::mkdtemp(templ);
    const std::string path = util::RunStore::pathInDir(dir, hash);

    util::ByteWriter header;
    header.u32(util::RunStore::kFormatVersion);
    header.u64(hash);
    std::string image = "RHRS" + header.bytes();
    for (std::uint64_t key = 0; key < records; ++key) {
        util::ByteWriter payload;
        payload.u64(key);
        const std::string framed = payload.bytes() + value;
        util::ByteWriter frame;
        frame.u32(static_cast<std::uint32_t>(framed.size()));
        frame.u32(util::crc32(framed));
        image += frame.bytes() + framed;
    }
    if (!util::atomicWriteFile(util::Io::system(), path, image))
        state.SkipWithError("cannot write the pre-filled store");

    {
        util::RunStore store(path, hash);
        if (store.load() != records)
            state.SkipWithError("pre-filled store did not load");
        std::uint64_t key = records;
        store.put(key++, value);
        for (auto _ : state)
            store.put(key++, value);
        if (!store.persistent())
            state.SkipWithError("store stopped persisting");
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RunStorePut)->Arg(1000)->Arg(10000)->Iterations(100)->Unit(
    benchmark::kMicrosecond);

} // namespace

int
main(int argc, char **argv)
{
    rowhammer::util::setVerbose(false);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
