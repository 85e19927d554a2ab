/**
 * @file
 * Tests for the CPU substrate: LLC cache behaviour and the trace-driven
 * core model.
 */

#include <gtest/gtest.h>

#include "util/logging.hh"

#include <queue>
#include <vector>

#include "cpu/cache.hh"
#include "cpu/core.hh"

namespace
{

using namespace rowhammer::cpu;

TEST(Cache, HitAfterFill)
{
    Cache cache(64 * 1024, 8, 64);
    EXPECT_FALSE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1020, false).hit); // Same line.
    EXPECT_EQ(cache.stats().misses, 1);
    EXPECT_EQ(cache.stats().hits, 2);
}

TEST(Cache, LruEviction)
{
    // 2-way, 2-set tiny cache: lines mapping to set 0 are multiples of
    // 128 bytes.
    Cache cache(256, 2, 64);
    ASSERT_EQ(cache.sets(), 2);
    // Warm-up fills: no dirty victims possible, results audited away.
    (void)cache.access(0, false);   // Set 0, way A.
    (void)cache.access(128, false); // Set 0, way B.
    (void)cache.access(0, false);   // Touch A (B becomes LRU).
    (void)cache.access(256, false); // Evicts B (128, clean).
    EXPECT_TRUE(cache.access(0, false).hit);
    EXPECT_FALSE(cache.access(128, false).hit);
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    Cache cache(256, 2, 64);
    (void)cache.access(0, true);   // Dirty fill; nothing evicted yet.
    (void)cache.access(128, false);
    const auto result = cache.access(256, false); // Evicts line 0.
    // LRU victim is line 0 (dirty): writeback reported with its address.
    ASSERT_TRUE(result.writeback.has_value());
    EXPECT_EQ(*result.writeback, 0u);
    EXPECT_EQ(cache.stats().writebacks, 1);
}

TEST(Cache, CleanEvictionSilent)
{
    Cache cache(256, 2, 64);
    (void)cache.access(0, false);   // Clean fills; no victims.
    (void)cache.access(128, false);
    const auto result = cache.access(256, false);
    EXPECT_FALSE(result.writeback.has_value());
}

TEST(Cache, InvalidConfigRejected)
{
    EXPECT_THROW(Cache(0, 8, 64), rowhammer::util::FatalError);
    EXPECT_THROW(Cache(100, 3, 64), rowhammer::util::FatalError);
}

/** Trace source yielding a fixed pattern. */
class ScriptedTrace : public TraceSource
{
  public:
    explicit ScriptedTrace(TraceEntry entry) : entry_(entry) {}

    TraceEntry next() override { return entry_; }

  private:
    TraceEntry entry_;
};

TEST(Core, PureComputeRunsAtFullWidth)
{
    // Huge bubble counts: the core never touches memory.
    ScriptedTrace trace(TraceEntry{1000000, 0, false});
    Core core(
        trace, [](std::uint64_t, bool, std::function<void()>) {
            ADD_FAILURE() << "memory should not be touched";
            return true;
        });
    for (int i = 0; i < 1000; ++i)
        core.tick();
    EXPECT_NEAR(core.stats().ipc(), 4.0, 0.1);
}

TEST(Core, ImmediateMemoryKeepsIssuing)
{
    ScriptedTrace trace(TraceEntry{9, 64, false});
    // Memory completes instantly.
    Core core(trace,
              [](std::uint64_t, bool, std::function<void()> done) {
                  if (done)
                      done();
                  return true;
              });
    for (int i = 0; i < 1000; ++i)
        core.tick();
    EXPECT_GT(core.stats().ipc(), 3.0);
    EXPECT_GT(core.stats().memReads, 0);
    EXPECT_NEAR(core.stats().apki(), 100.0, 10.0);
}

TEST(Core, StallsWhenMemoryNeverReturns)
{
    ScriptedTrace trace(TraceEntry{0, 64, false});
    int sent = 0;
    Core core(trace,
              [&](std::uint64_t, bool, std::function<void()>) {
                  ++sent;
                  return true; // Accepted but never completed.
              });
    for (int i = 0; i < 1000; ++i)
        core.tick();
    // Window fills with pending reads and the core stops retiring.
    EXPECT_EQ(core.windowOccupancy(), 128u);
    EXPECT_EQ(sent, 128);
    EXPECT_EQ(core.stats().retired, 0);
}

TEST(Core, BackpressureRetriesSend)
{
    ScriptedTrace trace(TraceEntry{0, 64, false});
    int attempts = 0;
    Core core(trace,
              [&](std::uint64_t, bool, std::function<void()> done) {
                  ++attempts;
                  if (attempts <= 3)
                      return false; // Reject the first three tries.
                  if (done)
                      done();
                  return true;
              });
    for (int i = 0; i < 10; ++i)
        core.tick();
    // Rejected sends do not count as issued memory reads.
    EXPECT_GT(core.stats().memReads, 0);
    EXPECT_GE(attempts, 4);
}

TEST(Core, WritesDoNotBlockRetirement)
{
    ScriptedTrace trace(TraceEntry{3, 64, true});
    Core core(trace,
              [](std::uint64_t, bool write, std::function<void()>) {
                  EXPECT_TRUE(write);
                  return true;
              });
    for (int i = 0; i < 500; ++i)
        core.tick();
    EXPECT_GT(core.stats().ipc(), 3.0);
    EXPECT_GT(core.stats().memWrites, 0);
    EXPECT_EQ(core.stats().memReads, 0);
}

TEST(Core, DelayedCompletionBoundsIpc)
{
    // One read per instruction; each read takes 100 cycles via a manual
    // completion queue. IPC is bounded by window / latency.
    ScriptedTrace trace(TraceEntry{0, 64, false});
    std::queue<std::pair<int, std::function<void()>>> pending;
    int now = 0;
    Core core(trace,
              [&](std::uint64_t, bool, std::function<void()> done) {
                  pending.emplace(now + 100, std::move(done));
                  return true;
              });
    for (now = 0; now < 5000; ++now) {
        while (!pending.empty() && pending.front().first <= now) {
            pending.front().second();
            pending.pop();
        }
        core.tick();
    }
    // Steady state: 128-entry window / 100-cycle latency ~ 1.28 IPC.
    EXPECT_NEAR(core.stats().ipc(), 1.28, 0.2);
}

/** Trace of back-to-back reads to fresh lines, counting fetches. */
class CountingReads : public TraceSource
{
  public:
    TraceEntry next() override
    {
        return TraceEntry{0, 64 * fetched++, false};
    }

    std::uint64_t fetched = 0;
};

/** A core whose reads complete only when the test releases them. */
struct HeldReads
{
    HeldReads()
        : core(trace, [this](std::uint64_t addr, bool,
                             std::function<void()> done) {
              sent.push_back(addr);
              held.push_back(std::move(done));
              return true;
          })
    {
    }

    CountingReads trace;
    std::vector<std::uint64_t> sent;
    std::vector<std::function<void()>> held;
    Core core;
};

void
expectSameCore(const HeldReads &a, const HeldReads &b)
{
    EXPECT_EQ(a.core.stats().cycles, b.core.stats().cycles);
    EXPECT_EQ(a.core.stats().retired, b.core.stats().retired);
    EXPECT_EQ(a.core.stats().memReads, b.core.stats().memReads);
    EXPECT_EQ(a.core.stats().memWrites, b.core.stats().memWrites);
    EXPECT_EQ(a.core.windowOccupancy(), b.core.windowOccupancy());
    EXPECT_EQ(a.core.parked(), b.core.parked());
    EXPECT_EQ(a.trace.fetched, b.trace.fetched);
    EXPECT_EQ(a.sent, b.sent);
}

TEST(Core, ParkedExactlyWhenFullWindowWaitsOnHead)
{
    HeldReads h;
    while (h.core.windowOccupancy() < 128) {
        EXPECT_FALSE(h.core.parked()); // Room left in the window.
        h.core.tick();
    }
    EXPECT_TRUE(h.core.parked());
    h.held[5](); // A younger read returning does not unpark the core.
    EXPECT_TRUE(h.core.parked());
    h.held[0](); // The head's data returns: it can retire next tick.
    EXPECT_FALSE(h.core.parked());
    h.core.tick();
    EXPECT_EQ(h.core.stats().retired, 1);
}

TEST(Core, SkipCyclesEqualsStalledTicks)
{
    // The tick that fills the window issues its last read in its last
    // slot, so the first stalled tick also fetches the next entry;
    // skipCycles must do the same.
    HeldReads ticked;
    HeldReads skipped;
    while (!ticked.core.parked()) {
        ticked.core.tick();
        skipped.core.tick();
    }
    ASSERT_TRUE(skipped.core.parked());
    for (int i = 0; i < 37; ++i)
        ticked.core.tick();
    skipped.core.skipCycles(37);
    expectSameCore(ticked, skipped);

    // Identical from here on, once the same reads return.
    for (HeldReads *h : {&ticked, &skipped}) {
        for (std::size_t i = 0; i < 10; ++i)
            h->held[i]();
        for (int i = 0; i < 20; ++i)
            h->core.tick();
    }
    expectSameCore(ticked, skipped);
    EXPECT_EQ(ticked.core.stats().retired, 10);
}

TEST(Core, InvalidConfigRejected)
{
    ScriptedTrace trace(TraceEntry{1, 0, false});
    auto send = [](std::uint64_t, bool, std::function<void()>) {
        return true;
    };
    EXPECT_THROW(Core(trace, send, 0, 128), rowhammer::util::FatalError);
    EXPECT_THROW(Core(trace, send, 4, 0), rowhammer::util::FatalError);
}

} // namespace
