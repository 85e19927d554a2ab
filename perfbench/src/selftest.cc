/**
 * @file
 * Self-tests of the benchmark's own measurement code: metric names,
 * the percentile rule, span self-time arithmetic, the digest gate, and
 * the in-memory store the checkpoint phases run on.
 * Exits non-zero if any check failed.
 */

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "metrics.hh"
#include "util/run_store.hh"
#include "util/serialize.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        std::cerr << "FAIL: " << what << "\n";
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

void
testMetricNames()
{
    expect(validMetricName("core.run_mix.p90_s"), "dotted name accepted");
    expect(validMetricName("util.io.bytes_written.cold"),
           "underscored name accepted");
    expect(validMetricName("a-b_c.9"), "dash and digits accepted");
    expect(!validMetricName(""), "empty name rejected");
    expect(!validMetricName("bad name"), "space rejected");
    expect(!validMetricName("p99/us"), "slash rejected");
    expect(!validMetricName("t\"q"), "quote rejected");

    bool threw = false;
    try {
        MetricSet m;
        m.set("no spaces allowed", 1.0, "s");
    } catch (const std::invalid_argument &) {
        threw = true;
    }
    expect(threw, "MetricSet rejects an invalid name");

    // Names a distribution derives from its prefix stay legal.
    MetricSet m;
    m.distribution("charlib.hcfirst", std::vector<double>(1000, 1e-6), 1e6,
                   "us", 99);
    for (const auto &[name, entry] : m.all())
        expect(validMetricName(name), "distribution name " + name);
    expect(m.all().count("charlib.hcfirst.p99_us") &&
               m.all().count("charlib.hcfirst.n") &&
               m.all().count("charlib.hcfirst.p50_us"),
           "distribution emits n, p50 and the tail percentile");
}

void
testPercentileRule()
{
    // Ten samples must lie strictly above the reported percentile.
    expect(highestSupportedPercentile(0) == 0.0, "n=0 supports nothing");
    expect(highestSupportedPercentile(19) == 0.0, "n=19: p50 has 9 above");
    expect(highestSupportedPercentile(20) == 50.0, "n=20: p50 has 10 above");
    expect(highestSupportedPercentile(99) == 50.0, "n=99: p90 has 9 above");
    expect(highestSupportedPercentile(100) == 90.0,
           "n=100: p90 has 10 above");
    expect(highestSupportedPercentile(999) == 90.0,
           "n=999: p99 has 9 above");
    expect(highestSupportedPercentile(1000) == 99.0,
           "n=1000: p99 has 10 above");
    expect(highestSupportedPercentile(10000) == 99.9,
           "n=10000: p99.9 has 10 above");

    std::vector<double> xs;
    for (int i = 1; i <= 100; ++i)
        xs.push_back(i);
    expect(percentile(xs, 90) == 90.0, "nearest-rank p90 of 1..100");
    expect(percentile(xs, 50) == 50.0, "nearest-rank p50 of 1..100");
    expect(median(xs) == 50.5, "midpoint median of 1..100");
    expect(median({3.0, 1.0, 2.0}) == 2.0, "odd median");
    expect(percentile({}, 50) == 0.0, "empty percentile");
}

void
testSelfTime()
{
    // root [0,10]; children [1,3] and [2,5] overlap (two threads), and
    // [8,12] overruns the parent; a grandchild does not count against
    // the root.
    std::vector<Span> spans{
        {"root", 0.0, 10.0, -1}, {"a", 1.0, 3.0, 0}, {"b", 2.0, 5.0, 0},
        {"c", 8.0, 12.0, 0},     {"a.x", 1.5, 2.5, 1},
    };
    expect(near(selfTime(spans, 0), 10.0 - 4.0 - 2.0),
           "root self time subtracts the union of its children");
    expect(near(selfTime(spans, 1), 2.0 - 1.0), "child minus grandchild");
    expect(near(selfTime(spans, 2), 3.0), "leaf self time is its duration");

    Tracer tracer;
    const int root = tracer.begin("root");
    const auto t = Clock::now();
    tracer.record("leaf", t, t + std::chrono::milliseconds(5), root);
    tracer.end(root);
    const auto recorded = tracer.spans();
    expect(recorded.size() == 2 && recorded[1].parent == root,
           "tracer keeps parent links");
    expect(recorded.size() == 2 && near(recorded[1].duration(), 0.005),
           "recorded span keeps its measured duration");
}

void
testDigestGate()
{
    rowhammer::util::ByteWriter w;
    w.f64(0.987654321);
    w.i64(42);
    const std::string good = hexDigest(w.bytes());

    rowhammer::util::ByteWriter perturbed;
    perturbed.f64(std::nextafter(0.987654321, 1.0)); // one ulp away
    perturbed.i64(42);
    const std::string bad = hexDigest(perturbed.bytes());
    expect(good != bad, "a one-ulp change alters the digest");

    const DigestTable table =
        DigestTable::parse("# comment\nwork point.PARA.64 " + good +
                           "\nmalformed\n");
    expect(table.find("work", "point.PARA.64") &&
               !table.find("malformed", "") && !table.find("#", "comment"),
           "reference parser skips comments and junk");

    DigestGate pass(&table, "work");
    expect(pass.matches("point.PARA.64", good), "matching digest passes");
    DigestGate fail(&table, "work");
    expect(!fail.matches("point.PARA.64", bad),
           "perturbed result fails the gate");
    DigestGate missing(&table, "work");
    expect(!missing.matches("point.PARA.128", good),
           "an output without a reference fails under a reference");
    DigestGate unchecked(nullptr, "work");
    expect(unchecked.matches("point.PARA.64", bad),
           "no reference in force: recorded, not judged");
    expect(unchecked.lines().at(0) == "work point.PARA.64 " + bad,
           "gate records the printed digest line");
    fail.count(2, 2);
    expect(fail.attempted() == 2 && fail.failed() == 2, "gate tallies ops");
}

void
testMemoryIo()
{
    MemoryIo disk;
    CountingIo io(disk);
    const std::string path = "mem/store/0123.rst";
    {
        rowhammer::util::RunStore store(path, 0x123, &io, true);
        expect(store.load() == 0, "an empty memory store loads nothing");
        store.put(1, "one");
        store.put(2, "two");
        rowhammer::util::RunStore reader(path, 0x123, &io);
        expect(reader.load() == 2, "a second store sees both records");
    }
    expect(io.fsyncs() == 2 && io.renames() == 2,
           "each put is one fsync and one rename");
    expect(io.bytesWritten() > 0 &&
               disk.fileSize(path) > 0 && !disk.fileExists(path + ".tmp"),
           "atomic writes leave the file and no temp file");
    expect(disk.filesEndingIn(".rst") == std::vector<std::string>{path},
           "the store is listed by suffix");
    rowhammer::util::RunStore reload(path, 0x123, &disk);
    expect(reload.load() == 2 && reload.get(2) && *reload.get(2) == "two",
           "records round-trip through memory");

    const int a = disk.openLockFile("mem/x.lock");
    const int b = disk.openLockFile("mem/x.lock");
    expect(disk.tryLockExclusive(a) && !disk.tryLockExclusive(b),
           "one holder per lock");
    expect(disk.closeFd(a) && disk.tryLockExclusive(b),
           "closing the holder frees the lock");
}

void
testWorkloadTable()
{
    for (const auto &w : workloads()) {
        expect(validMetricName(w.name), "workload name " + w.name);
        expect(findWorkload(w.name) == &w, "lookup " + w.name);
    }
    expect(findWorkload("nope") == nullptr, "unknown workload");
}

} // namespace

int
main()
{
    testMetricNames();
    testPercentileRule();
    testSelfTime();
    testDigestGate();
    testMemoryIo();
    testWorkloadTable();
    if (failures) {
        std::cerr << failures << " self-test check(s) failed\n";
        return 1;
    }
    std::cout << "perfbench self-tests passed\n";
    return 0;
}
