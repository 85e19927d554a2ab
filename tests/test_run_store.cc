/**
 * @file
 * Crash-safety substrate tests: the util::Io seam (atomic writes under
 * injected short writes, ENOSPC, fsync/rename failure), the RunStore
 * checkpoint format (round-trips, header validation), and the
 * corruption fuzz the ISSUE demands — truncation at every byte
 * boundary and single-bit flips over the whole file must degrade to
 * recompute-with-a-warning, never a crash or a silently wrong record —
 * and the append-only log semantics: per-put appends produce exactly
 * the full-image encoding, torn tails are compacted away, and bytes
 * written grow linearly with the record count.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/io.hh"
#include "util/logging.hh"
#include "util/run_store.hh"
#include "util/serialize.hh"

namespace
{

using namespace rowhammer::util;

/** Unique scratch directory per test, removed on destruction. */
class TempDir
{
  public:
    TempDir()
    {
        char templ[] = "/tmp/rh_run_store_XXXXXX";
        path_ = mkdtemp(templ);
        EXPECT_FALSE(path_.empty());
    }

    ~TempDir()
    {
        const std::string cmd = "rm -rf '" + path_ + "'";
        [[maybe_unused]] const int rc = std::system(cmd.c_str());
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

std::string
readAll(const std::string &path)
{
    std::string out;
    EXPECT_TRUE(Io::system().readFile(path, out));
    return out;
}

void
writeAll(const std::string &path, const std::string &bytes)
{
    EXPECT_TRUE(atomicWriteFile(Io::system(), path, bytes));
}

TEST(Crc32, KnownVectors)
{
    // The standard IEEE CRC-32 check value.
    EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(crc32(""), 0x00000000u);
    EXPECT_NE(crc32("a"), crc32("b"));
}

TEST(Serialize, RoundTripAndBitExactDoubles)
{
    ByteWriter w;
    w.u8(0xAB);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFull);
    w.i64(-42);
    const double tricky = 0.1 + 0.2; // Not representable exactly.
    w.f64(tricky);
    w.str("hello");
    w.f64Vec({1.0, -0.0, 1e-300});

    ByteReader r(w.bytes());
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.i64(), -42);
    // Bit-exact: the resumed value must equal the interrupted run's.
    EXPECT_EQ(r.f64(), tricky);
    EXPECT_EQ(r.str(), "hello");
    const auto vec = r.f64Vec();
    ASSERT_EQ(vec.size(), 3u);
    EXPECT_EQ(vec[0], 1.0);
    EXPECT_TRUE(std::signbit(vec[1]));
    EXPECT_EQ(vec[2], 1e-300);
    EXPECT_TRUE(r.done());
}

TEST(Serialize, ReaderUnderrunLatchesNotOk)
{
    const std::string bytes("\x01\x02", 2);
    ByteReader r(bytes);
    EXPECT_EQ(r.u8(), 1);
    // Underrun: whatever value comes back, ok() latches false so the
    // caller discards the whole record.
    (void)r.u32();
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.done());
}

TEST(AtomicWrite, SurvivesShortWrites)
{
    TempDir dir;
    FaultInjectingIo io(Io::system());
    io.shortWriteLimit = 3; // Force the caller to loop.
    const std::string path = dir.path() + "/short.bin";
    const std::string data(1000, 'x');
    EXPECT_TRUE(atomicWriteFile(io, path, data));
    EXPECT_GT(io.writeCalls(), 300);
    EXPECT_EQ(readAll(path), data);
}

TEST(AtomicWrite, DiskFullLeavesTargetUntouched)
{
    TempDir dir;
    const std::string path = dir.path() + "/store.bin";
    writeAll(path, "old complete contents");

    FaultInjectingIo io(Io::system());
    io.failAfterBytes = 10; // ENOSPC partway through the temp file.
    EXPECT_FALSE(atomicWriteFile(io, path, std::string(100, 'y')));

    // The real file still holds the old complete contents, and the
    // temp file was cleaned up.
    EXPECT_EQ(readAll(path), "old complete contents");
    std::string tmp;
    EXPECT_FALSE(Io::system().readFile(path + ".tmp", tmp));
}

TEST(AtomicWrite, FsyncAndRenameFailuresReported)
{
    TempDir dir;
    const std::string path = dir.path() + "/f.bin";
    {
        FaultInjectingIo io(Io::system());
        io.failFsync = true;
        EXPECT_FALSE(atomicWriteFile(io, path, "data"));
    }
    {
        FaultInjectingIo io(Io::system());
        io.failRename = true;
        EXPECT_FALSE(atomicWriteFile(io, path, "data"));
    }
    {
        FaultInjectingIo io(Io::system());
        io.failOpen = true;
        EXPECT_FALSE(atomicWriteFile(io, path, "data"));
    }
    std::string out;
    EXPECT_FALSE(Io::system().readFile(path, out));
}

/** A FaultInjectingIo whose appendFile is Io's default (read, then
 *  atomically rewrite old + new bytes), as for any Io that does not
 *  override it. */
class DefaultAppendIo : public FaultInjectingIo
{
  public:
    using FaultInjectingIo::FaultInjectingIo;

    [[nodiscard]] bool
    appendFile(const std::string &path, const std::string &bytes) override
    {
        return Io::appendFile(path, bytes);
    }
};

TEST(AppendFile, AppendsToExistingFilesAndNeverCreatesOne)
{
    DefaultAppendIo default_io(Io::system());
    for (Io *io : {&Io::system(), static_cast<Io *>(&default_io)}) {
        TempDir dir;
        const std::string path = dir.path() + "/log.bin";
        EXPECT_FALSE(io->appendFile(path, "orphan"));
        EXPECT_FALSE(Io::system().fileExists(path));

        writeAll(path, "head");
        EXPECT_TRUE(io->appendFile(path, std::string("\0-1", 3)));
        EXPECT_TRUE(io->appendFile(path, ""));
        EXPECT_TRUE(io->appendFile(path, "-2"));
        EXPECT_EQ(readAll(path), std::string("head\0-1-2", 9));
    }
}

TEST(AppendFile, DefaultFailureLeavesTheFileUntouched)
{
    TempDir dir;
    const std::string path = dir.path() + "/log.bin";
    writeAll(path, "complete");
    DefaultAppendIo io(Io::system());
    io.failRename = true;
    EXPECT_FALSE(io.appendFile(path, "lost"));
    EXPECT_EQ(readAll(path), "complete");
}

TEST(RunStore, RoundTripAcrossInstances)
{
    TempDir dir;
    const std::uint64_t hash = 0x1122334455667788ull;
    const std::string path = RunStore::pathInDir(dir.path(), hash);

    RunStore writer(path, hash);
    EXPECT_EQ(writer.load(), 0u); // First run: no file yet.
    writer.put(1, "alpha");
    writer.put(2, std::string("\x00\xFF\n", 3)); // Binary-safe.
    writer.put(1, "ignored");                    // Duplicate: no-op.
    EXPECT_EQ(writer.size(), 2u);
    EXPECT_TRUE(writer.persistent());

    RunStore reader(path, hash);
    EXPECT_EQ(reader.load(), 2u);
    ASSERT_NE(reader.get(1), nullptr);
    EXPECT_EQ(*reader.get(1), "alpha");
    ASSERT_NE(reader.get(2), nullptr);
    EXPECT_EQ(*reader.get(2), std::string("\x00\xFF\n", 3));
    EXPECT_EQ(reader.get(3), nullptr);
}

TEST(RunStore, PathInDirIsHexHash)
{
    EXPECT_EQ(RunStore::pathInDir("/x", 0xABCDull),
              "/x/000000000000abcd.rst");
}

TEST(RunStore, ConfigHashMismatchRecomputesAll)
{
    TempDir dir;
    const std::string path = dir.path() + "/store.rst";
    RunStore writer(path, 111);
    writer.put(7, "value");

    RunStore stale(path, 222); // Different run description.
    EXPECT_EQ(stale.load(), 0u);
    EXPECT_EQ(stale.get(7), nullptr);
}

TEST(RunStore, NotACheckpointFileRecomputesAll)
{
    TempDir dir;
    const std::string path = dir.path() + "/store.rst";
    writeAll(path, "this is not a checkpoint");
    RunStore store(path, 1);
    EXPECT_EQ(store.load(), 0u);
}

TEST(RunStore, TruncationFuzzKeepsValidPrefix)
{
    TempDir dir;
    const std::string path = dir.path() + "/store.rst";
    const std::uint64_t hash = 42;

    std::vector<std::string> values;
    {
        RunStore writer(path, hash);
        for (std::uint64_t k = 0; k < 6; ++k) {
            values.push_back("value-" + std::to_string(k) +
                             std::string(k, '#'));
            writer.put(k, values.back());
        }
    }
    const std::string full = readAll(path);

    // Truncate at every byte boundary: load() must never crash, and
    // every record it does return must be exactly what was stored —
    // a valid prefix, never a torn or invented record.
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        writeAll(path, full.substr(0, cut));
        RunStore store(path, hash);
        const std::size_t n = store.load();
        EXPECT_LE(n, values.size());
        std::size_t found = 0;
        for (std::uint64_t k = 0; k < values.size(); ++k) {
            if (const std::string *v = store.get(k)) {
                EXPECT_EQ(*v, values[k])
                    << "torn record at cut " << cut;
                ++found;
            }
        }
        EXPECT_EQ(found, n);
    }

    // The untruncated file recovers everything.
    writeAll(path, full);
    RunStore store(path, hash);
    EXPECT_EQ(store.load(), values.size());
}

TEST(RunStore, BitFlipFuzzNeverReturnsCorruptRecords)
{
    TempDir dir;
    const std::string path = dir.path() + "/store.rst";
    const std::uint64_t hash = 77;

    std::vector<std::string> values;
    {
        RunStore writer(path, hash);
        for (std::uint64_t k = 0; k < 4; ++k) {
            values.push_back("payload-" + std::to_string(k));
            writer.put(k, values.back());
        }
    }
    const std::string full = readAll(path);

    // Flip one bit at every position in the file. Whatever load()
    // recovers must match the original values byte for byte: CRC
    // framing turns silent corruption into recompute.
    for (std::size_t byte = 0; byte < full.size(); ++byte) {
        for (int bit = 0; bit < 8; bit += 3) {
            std::string damaged = full;
            damaged[byte] =
                static_cast<char>(damaged[byte] ^ (1 << bit));
            writeAll(path, damaged);
            RunStore store(path, hash);
            // Recovered-record count varies with the corruption point;
            // the loop below asserts on content instead.
            (void)store.load();
            for (std::uint64_t k = 0; k < values.size(); ++k) {
                if (const std::string *v = store.get(k)) {
                    EXPECT_EQ(*v, values[k])
                        << "corrupt record surfaced at byte " << byte
                        << " bit " << bit;
                }
            }
        }
    }
}

TEST(RunStore, WriteFailureDisablesPersistenceKeepsResults)
{
    TempDir dir;
    FaultInjectingIo io(Io::system());
    const std::string path = dir.path() + "/store.rst";
    RunStore store(path, 5, &io);

    store.put(1, "first"); // Lands on disk.
    io.failAfterBytes = 0; // Disk is now full.
    store.put(2, "second");
    EXPECT_FALSE(store.persistent());

    // Both records remain usable in memory: the run's own results are
    // unaffected by losing the checkpoint.
    ASSERT_NE(store.get(1), nullptr);
    ASSERT_NE(store.get(2), nullptr);
    EXPECT_EQ(store.size(), 2u);

    // Later puts stay in-memory-only without re-warning or crashing.
    store.put(3, "third");
    EXPECT_EQ(store.size(), 3u);

    // On disk: the last successful atomic write (record 1 alone).
    RunStore reloaded(path, 5);
    EXPECT_EQ(reloaded.load(), 1u);
    EXPECT_EQ(*reloaded.get(1), "first");
}

TEST(RunStore, OrphanedTempFileIsSweptOnLoad)
{
    TempDir dir;
    const std::string path = dir.path() + "/store.rst";
    {
        RunStore writer(path, 3);
        writer.put(1, "kept");
    }
    // Simulate a crash between atomicWriteFile's write and rename: an
    // orphaned temp file next to a complete store.
    writeAll(path + ".tmp", "torn write from a dead process");

    RunStore store(path, 3);
    EXPECT_EQ(store.load(), 1u);
    EXPECT_FALSE(Io::system().fileExists(path + ".tmp"));
    ASSERT_NE(store.get(1), nullptr);
    EXPECT_EQ(*store.get(1), "kept");
}

TEST(RunStore, HeaderDamageQuarantinesTheFileAside)
{
    TempDir dir;
    const std::string path = dir.path() + "/store.rst";
    writeAll(path, "this is not a checkpoint");

    RunStore store(path, 1);
    EXPECT_EQ(store.load(), 0u);
    EXPECT_TRUE(store.quarantinedOnLoad());
    // The damaged bytes were moved aside for post-mortem, not deleted
    // and not left to confuse the next load.
    EXPECT_FALSE(Io::system().fileExists(path));
    EXPECT_TRUE(Io::system().fileExists(path + ".corrupt"));
    EXPECT_EQ(readAll(path + ".corrupt"), "this is not a checkpoint");

    // The store is writable again after quarantine.
    store.put(1, "fresh");
    RunStore reloaded(path, 1);
    EXPECT_EQ(reloaded.load(), 1u);
    EXPECT_FALSE(reloaded.quarantinedOnLoad());
}

TEST(RunStore, RecordDamageKeepsPrefixWithoutQuarantine)
{
    TempDir dir;
    const std::string path = dir.path() + "/store.rst";
    {
        RunStore writer(path, 8);
        writer.put(1, "one");
        writer.put(2, "two");
    }
    std::string full = readAll(path);
    full.back() = static_cast<char>(full.back() ^ 0x01);
    writeAll(path, full);

    RunStore store(path, 8);
    EXPECT_EQ(store.load(), 1u); // Valid prefix survives.
    EXPECT_FALSE(store.quarantinedOnLoad());
    EXPECT_TRUE(Io::system().fileExists(path));
}

TEST(RunStore, SecondExclusiveOpenDiesNamingTheHolder)
{
    TempDir dir;
    const std::string path = dir.path() + "/store.rst";

    RunStore first(path, 4, nullptr, /*exclusive=*/true);
    first.put(1, "mine");

    // A second live opener of the same checkpoint store (a daemon and
    // a concurrent bench pointed at one RH_CHECKPOINT dir) must die
    // loudly, naming the holder, instead of interleaving writes.
    RunStore second(path, 4, nullptr, /*exclusive=*/true);
    try {
        (void)second.load(); // Must throw; value unreachable.
        FAIL() << "second exclusive open did not throw";
    } catch (const FatalError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("already open by"), std::string::npos);
        EXPECT_NE(what.find("pid " + std::to_string(getpid())),
                  std::string::npos);
        EXPECT_NE(what.find(path + ".lock"), std::string::npos);
    }

    // The first holder keeps working, and once it is gone the store
    // opens cleanly again (flock dies with the fd — SIGKILL-safe).
    first.put(2, "still mine");
    EXPECT_TRUE(first.persistent());
}

TEST(RunStore, LockReleasedWhenHolderCloses)
{
    TempDir dir;
    const std::string path = dir.path() + "/store.rst";
    {
        RunStore first(path, 4, nullptr, /*exclusive=*/true);
        first.put(1, "v");
    }
    RunStore second(path, 4, nullptr, /*exclusive=*/true);
    EXPECT_EQ(second.load(), 1u); // No throw: the lock died with fd.
    second.put(2, "w");
    EXPECT_EQ(second.size(), 2u);
}

TEST(RunStore, NonExclusiveOpenersStillCoexist)
{
    // Analysis tooling may read a store while a run writes it; only
    // exclusive openers conflict.
    TempDir dir;
    const std::string path = dir.path() + "/store.rst";
    RunStore writer(path, 4, nullptr, /*exclusive=*/true);
    writer.put(1, "v");

    RunStore reader(path, 4);
    EXPECT_EQ(reader.load(), 1u);
}

TEST(RunStore, UnlockableStoreDegradesToUnguarded)
{
    // When the lock file itself cannot be created (read-only dir,
    // weird filesystem), the store must keep checkpointing with a
    // warning, not die: the guard is advisory.
    TempDir dir;
    FaultInjectingIo io(Io::system());
    io.failLockOpen = true;
    const std::string path = dir.path() + "/store.rst";
    RunStore store(path, 4, &io, /*exclusive=*/true);
    EXPECT_EQ(store.load(), 0u);
    store.put(1, "v");
    EXPECT_TRUE(store.persistent());
    RunStore reloaded(path, 4);
    EXPECT_EQ(reloaded.load(), 1u);
}

TEST(RunStore, InjectedLockConflictDies)
{
    // The fault-injection knob pretending every lock is already held,
    // for driving the conflict path without a second opener.
    TempDir dir;
    FaultInjectingIo io(Io::system());
    io.failLock = true;
    RunStore store(dir.path() + "/store.rst", 4, &io,
                   /*exclusive=*/true);
    EXPECT_THROW((void)store.load(), FatalError);
}

TEST(RunStore, ConcurrentPutsAllLand)
{
    TempDir dir;
    const std::uint64_t hash = 9;
    const std::string path = dir.path() + "/store.rst";
    {
        RunStore store(path, hash);
        std::vector<std::thread> threads;
        for (int t = 0; t < 4; ++t) {
            threads.emplace_back([&store, t] {
                for (int i = 0; i < 16; ++i) {
                    const std::uint64_t key =
                        static_cast<std::uint64_t>(t * 16 + i);
                    store.put(key, "v" + std::to_string(key));
                }
            });
        }
        for (auto &thread : threads)
            thread.join();
        EXPECT_EQ(store.size(), 64u);
    }
    RunStore reloaded(path, hash);
    EXPECT_EQ(reloaded.load(), 64u);
    for (std::uint64_t k = 0; k < 64; ++k) {
        ASSERT_NE(reloaded.get(k), nullptr);
        EXPECT_EQ(*reloaded.get(k), "v" + std::to_string(k));
    }
}

// ------------------------------------------------------ append-only log

using Records = std::vector<std::pair<std::uint64_t, std::string>>;

/**
 * Reference encoder: the whole-file image (header, then one CRC frame
 * per record in insertion order) exactly as the store wrote it when
 * every put() rewrote the file. The log must keep producing these
 * bytes, so files written before and after the change interoperate.
 */
std::string
referenceImage(std::uint64_t hash, const Records &records)
{
    ByteWriter header;
    header.u32(RunStore::kFormatVersion);
    header.u64(hash);
    std::string out = "RHRS" + header.bytes();
    for (const auto &[key, value] : records) {
        ByteWriter payload;
        payload.u64(key);
        const std::string framed = payload.bytes() + value;
        ByteWriter frame;
        frame.u32(static_cast<std::uint32_t>(framed.size()));
        frame.u32(crc32(framed));
        out += frame.bytes() + framed;
    }
    return out;
}

Records
sampleRecords(std::size_t n)
{
    Records records;
    for (std::size_t i = 0; i < n; ++i) {
        records.emplace_back(0x9E3779B97F4A7C15ull * (i + 1),
                             "shard-" + std::to_string(i) +
                                 std::string(i % 7, '\0'));
    }
    return records;
}

void
putAll(RunStore &store, const Records &records)
{
    for (const auto &[key, value] : records)
        store.put(key, value);
}

void
expectHolds(RunStore &store, const Records &records)
{
    EXPECT_EQ(store.size(), records.size());
    for (const auto &[key, value] : records) {
        const std::string *got = store.get(key);
        ASSERT_NE(got, nullptr) << "key " << key;
        EXPECT_EQ(*got, value) << "key " << key;
    }
}

TEST(RunStoreLog, AppendedFileEqualsTheFullImage)
{
    // Through the POSIX append and through Io's default one.
    DefaultAppendIo default_io(Io::system());
    for (Io *io : {&Io::system(), static_cast<Io *>(&default_io)}) {
        TempDir dir;
        const std::uint64_t hash = 0xA5A5;
        const std::string path = RunStore::pathInDir(dir.path(), hash);
        const Records records = sampleRecords(40);

        RunStore store(path, hash, io);
        EXPECT_EQ(store.load(), 0u);
        for (std::size_t i = 0; i < records.size(); ++i) {
            store.put(records[i].first, records[i].second);
            store.put(records[i].first, "duplicate is a no-op");
            const Records prefix(records.begin(),
                                 records.begin() + i + 1);
            ASSERT_EQ(readAll(path), referenceImage(hash, prefix))
                << "after put " << i;
        }

        // A second instance resumes and keeps extending the image.
        const Records more = sampleRecords(55);
        RunStore resumed(path, hash, io);
        EXPECT_EQ(resumed.load(), records.size());
        putAll(resumed, Records(more.begin() + 40, more.end()));
        EXPECT_EQ(readAll(path), referenceImage(hash, more));
    }
}

TEST(RunStoreLog, StoreWrittenByTheWholeFileRewriterLoadsAndAppends)
{
    // Bytes of a three-record store written when every put() rewrote
    // the whole file (config hash 0x1122334455667788).
    const std::string old_file(
        "\x52\x48\x52\x53\x01\x00\x00\x00\x88\x77\x66\x55\x44\x33\x22"
        "\x11\x0d\x00\x00\x00\x70\x51\x20\xc4\x01\x00\x00\x00\x00\x00"
        "\x00\x00\x61\x6c\x70\x68\x61\x0b\x00\x00\x00\xa7\x40\xcd\xd2"
        "\x10\x32\x54\x76\x98\xba\xdc\xfe\x00\xff\x0a\x08\x00\x00\x00"
        "\x70\xd6\xe7\x6f\x07\x00\x00\x00\x00\x00\x00\x00",
        72);
    const std::uint64_t hash = 0x1122334455667788ull;
    Records records{{1, "alpha"},
                    {0xFEDCBA9876543210ull, std::string("\x00\xFF\n", 3)},
                    {7, ""}};
    ASSERT_EQ(old_file, referenceImage(hash, records));

    TempDir dir;
    const std::string path = dir.path() + "/old.rst";
    writeAll(path, old_file);
    RunStore store(path, hash);
    EXPECT_EQ(store.load(), 3u);
    expectHolds(store, records);
    store.put(42, "appended");
    store.put(43, "and again");
    records.emplace_back(42, "appended");
    records.emplace_back(43, "and again");
    EXPECT_EQ(readAll(path), referenceImage(hash, records));

    RunStore reloaded(path, hash);
    EXPECT_EQ(reloaded.load(), records.size());
    expectHolds(reloaded, records);
}

TEST(RunStoreLog, TornTailIsCompactedAwayByTheNextPut)
{
    TempDir dir;
    const std::uint64_t hash = 31;
    const std::string path = dir.path() + "/store.rst";
    Records records = sampleRecords(6);
    {
        RunStore writer(path, hash);
        putAll(writer, records);
    }
    // Cut in the middle of the last frame, as a crash mid-append does.
    const std::string full = readAll(path);
    const std::size_t last_frame =
        referenceImage(hash, Records(records.begin(), records.end() - 1))
            .size();
    writeAll(path,
             full.substr(0, last_frame + (full.size() - last_frame) / 2));

    RunStore store(path, hash);
    EXPECT_EQ(store.load(), 5u);
    records.pop_back();
    store.put(1000, "after the tear");
    store.put(1001, "and one more append");
    records.emplace_back(1000, "after the tear");
    records.emplace_back(1001, "and one more append");
    // The new records are not hidden behind the torn bytes.
    EXPECT_EQ(readAll(path), referenceImage(hash, records));
    RunStore reloaded(path, hash);
    EXPECT_EQ(reloaded.load(), records.size());
    expectHolds(reloaded, records);

    // The same holds for an instance that already wrote: after its
    // own load() drops a torn tail, its next put compacts too.
    const std::string image = readAll(path);
    writeAll(path, image.substr(0, image.size() - 3));
    EXPECT_EQ(store.load(), records.size() - 1);
    records.pop_back();
    store.put(1002, "after the second tear");
    records.emplace_back(1002, "after the second tear");
    EXPECT_EQ(readAll(path), referenceImage(hash, records));
}

TEST(RunStoreLog, PutBeforeLoadNeverAppendsToAForeignFile)
{
    TempDir dir;
    const std::string path = dir.path() + "/store.rst";
    writeAll(path, referenceImage(111, sampleRecords(3)));

    // No load(): the file on disk belongs to another run description.
    RunStore store(path, 222);
    store.put(5, "mine");
    store.put(6, "also mine");
    const Records mine{{5, "mine"}, {6, "also mine"}};
    EXPECT_EQ(readAll(path), referenceImage(222, mine));
    RunStore reloaded(path, 222);
    EXPECT_EQ(reloaded.load(), 2u);
    expectHolds(reloaded, mine);
}

TEST(RunStoreLog, BytesWrittenGrowLinearlyWithRecords)
{
    TempDir dir;
    FaultInjectingIo io(Io::system());
    const std::string path = dir.path() + "/store.rst";
    const Records records = sampleRecords(1000);
    {
        RunStore store(path, 9, &io);
        putAll(store, records);
        EXPECT_TRUE(store.persistent());
    }
    const std::string file = readAll(path);
    EXPECT_EQ(file, referenceImage(9, records));
    // At most one compacted image on top of the appended frames; a
    // whole-file rewrite per put would write ~500x the file size.
    EXPECT_LE(io.bytesWritten(), static_cast<long>(2 * file.size()));

    // A resume compacts once, then appends again.
    const Records more = sampleRecords(1500);
    FaultInjectingIo resume_io(Io::system());
    RunStore resumed(path, 9, &resume_io);
    EXPECT_EQ(resumed.load(), 1000u);
    putAll(resumed, Records(more.begin() + 1000, more.end()));
    const std::string grown = readAll(path);
    EXPECT_EQ(grown, referenceImage(9, more));
    EXPECT_LE(resume_io.bytesWritten(),
              static_cast<long>(2 * grown.size()));
}

TEST(RunStoreLog, ShortAppendsStillWriteTheWholeFile)
{
    TempDir dir;
    FaultInjectingIo io(Io::system());
    io.shortWriteLimit = 3;
    const std::string path = dir.path() + "/store.rst";
    const Records records = sampleRecords(12);
    RunStore store(path, 4, &io);
    putAll(store, records);
    EXPECT_TRUE(store.persistent());
    EXPECT_EQ(readAll(path), referenceImage(4, records));
    // Every append was split into 3-byte writes.
    EXPECT_GE(io.writeCalls(),
              static_cast<int>(readAll(path).size() / 3));
}

TEST(RunStoreLog, DiskFullMidFrameKeepsEveryEarlierRecord)
{
    TempDir dir;
    FaultInjectingIo io(Io::system());
    const std::string path = dir.path() + "/store.rst";
    Records records = sampleRecords(5);
    RunStore store(path, 6, &io);
    putAll(store, records);
    ASSERT_TRUE(store.persistent());

    // The disk fills 10 bytes into the next frame (header + part of
    // the key): the torn frame stays on disk.
    io.failAfterBytes = io.bytesWritten() + 10;
    store.put(77, "never fully written");
    EXPECT_FALSE(store.persistent());
    EXPECT_EQ(readAll(path).size(),
              referenceImage(6, records).size() + 10);
    // In memory nothing is lost.
    ASSERT_NE(store.get(77), nullptr);
    EXPECT_EQ(*store.get(77), "never fully written");

    // A reload recovers every record written before the failure, and
    // the next run's first put compacts the torn frame away.
    RunStore reloaded(path, 6);
    EXPECT_EQ(reloaded.load(), records.size());
    expectHolds(reloaded, records);
    reloaded.put(78, "next run");
    records.emplace_back(78, "next run");
    EXPECT_EQ(readAll(path), referenceImage(6, records));
}

TEST(RunStoreLog, AppendFsyncAndOpenFailuresDisablePersistence)
{
    for (const bool fail_fsync : {true, false}) {
        TempDir dir;
        FaultInjectingIo io(Io::system());
        const std::string path = dir.path() + "/store.rst";
        const Records records = sampleRecords(4);
        RunStore store(path, 12, &io);
        store.put(records[0].first, records[0].second); // Compaction.
        ASSERT_TRUE(store.persistent());

        if (fail_fsync)
            io.failFsync = true;
        else
            io.failOpen = true;
        for (std::size_t i = 1; i < records.size(); ++i)
            store.put(records[i].first, records[i].second);
        EXPECT_FALSE(store.persistent());
        // Results are unchanged: every record is served from memory.
        expectHolds(store, records);

        // Only the records before the failed append are guaranteed on
        // disk; an un-fsynced append may or may not have landed.
        RunStore reloaded(path, 12);
        const std::size_t n = reloaded.load();
        EXPECT_GE(n, 1u);
        EXPECT_LE(n, fail_fsync ? 2u : 1u);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(*reloaded.get(records[i].first), records[i].second);
    }
}

} // namespace
