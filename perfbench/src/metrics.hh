/**
 * @file
 * Measurement primitives of the end-to-end benchmark: timing
 * distributions summarised by the percentile rule, in-memory spans with
 * self-time arithmetic, the metric registry that becomes the result
 * JSON, a counting util::Io decorator, an in-memory util::Io, and
 * bit-exact output digests.
 *
 * Everything here lives outside the library: the benchmark wraps its
 * own calls into src/ and never instruments the program itself.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/io.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `start`. */
double secondsSince(Clock::time_point start);

/** True iff `name` is a legal metric name: [A-Za-z0-9_.-]+. */
bool validMetricName(const std::string &name);

/**
 * The percentile rule: the highest of p50, p90, p99, p99.9 that has at
 * least ten samples strictly above its nearest-rank position, or 0 when
 * even the median has fewer than ten samples beyond it.
 */
double highestSupportedPercentile(std::size_t n);

/** Nearest-rank percentile of `samples` (p in (0, 100]); 0 if empty. */
double percentile(std::vector<double> samples, double p);

/** Median (the nearest-rank p50 is biased low for even n; this is the
 *  usual midpoint median). 0 if empty. */
double median(std::vector<double> samples);

/** One traced interval. `parent` is the id of the span that caused it
 *  (-1 for a root); ids are indices into Tracer::spans(). */
struct Span
{
    std::string name;
    double start = 0.0; ///< Seconds since the tracer's epoch.
    double end = 0.0;
    int parent = -1;

    double duration() const { return end - start; }
};

/**
 * A span's self time: its duration minus the part of its interval
 * covered by the union of its children's intervals (children may
 * overlap when they ran on different threads).
 */
double selfTime(const std::vector<Span> &spans, int id);

/**
 * In-memory span recorder. Thread-safe: pool workers record spans for
 * the cells they run. Spans are written out only at exit (writeJsonl).
 */
class Tracer
{
  public:
    Tracer();

    /** Open a span; returns its id. */
    int begin(const std::string &name, int parent = -1);
    /** Close span `id`. */
    void end(int id);

    /** Record an already-measured interval. */
    int record(const std::string &name, Clock::time_point start,
               Clock::time_point end, int parent = -1);

    std::vector<Span> spans() const;

    /** One JSON object per line: id, name, start, end, parent, self. */
    void writeJsonl(std::ostream &os) const;

  private:
    double now() const;

    Clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** Scoped span: begin on construction, end on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const std::string &name, int parent = -1)
        : tracer_(tracer), id_(tracer ? tracer->begin(name, parent) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    Tracer *tracer_;
    int id_;
};

/** Ordered name -> (value, unit) map that renders as the result JSON's
 *  "metrics" object. Names are validated on insertion. */
class MetricSet
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);

    /**
     * A timing distribution under the percentile rule: `<prefix>.n`,
     * `<prefix>.p50_<unit>` and `<prefix>.p<tail>_<unit>`, samples in
     * seconds scaled by `scale`. `tail` is the percentile the rule
     * selects at the design sample count; a run whose count does not
     * support it warns on stderr.
     */
    void distribution(const std::string &prefix,
                      const std::vector<double> &seconds, double scale,
                      const std::string &unit, int tail);

    const std::map<std::string, std::pair<double, std::string>> &
    all() const
    {
        return metrics_;
    }

    /** {"name": {"value": v, "unit": "u"}, ...} with full precision. */
    std::string json() const;

  private:
    std::map<std::string, std::pair<double, std::string>> metrics_;
};

/**
 * util::Io decorator that counts what the checkpoint layer does to disk:
 * bytes written, fsyncs and renames. Every call goes on to `base`.
 * Safe to share across pool threads.
 */
class CountingIo : public rowhammer::util::Io
{
  public:
    explicit CountingIo(rowhammer::util::Io &base) : base_(base) {}

    long long bytesWritten() const { return bytesWritten_.load(); }
    long long fsyncs() const { return fsyncs_.load(); }
    long long renames() const { return renames_.load(); }
    void reset();

    [[nodiscard]] int openForWrite(const std::string &path) override;
    [[nodiscard]] long write(int fd, const void *buf,
                             std::size_t count) override;
    [[nodiscard]] bool fsyncFd(int fd) override;
    [[nodiscard]] bool closeFd(int fd) override;
    [[nodiscard]] bool renameFile(const std::string &from,
                                  const std::string &to) override;
    [[nodiscard]] bool readFile(const std::string &path,
                                std::string &out) override;
    [[nodiscard]] bool makeDirs(const std::string &path) override;
    [[nodiscard]] bool removeFile(const std::string &path) override;
    [[nodiscard]] bool fileExists(const std::string &path) override;
    [[nodiscard]] int openLockFile(const std::string &path) override;
    [[nodiscard]] bool tryLockExclusive(int fd) override;
    [[nodiscard]] bool truncateFd(int fd) override;
    [[nodiscard]] bool writeAllFd(int fd,
                                  const std::string &data) override;

  private:
    rowhammer::util::Io &base_;
    std::atomic<long long> bytesWritten_{0};
    std::atomic<long long> fsyncs_{0};
    std::atomic<long long> renames_{0};
};

/**
 * util::Io kept in memory: files are strings keyed by path, renames are
 * atomic, fsync succeeds without touching a disk, and locks follow
 * flock semantics within the process. The checkpoint phases run on it
 * so that their wall time is the program's persistence work (encoding,
 * CRCs, the Io call sequence, loading) and not the latency of a disk
 * shared with other tenants. Safe to share across pool threads.
 */
class MemoryIo : public rowhammer::util::Io
{
  public:
    /** Paths of the files that end in `suffix`, in path order. */
    std::vector<std::string> filesEndingIn(const std::string &suffix) const;

    /** Size of the file at `path`, or -1 if there is none. */
    long long fileSize(const std::string &path) const;

    [[nodiscard]] int openForWrite(const std::string &path) override;
    [[nodiscard]] long write(int fd, const void *buf,
                             std::size_t count) override;
    [[nodiscard]] bool fsyncFd(int fd) override;
    [[nodiscard]] bool closeFd(int fd) override;
    [[nodiscard]] bool renameFile(const std::string &from,
                                  const std::string &to) override;
    [[nodiscard]] bool readFile(const std::string &path,
                                std::string &out) override;
    [[nodiscard]] bool makeDirs(const std::string &path) override;
    [[nodiscard]] bool removeFile(const std::string &path) override;
    [[nodiscard]] bool fileExists(const std::string &path) override;
    [[nodiscard]] int openLockFile(const std::string &path) override;
    [[nodiscard]] bool tryLockExclusive(int fd) override;
    [[nodiscard]] bool truncateFd(int fd) override;
    [[nodiscard]] bool writeAllFd(int fd,
                                  const std::string &data) override;

  private:
    /** An open descriptor: the file it writes and whether it holds
     *  that file's lock. */
    struct Handle
    {
        std::string path;
        bool locked = false;
    };

    int openLocked(const std::string &path, bool truncate);

    mutable std::mutex mu_;
    std::map<std::string, std::string> files_;
    std::map<int, Handle> handles_;
    int nextFd_ = 3;
};

/** FNV-1a digest of a byte string, as 16 lower-case hex digits. */
std::string hexDigest(const std::string &bytes);

/**
 * Reference digests kept with the benchmark: lines of
 * "<workload> <key> <hex>". Keys name one checked output (a Fig. 10
 * sweep point, the campaign log, a chip slice).
 */
class DigestTable
{
  public:
    /** Parse `text`; malformed lines are ignored. */
    static DigestTable parse(const std::string &text);

    /** Reference for (workload, key), or nullptr. */
    const std::string *find(const std::string &workload,
                            const std::string &key) const;

  private:
    std::map<std::pair<std::string, std::string>, std::string> entries_;
};

/**
 * The output-correctness gate of one batch. Each checked output is
 * recorded with its digest and compared against the reference when one
 * is in force; the caller decides which operations a mismatch fails
 * and reports the tally through count().
 */
class DigestGate
{
  public:
    /** Keys are recorded and looked up as `prefix` + key. */
    DigestGate(const DigestTable *reference, std::string workload,
               std::string prefix = "")
        : reference_(reference), workload_(std::move(workload)),
          prefix_(std::move(prefix))
    {
    }

    /** Record output `key`; true when it matches the reference or no
     *  reference is in force. */
    bool matches(const std::string &key, const std::string &digest);

    /** Add `attempted` operations, `failed` of which failed. */
    void count(long long attempted, long long failed);

    long long attempted() const { return attempted_; }
    long long failed() const { return failed_; }
    /** "<workload> <key> <hex>" per recorded output, in record order. */
    const std::vector<std::string> &lines() const { return lines_; }

  private:
    const DigestTable *reference_;
    std::string workload_;
    std::string prefix_;
    long long attempted_ = 0;
    long long failed_ = 0;
    std::vector<std::string> lines_;
};

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
