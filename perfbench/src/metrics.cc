#include "metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "util/serialize.hh"

namespace perfbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

bool
validMetricName(const std::string &name)
{
    if (name.empty())
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
            (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    });
}

namespace
{

/** 1-based nearest rank of percentile p among n samples. */
std::size_t
nearestRank(std::size_t n, double p)
{
    // The epsilon keeps p99.9 of 10000 at rank 9990 despite rounding.
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

} // namespace

double
highestSupportedPercentile(std::size_t n)
{
    double best = 0.0;
    for (double p : {50.0, 90.0, 99.0, 99.9}) {
        if (n > 0 && n - nearestRank(n, p) >= 10)
            best = p;
    }
    return best;
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    return samples[nearestRank(samples.size(), p) - 1];
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double
selfTime(const std::vector<Span> &spans, int id)
{
    const Span &self = spans.at(static_cast<std::size_t>(id));
    std::vector<std::pair<double, double>> covered;
    for (const Span &s : spans) {
        if (s.parent != id)
            continue;
        const double lo = std::max(s.start, self.start);
        const double hi = std::min(s.end, self.end);
        if (hi > lo)
            covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    double union_len = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    for (const auto &[lo, hi] : covered) {
        if (lo > run_hi) {
            if (run_hi > run_lo)
                union_len += run_hi - run_lo;
            run_lo = lo;
            run_hi = hi;
        } else {
            run_hi = std::max(run_hi, hi);
        }
    }
    if (run_hi > run_lo)
        union_len += run_hi - run_lo;
    return self.duration() - union_len;
}

Tracer::Tracer() : epoch_(Clock::now()) {}

double
Tracer::now() const
{
    return secondsSince(epoch_);
}

int
Tracer::begin(const std::string &name, int parent)
{
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, t, t, parent});
    return static_cast<int>(spans_.size()) - 1;
}

void
Tracer::end(int id)
{
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.at(static_cast<std::size_t>(id)).end = t;
}

int
Tracer::record(const std::string &name, Clock::time_point start,
               Clock::time_point end, int parent)
{
    const auto since = [&](Clock::time_point t) {
        return std::chrono::duration<double>(t - epoch_).count();
    };
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, since(start), since(end), parent});
    return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

void
Tracer::writeJsonl(std::ostream &os) const
{
    const std::vector<Span> all = spans();
    char buf[64];
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        os << "{\"id\": " << i << ", \"name\": \"" << s.name
           << "\", \"parent\": " << s.parent;
        std::snprintf(buf, sizeof buf, "%.9f", s.start);
        os << ", \"start_s\": " << buf;
        std::snprintf(buf, sizeof buf, "%.9f", s.end);
        os << ", \"end_s\": " << buf;
        std::snprintf(buf, sizeof buf, "%.9f",
                      selfTime(all, static_cast<int>(i)));
        os << ", \"self_s\": " << buf << "}\n";
    }
}

void
MetricSet::set(const std::string &name, double value,
               const std::string &unit)
{
    if (!validMetricName(name))
        throw std::invalid_argument("invalid metric name: " + name);
    if (!std::isfinite(value))
        value = 0.0;
    metrics_[name] = {value, unit};
}

void
MetricSet::distribution(const std::string &prefix,
                        const std::vector<double> &seconds, double scale,
                        const std::string &unit, int tail)
{
    std::vector<double> scaled;
    scaled.reserve(seconds.size());
    for (double s : seconds)
        scaled.push_back(s * scale);
    if (highestSupportedPercentile(scaled.size()) !=
        static_cast<double>(tail)) {
        std::cerr << "perfbench: " << prefix << " has " << scaled.size()
                  << " samples; the percentile rule selects p"
                  << highestSupportedPercentile(scaled.size())
                  << ", not p" << tail << "\n";
    }
    set(prefix + ".n", static_cast<double>(scaled.size()), "count");
    set(prefix + ".p50_" + unit, median(scaled), unit);
    set(prefix + ".p" + std::to_string(tail) + "_" + unit,
        percentile(scaled, tail), unit);
}

std::string
MetricSet::json() const
{
    std::ostringstream os;
    os << "{";
    bool first = true;
    char buf[64];
    for (const auto &[name, entry] : metrics_) {
        std::snprintf(buf, sizeof buf, "%.17g", entry.first);
        os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
           << buf << ", \"unit\": \"" << entry.second << "\"}";
        first = false;
    }
    os << "}";
    return os.str();
}

void
CountingIo::reset()
{
    bytesWritten_ = 0;
    fsyncs_ = 0;
    renames_ = 0;
}

int
CountingIo::openForWrite(const std::string &path)
{
    return base_.openForWrite(path);
}

long
CountingIo::write(int fd, const void *buf, std::size_t count)
{
    const long n = base_.write(fd, buf, count);
    if (n > 0)
        bytesWritten_ += n;
    return n;
}

bool
CountingIo::fsyncFd(int fd)
{
    ++fsyncs_;
    return base_.fsyncFd(fd);
}

bool
CountingIo::closeFd(int fd)
{
    return base_.closeFd(fd);
}

bool
CountingIo::renameFile(const std::string &from, const std::string &to)
{
    ++renames_;
    return base_.renameFile(from, to);
}

bool
CountingIo::readFile(const std::string &path, std::string &out)
{
    return base_.readFile(path, out);
}

bool
CountingIo::makeDirs(const std::string &path)
{
    return base_.makeDirs(path);
}

bool
CountingIo::removeFile(const std::string &path)
{
    return base_.removeFile(path);
}

bool
CountingIo::fileExists(const std::string &path)
{
    return base_.fileExists(path);
}

int
CountingIo::openLockFile(const std::string &path)
{
    return base_.openLockFile(path);
}

bool
CountingIo::tryLockExclusive(int fd)
{
    return base_.tryLockExclusive(fd);
}

bool
CountingIo::truncateFd(int fd)
{
    return base_.truncateFd(fd);
}

bool
CountingIo::writeAllFd(int fd, const std::string &data)
{
    const bool ok = base_.writeAllFd(fd, data);
    if (ok)
        bytesWritten_ += static_cast<long long>(data.size());
    return ok;
}

int
MemoryIo::openLocked(const std::string &path, bool truncate)
{
    if (truncate)
        files_[path].clear();
    else
        files_.try_emplace(path);
    const int fd = nextFd_++;
    handles_[fd] = Handle{path, false};
    return fd;
}

std::vector<std::string>
MemoryIo::filesEndingIn(const std::string &suffix) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    for (const auto &[path, data] : files_) {
        if (path.size() >= suffix.size() &&
            path.compare(path.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            out.push_back(path);
    }
    return out;
}

long long
MemoryIo::fileSize(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = files_.find(path);
    return it == files_.end() ? -1
                              : static_cast<long long>(it->second.size());
}

int
MemoryIo::openForWrite(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mu_);
    return openLocked(path, true);
}

long
MemoryIo::write(int fd, const void *buf, std::size_t count)
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = handles_.find(fd);
    if (it == handles_.end())
        return -1;
    files_[it->second.path].append(static_cast<const char *>(buf), count);
    return static_cast<long>(count);
}

bool
MemoryIo::fsyncFd(int fd)
{
    std::lock_guard<std::mutex> lock(mu_);
    return handles_.count(fd) == 1;
}

bool
MemoryIo::closeFd(int fd)
{
    std::lock_guard<std::mutex> lock(mu_);
    return handles_.erase(fd) == 1;
}

bool
MemoryIo::renameFile(const std::string &from, const std::string &to)
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = files_.find(from);
    if (it == files_.end())
        return false;
    std::string data = std::move(it->second);
    files_.erase(it);
    files_[to] = std::move(data);
    return true;
}

bool
MemoryIo::readFile(const std::string &path, std::string &out)
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = files_.find(path);
    if (it == files_.end())
        return false;
    out = it->second;
    return true;
}

bool
MemoryIo::makeDirs(const std::string &)
{
    return true;
}

bool
MemoryIo::removeFile(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mu_);
    return files_.erase(path) == 1;
}

bool
MemoryIo::fileExists(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mu_);
    return files_.count(path) == 1;
}

int
MemoryIo::openLockFile(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mu_);
    return openLocked(path, false);
}

bool
MemoryIo::tryLockExclusive(int fd)
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = handles_.find(fd);
    if (it == handles_.end())
        return false;
    for (const auto &[other, handle] : handles_) {
        if (other != fd && handle.locked && handle.path == it->second.path)
            return false;
    }
    it->second.locked = true;
    return true;
}

bool
MemoryIo::truncateFd(int fd)
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = handles_.find(fd);
    if (it == handles_.end())
        return false;
    files_[it->second.path].clear();
    return true;
}

bool
MemoryIo::writeAllFd(int fd, const std::string &data)
{
    return write(fd, data.data(), data.size()) ==
        static_cast<long>(data.size());
}

std::string
hexDigest(const std::string &bytes)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(
                      rowhammer::util::fnv1a64(bytes)));
    return buf;
}

DigestTable
DigestTable::parse(const std::string &text)
{
    DigestTable table;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string workload, key, hex;
        if (line.empty() || line[0] == '#' || !(ls >> workload >> key >> hex))
            continue;
        table.entries_[{workload, key}] = hex;
    }
    return table;
}

const std::string *
DigestTable::find(const std::string &workload, const std::string &key) const
{
    const auto it = entries_.find({workload, key});
    return it == entries_.end() ? nullptr : &it->second;
}

bool
DigestGate::matches(const std::string &key, const std::string &digest)
{
    lines_.push_back(workload_ + " " + prefix_ + key + " " + digest);
    if (!reference_)
        return true;
    const std::string *want = reference_->find(workload_, prefix_ + key);
    return want && *want == digest;
}

void
DigestGate::count(long long attempted, long long failed)
{
    attempted_ += attempted;
    failed_ += failed;
}

} // namespace perfbench
