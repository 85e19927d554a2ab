#include "io.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace rowhammer::util
{

namespace
{

class PosixIo : public Io
{
  public:
    int
    openForWrite(const std::string &path) override
    {
        return ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    }

    long
    write(int fd, const void *buf, std::size_t count) override
    {
        return static_cast<long>(::write(fd, buf, count));
    }

    bool fsyncFd(int fd) override { return ::fsync(fd) == 0; }

    bool closeFd(int fd) override { return ::close(fd) == 0; }

    bool
    renameFile(const std::string &from, const std::string &to) override
    {
        return ::rename(from.c_str(), to.c_str()) == 0;
    }

    bool
    readFile(const std::string &path, std::string &out) override
    {
        std::ifstream in(path, std::ios::binary);
        if (!in)
            return false;
        std::ostringstream buf;
        buf << in.rdbuf();
        out = buf.str();
        return !in.bad();
    }

    bool
    makeDirs(const std::string &path) override
    {
        if (path.empty())
            return false;
        std::string partial;
        std::size_t pos = 0;
        while (pos <= path.size()) {
            const std::size_t slash = path.find('/', pos);
            partial = slash == std::string::npos
                ? path
                : path.substr(0, slash);
            pos = slash == std::string::npos ? path.size() + 1
                                             : slash + 1;
            if (partial.empty())
                continue; // Leading '/'.
            if (::mkdir(partial.c_str(), 0755) != 0) {
                struct stat st;
                if (::stat(partial.c_str(), &st) != 0 ||
                    !S_ISDIR(st.st_mode))
                    return false;
            }
        }
        return true;
    }

    bool
    removeFile(const std::string &path) override
    {
        return ::unlink(path.c_str()) == 0;
    }

    bool
    fileExists(const std::string &path) override
    {
        struct stat st;
        return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
    }

    int
    openLockFile(const std::string &path) override
    {
        return ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    }

    bool
    tryLockExclusive(int fd) override
    {
        return ::flock(fd, LOCK_EX | LOCK_NB) == 0;
    }

    bool
    truncateFd(int fd) override
    {
        return ::ftruncate(fd, 0) == 0;
    }

    bool
    writeAllFd(int fd, const std::string &data) override
    {
        std::size_t written = 0;
        while (written < data.size()) {
            const long n = static_cast<long>(::write(
                fd, data.data() + written, data.size() - written));
            if (n <= 0)
                return false;
            written += static_cast<std::size_t>(n);
        }
        return true;
    }

    bool
    appendFile(const std::string &path, const std::string &bytes) override
    {
        const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
        if (fd < 0)
            return false;
        const bool ok = writeAllFd(fd, bytes) && ::fsync(fd) == 0;
        return ::close(fd) == 0 && ok;
    }
};

} // namespace

bool
Io::appendFile(const std::string &path, const std::string &bytes)
{
    std::string contents;
    if (!readFile(path, contents))
        return false;
    contents += bytes;
    return atomicWriteFile(*this, path, contents);
}

Io &
Io::system()
{
    static PosixIo io;
    return io;
}

bool
atomicWriteFile(Io &io, const std::string &path, const std::string &data)
{
    const std::string tmp = path + ".tmp";
    const int fd = io.openForWrite(tmp);
    if (fd < 0)
        return false;

    // Loop over short writes; any error abandons the temp file, which
    // leaves the real file untouched.
    std::size_t written = 0;
    bool ok = true;
    while (written < data.size()) {
        const long n = io.write(fd, data.data() + written,
                                data.size() - written);
        if (n <= 0) {
            ok = false;
            break;
        }
        written += static_cast<std::size_t>(n);
    }
    if (ok)
        ok = io.fsyncFd(fd);
    if (!io.closeFd(fd))
        ok = false;
    if (ok)
        ok = io.renameFile(tmp, path);
    if (!ok)
        io.removeFile(tmp);
    return ok;
}

int
FaultInjectingIo::openForWrite(const std::string &path)
{
    if (failOpen)
        return -1;
    return base_.openForWrite(path);
}

std::size_t
FaultInjectingIo::writeBudget(std::size_t count) const
{
    if (failAfterBytes >= 0 && bytesWritten_ >= failAfterBytes)
        return 0; // Disk full.
    std::size_t capped = count;
    if (shortWriteLimit >= 0) {
        capped = std::min(capped,
                          static_cast<std::size_t>(shortWriteLimit));
    }
    if (failAfterBytes >= 0) {
        capped = std::min(capped, static_cast<std::size_t>(
                                      failAfterBytes - bytesWritten_));
    }
    return capped;
}

long
FaultInjectingIo::write(int fd, const void *buf, std::size_t count)
{
    ++writeCalls_;
    const std::size_t capped = writeBudget(count);
    if (failAfterBytes >= 0 && capped == 0)
        return -1; // Disk full.
    const long n = base_.write(fd, buf, capped);
    if (n > 0)
        bytesWritten_ += n;
    return n;
}

bool
FaultInjectingIo::fsyncFd(int fd)
{
    if (failFsync)
        return false;
    return base_.fsyncFd(fd);
}

bool
FaultInjectingIo::closeFd(int fd)
{
    return base_.closeFd(fd);
}

bool
FaultInjectingIo::renameFile(const std::string &from,
                             const std::string &to)
{
    if (failRename)
        return false;
    return base_.renameFile(from, to);
}

bool
FaultInjectingIo::readFile(const std::string &path, std::string &out)
{
    return base_.readFile(path, out);
}

bool
FaultInjectingIo::makeDirs(const std::string &path)
{
    return base_.makeDirs(path);
}

bool
FaultInjectingIo::removeFile(const std::string &path)
{
    return base_.removeFile(path);
}

bool
FaultInjectingIo::fileExists(const std::string &path)
{
    return base_.fileExists(path);
}

int
FaultInjectingIo::openLockFile(const std::string &path)
{
    if (failLockOpen)
        return -1;
    return base_.openLockFile(path);
}

bool
FaultInjectingIo::tryLockExclusive(int fd)
{
    if (failLock)
        return false;
    return base_.tryLockExclusive(fd);
}

bool
FaultInjectingIo::truncateFd(int fd)
{
    return base_.truncateFd(fd);
}

bool
FaultInjectingIo::writeAllFd(int fd, const std::string &data)
{
    return base_.writeAllFd(fd, data);
}

bool
FaultInjectingIo::appendFile(const std::string &path,
                             const std::string &bytes)
{
    if (failOpen)
        return false;
    std::size_t done = 0;
    while (done < bytes.size()) {
        ++writeCalls_;
        const std::size_t n = writeBudget(bytes.size() - done);
        if (n == 0 || !base_.appendFile(path, bytes.substr(done, n)))
            return false; // What landed so far stays: a torn tail.
        bytesWritten_ += static_cast<long>(n);
        done += n;
    }
    return !failFsync;
}

} // namespace rowhammer::util
