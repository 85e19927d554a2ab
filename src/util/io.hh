/**
 * @file
 * Filesystem seam for the crash-safety layer. Everything RunStore does
 * to disk goes through a util::Io instance, so tests can inject the
 * failures real campaigns hit — short writes, ENOSPC, fsync failure,
 * unreadable files — and prove the store degrades to recompute-with-a-
 * warning instead of crashing or silently corrupting results.
 *
 * The production implementation (Io::system()) is plain POSIX. There
 * are two write paths. atomicWriteFile() writes the full contents to
 * `<path>.tmp`, fsyncs, closes and renames over `<path>` — rename(2)
 * is atomic on POSIX, so a reader (or a resumed run after SIGKILL)
 * sees either the old complete file or the new complete file, never a
 * torn one. appendFile() adds bytes to the end of an existing file and
 * fsyncs; a crash mid-append can leave a torn tail, which the caller's
 * format must detect (RunStore's CRC frames do).
 */

#ifndef ROWHAMMER_UTIL_IO_HH
#define ROWHAMMER_UTIL_IO_HH

#include <cstddef>
#include <string>

namespace rowhammer::util
{

/**
 * Abstract filesystem primitives. Write-side calls mirror POSIX
 * semantics: write() may be short (the caller loops), and any call may
 * fail. Implementations must be safe to call from multiple threads.
 */
class Io
{
  public:
    virtual ~Io() = default;

    /** Open (create/truncate) a file for writing; -1 on failure. */
    [[nodiscard]] virtual int openForWrite(const std::string &path) = 0;

    /** write(2): bytes written (possibly short), or -1 on failure. */
    [[nodiscard]] virtual long write(int fd, const void *buf,
                                     std::size_t count) = 0;

    /** fsync(2); false on failure. */
    [[nodiscard]] virtual bool fsyncFd(int fd) = 0;

    /** close(2); false on failure. */
    [[nodiscard]] virtual bool closeFd(int fd) = 0;

    /** rename(2); false on failure. */
    [[nodiscard]] virtual bool renameFile(const std::string &from,
                                          const std::string &to) = 0;

    /** Read a whole file; false if missing or unreadable. */
    [[nodiscard]] virtual bool readFile(const std::string &path,
                                        std::string &out) = 0;

    /** mkdir -p; false if a component cannot be created. */
    [[nodiscard]] virtual bool makeDirs(const std::string &path) = 0;

    /** unlink(2); false on failure (missing file is failure too). */
    [[nodiscard]] virtual bool removeFile(const std::string &path) = 0;

    /** stat(2): true iff the path names an existing regular file. */
    [[nodiscard]] virtual bool fileExists(const std::string &path) = 0;

    /**
     * Open (create, do NOT truncate) a lock file for advisory locking;
     * -1 on failure. Kept separate from openForWrite so a failed lock
     * attempt can still read the holder's identity out of the file.
     */
    [[nodiscard]] virtual int openLockFile(const std::string &path) = 0;

    /**
     * flock(2) LOCK_EX | LOCK_NB on an openLockFile() fd. False when
     * another holder (any process, or another fd in this one) has it.
     * The lock dies with the fd — a SIGKILLed holder frees it
     * automatically, which is the whole point of flock over lockfiles.
     */
    [[nodiscard]] virtual bool tryLockExclusive(int fd) = 0;

    /** ftruncate(2) to zero, so the holder description can be
     *  rewritten in place without dropping the lock. */
    [[nodiscard]] virtual bool truncateFd(int fd) = 0;

    /** write(2) that loops internally; false on any failure. Used for
     *  the lock-holder description (not the atomic-write path). */
    [[nodiscard]] virtual bool writeAllFd(int fd,
                                          const std::string &data) = 0;

    /**
     * Append `bytes` to the existing file `path` and make them durable
     * (fsync); false on any failure, including a missing file — an
     * append never creates a file. A failure may leave a prefix of
     * `bytes` behind. The default goes through the other virtuals
     * (readFile, then atomicWriteFile of old + bytes): correct for any
     * Io, but O(file size); Io::system() appends in place.
     */
    [[nodiscard]] virtual bool appendFile(const std::string &path,
                                          const std::string &bytes);

    /** The process-wide POSIX implementation. */
    static Io &system();
};

/**
 * Atomically replace `path` with `data` via write-temp-then-rename
 * (see file comment). Returns false — after removing the temp file —
 * if any primitive fails; `path` is untouched in that case.
 */
[[nodiscard]] bool atomicWriteFile(Io &io, const std::string &path,
                                   const std::string &data);

/**
 * Test double wrapping another Io with an injectable fault plan.
 * Faults target the write paths; reads pass through unchanged.
 * appendFile() applies the same plan as write(): the bytes go to the
 * base Io's appendFile in chunks of at most shortWriteLimit (each one
 * a write call), stop at failAfterBytes (leaving the torn prefix on
 * disk), and failOpen/failFsync fail the append before/after the
 * bytes land.
 */
class FaultInjectingIo : public Io
{
  public:
    explicit FaultInjectingIo(Io &base) : base_(base) {}

    /** Cap per-write() byte counts (forces callers to loop). */
    int shortWriteLimit = -1;
    /** Fail writes (ENOSPC-style) after this many bytes total. */
    long failAfterBytes = -1;
    bool failFsync = false;
    bool failRename = false;
    bool failOpen = false;
    /** Pretend another process holds every advisory lock. */
    bool failLock = false;
    /** Fail to open/create lock files (read-only dir): callers must
     *  degrade to running unguarded, not die. */
    bool failLockOpen = false;

    long bytesWritten() const { return bytesWritten_; }
    int writeCalls() const { return writeCalls_; }

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
    [[nodiscard]] bool appendFile(const std::string &path,
                                  const std::string &bytes) override;

  private:
    /** Bytes the fault plan lets one write of `count` bytes through:
     *  capped by shortWriteLimit and failAfterBytes, 0 = disk full. */
    std::size_t writeBudget(std::size_t count) const;

    Io &base_;
    long bytesWritten_ = 0;
    int writeCalls_ = 0;
};

} // namespace rowhammer::util

#endif // ROWHAMMER_UTIL_IO_HH
