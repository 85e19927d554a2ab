/**
 * @file
 * The daemon's compute core: one task pool, one memo store, one
 * request at a time.
 *
 * The engine owns THE util::TaskPool of the process — every sweep,
 * baseline, and HCfirst search a request triggers runs on it, so a
 * daemon never oversubscribes the machine no matter how many clients
 * connect. Completed query results are memoized in a util::RunStore
 * (`<storeDir>/memo.rst`, advisory-locked) keyed by
 * fnv1a(request-type tag + config bytes); a repeated query is served
 * from the memo byte-identically without recomputing. A miss computes
 * through the normal checkpointed runners with checkpointPath =
 * storeDir, so even the MISS path shards its work into per-config
 * RunStore files — a daemon SIGKILLed mid-campaign resumes the same
 * query from its completed shards after restart.
 *
 * Failure mapping (the reason this layer exists):
 *   request deadline fires   -> Status::DeadlineExceeded
 *   SIGTERM drain cancels    -> Status::ShuttingDown
 *   config rejected/fatal    -> Status::InternalError with the message
 *   undecodable payload      -> Status::MalformedRequest
 *   framed type not served   -> Status::UnsupportedType
 *   rejected frame header    -> Status::MalformedRequest, and the
 *                               Server closes the connection (bad
 *                               magic, version, type or length)
 * No request outcome ever terminates the daemon.
 */

#ifndef ROWHAMMER_SERVICE_ENGINE_HH
#define ROWHAMMER_SERVICE_ENGINE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "service/protocol.hh"
#include "util/run_store.hh"
#include "util/taskpool.hh"

namespace rowhammer::util
{
class Io;
} // namespace rowhammer::util

namespace rowhammer::service
{

/** Engine configuration. */
struct EngineConfig
{
    /** Directory for the memo store and per-query shard checkpoints. */
    std::string storeDir;
    /** Pool width; 0 = one worker per hardware thread. */
    int threads = 0;
    /** Filesystem seam (tests inject faults); null = real FS. */
    util::Io *io = nullptr;
    /** Deadline cap in ms: a request may ask for less, never more
     *  (0 = no cap). Protects the daemon from a client-supplied
     *  multi-day deadline pinning the pool. */
    std::uint32_t maxDeadlineMs = 0;
};

/**
 * Memoized, deadline-bounded query evaluation. Thread-safe: handle()
 * may be called from many connection threads; compute is serialized
 * internally (cache probes are not).
 */
class Engine
{
  public:
    explicit Engine(EngineConfig config);

    /**
     * Evaluate one request payload (deadline prefix + config bytes)
     * and produce the full reply. Never throws.
     */
    [[nodiscard]] Reply handle(MsgType type, const std::string &payload);

    /**
     * Begin shutdown: the current batch stops claiming new shards
     * (finished shards are already checkpointed) and every subsequent
     * or in-flight compute returns Status::ShuttingDown. Safe to call
     * from any thread. flush() afterwards to sync the memo store.
     */
    void beginShutdown() { pool_.requestCancel(); }

    /** True once beginShutdown() was called. */
    [[nodiscard]] bool shuttingDown() const
    {
        return pool_.cancelRequested();
    }

    /** The memo store (tests assert on size/persistence). */
    util::RunStore &memo() { return *memo_; }

    /** The process-wide pool (tests and the server's drain). */
    util::TaskPool &pool() { return pool_; }

  private:
    /** Compute a memo miss; returns the result bytes via reply. */
    Reply compute(MsgType type, std::uint32_t deadline_ms,
                  const std::string &config_bytes);

    EngineConfig config_;
    util::TaskPool pool_;
    std::unique_ptr<util::RunStore> memo_;
    std::mutex computeMu_; ///< One compute at a time on the one pool.
};

/** The memo key of a request: fnv1a(type tag + config bytes). */
[[nodiscard]] std::uint64_t memoKey(MsgType type,
                                    const std::string &config_bytes);

} // namespace rowhammer::service

#endif // ROWHAMMER_SERVICE_ENGINE_HH
