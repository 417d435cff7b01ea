/**
 * @file
 * Persistent lane-leasing thread pool.
 *
 * This is the single parallel substrate shared by every framework analogue in
 * the repository, standing in for the OpenMP / TBB / cilk runtimes the
 * evaluated frameworks use.  Keeping one substrate is the reproduction of the
 * paper's "same hardware for every framework" control.
 *
 * Model: the pool owns N-1 worker threads ("lanes" 1..N-1; the submitting
 * thread is always lane 0).  Work is executed under a LaneLease — an RAII
 * grant of K disjoint lanes.  A thread holding a lease forks jobs onto
 * exactly its leased lanes, so two threads holding disjoint leases run
 * genuinely in parallel instead of serializing on a global job slot; this
 * is what lets gm::serve execute several multi-lane requests at once.
 * Threads without a lease get an ephemeral one per fork (best-effort over
 * the currently free workers), so anything that forks more than a few
 * times — a harness trial, a serve leader, a plan node — holds one lease
 * around the whole kernel instead.  Nested run() calls from inside a lane
 * degrade to serial execution on that lane, which keeps composed
 * algorithms correct.
 *
 * Hand-off: inside a lease a fork is a few cache-line transfers.  The
 * owner writes the job slot and bumps LeaseState::job_seq (release); each
 * leased lane polls job_seq with a pause instruction for a bounded spin
 * (kSpinNs in thread_pool.cc) before it blocks on the lease's cv, and the
 * join is an atomic countdown of `pending` that the owner polls the same
 * way before it blocks on done_cv.  A sleeper is only notified when one
 * announced itself (sleepers / owner_waiting), so a fork between spinning
 * lanes takes no lock.  A wait spins only while the lanes of every live
 * lease, owners included, fit the CPUs the process may run on
 * (sched_getaffinity): with more, a spinning lane would steal the core of
 * a lane it waits for, or of another lease's owner, so every wait blocks
 * at once.  That covers GM_THREADS above the core count and concurrent
 * serve leaders alike.  Workers outside any lease always block at once,
 * so an ephemeral lease leaves no spinning cores behind once released.
 *
 * Lifetime: a LeaseState lives in its owner's LaneLease.  Workers touch
 * it until they increment `returned` (under the pool's mutex) on detach,
 * and never after; ~LaneLease waits for every increment before the state
 * goes away.
 *
 * Determinism contract: nothing above this layer may depend on how many
 * lanes a lease actually granted.  parallel_reduce partitions work on a
 * fixed chunk grid (a function of the iteration count only) and combines
 * in chunk order, and every kernel is written so racy updates converge to
 * order-independent fixpoints — so results are bit-identical at any
 * GM_THREADS and any lease width.
 *
 * Set GM_PIN_THREADS=1 to pin worker lanes to cores round-robin
 * (topology-aware placement for measurement runs).  The thread that
 * constructs the pool is pinned to core 0 as well, which is only
 * meaningful for single-client measurement runs (suite, bench) where one
 * thread submits every job for the life of the process; under concurrent
 * lane leasing (gm::serve) lease owners are arbitrary threads — only the
 * worker lanes keep a topology-stable pin there.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "gm/par/function_ref.hh"

namespace gm::support
{
class CancelToken;
} // namespace gm::support

namespace gm::par
{

class LaneLease;

namespace detail
{

/** Shared fork-join state of one lease: the owner dispatches jobs into it,
 *  the leased workers execute them until released.  The spinning fields
 *  sit on two cache lines: the owner writes the first (job slot and
 *  sequence), the lanes write the second (join countdown). */
struct LeaseState
{
    std::mutex mu;
    std::condition_variable cv;      ///< sleeping workers wait for jobs
    std::condition_variable done_cv; ///< a sleeping owner waits for joins

    /** Bumped once per dispatched job, after the job slot below is
     *  written; a lane that sees it change may read the slot. */
    alignas(64) std::atomic<std::uint64_t> job_seq{0};
    std::atomic<bool> released{false};
    std::atomic<int> sleepers{0}; ///< workers blocked (or blocking) on cv
    FunctionRef<void(int)> job;
    const support::CancelToken* cancel = nullptr;
    std::uint64_t obs_gen = 0;

    alignas(64) std::atomic<int> pending{0}; ///< lanes still running the job
    std::atomic<bool> owner_waiting{false};  ///< owner blocked on done_cv

    int width = 1;       ///< granted lanes, including the owner's lane 0
    int lanes_held = 0;  ///< pool workers attached (width - 1)
    /** Workers fully detached and back in the pool.  Guarded by the
     *  pool's mutex_ (NOT mu): the detach handshake must run entirely on
     *  pool-owned synchronization, because the releasing owner destroys
     *  this state the instant the last detach is observed — a worker
     *  touching lease-owned mu/cv after its increment would race that
     *  destruction. */
    int returned = 0;
};

} // namespace detail

/** Lane-leasing fork-join pool; ThreadPool::instance() is process-wide. */
class ThreadPool
{
  public:
    /** @param num_threads Lane count; 0 means hardware_concurrency. */
    explicit ThreadPool(int num_threads = 0);

    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Process-wide pool; size taken from GM_THREADS or the hardware. */
    static ThreadPool& instance();

    /** Number of lanes (including the caller's lane). */
    int num_threads() const { return num_threads_; }

    /**
     * Run @p job on the calling thread's lanes and wait for completion.
     *
     * @param job Non-owning callable receiving the lane id in [0, width).
     * @return The width actually used (every lane id passed was < it).
     *
     * Under an active LaneLease the job runs on exactly the leased lanes;
     * without one an ephemeral lease over the currently free workers is
     * taken for the duration of the call.  A call made while the caller
     * is already inside a pool job, or while a SerialRegion is active on
     * the calling thread, degrades to serial execution on that thread.
     */
    int run(FunctionRef<void(int)> job);

    /** True when the calling thread is currently inside a pool job. */
    static bool in_parallel_region();

    /** True when a SerialRegion is active on the calling thread. */
    static bool in_serial_region();

    /**
     * Width a run() from this thread would use right now: 1 inside a
     * lane or a SerialRegion, the lease width under a LaneLease, and the
     * full lane count otherwise (an upper bound there — an ephemeral
     * lease may be granted fewer if other leases hold workers; SPMD
     * kernels that size shared state by lane count must hold their own
     * LaneLease and use its width()).
     */
    static int current_width();

  private:
    friend class LaneLease;
    friend class SerialRegion;

    void worker_loop(int slot);
    /** Run jobs for @p state on lease lane @p lane until released. */
    void serve_lease(detail::LeaseState& state, int lane);
    /** Wait until @p state's lanes have all finished the current job. */
    void join(detail::LeaseState& state);
    /** Assign up to @p want free workers to @p state; returns the count
     *  granted.  Lease lane ids are handed out from 1 upward. */
    int acquire_workers(int want, detail::LeaseState* state);

    /** Waits may spin: the lanes of every live lease, owners included,
     *  fit the CPUs the process may run on. */
    bool may_spin() const;

    int num_threads_;
    bool pin_threads_ = false;
    int allowed_cpus_ = 1; ///< CPUs in the process's affinity mask
    /** Lanes of live leases, each owner's lane 0 included: the threads
     *  that may be running or waiting for pool work right now. */
    std::atomic<int> leased_lanes_{0};
    std::vector<std::thread> workers_;

    std::mutex mutex_; ///< guards free_, assignment_, shutdown_, and
                       ///< every LeaseState::returned
    std::condition_variable start_cv_;
    /** Signals lease detachments to ~LaneLease.  Pool-owned (it outlives
     *  every lease) so workers never notify through lease memory. */
    std::condition_variable detach_cv_;
    std::vector<int> free_;                         ///< free worker slots
    std::vector<detail::LeaseState*> assignment_;   ///< per-slot lease
    std::vector<int> lane_id_;                      ///< per-slot lease lane
    bool shutdown_ = false;
};

/**
 * RAII grant of up to @p width lanes (the constructing thread's lane 0
 * plus up to width-1 pool workers held exclusively until destruction).
 * All parallel primitives called on this thread while the lease is alive
 * execute on exactly these lanes, so concurrent lease holders proceed in
 * parallel on disjoint workers.
 *
 * Acquisition is best-effort: width() reports what was actually granted
 * (at least 1 — the owner always has its own lane).  Results never depend
 * on the granted width (see the determinism contract above), only speed
 * does.  Constructing a lease while one is already active on the thread
 * (or inside a pool lane / SerialRegion) adopts the enclosing context
 * instead of acquiring: width() reports the enclosing width and
 * destruction releases nothing.
 */
class LaneLease
{
  public:
    explicit LaneLease(int width);
    ~LaneLease();

    LaneLease(const LaneLease&) = delete;
    LaneLease& operator=(const LaneLease&) = delete;

    /** Lanes this thread's parallel work runs on (1 = serial). */
    int width() const { return width_; }

    /** The calling thread's innermost owned lease, or null. */
    static LaneLease* current();

  private:
    friend class ThreadPool;

    detail::LeaseState state_;
    int width_ = 1;
    bool adopted_ = false;
};

/**
 * RAII: while alive on the constructing thread, every parallel primitive
 * (ThreadPool::run, parallel_for, parallel_reduce, ...) degrades to serial
 * execution on that thread instead of forking onto the shared pool.
 *
 * Unlike the implicit nested-run degrade, cancellation inside a serial
 * region still *throws* CancelledError at the outermost level — the region
 * marks "this thread is one lane of some higher-level concurrency", not
 * "we are inside a pool job whose boundary exceptions must not cross".
 * Regions nest; the thread returns to normal forking behaviour when the
 * outermost region is destroyed.  (gm::serve used to pin every request
 * under one of these; requests now take a LaneLease of their declared
 * width instead, and a width-1 lease is the exact serial equivalent.)
 */
class SerialRegion
{
  public:
    SerialRegion();
    ~SerialRegion();

    SerialRegion(const SerialRegion&) = delete;
    SerialRegion& operator=(const SerialRegion&) = delete;
};

} // namespace gm::par
