#include "gm/par/thread_pool.hh"

#include "gm/obs/trace.hh"
#include "gm/support/env.hh"
#include "gm/support/log.hh"
#include "gm/support/timer.hh"
#include "gm/support/watchdog.hh"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace gm::par
{

namespace
{

thread_local bool tls_in_parallel = false;
thread_local int tls_serial_region = 0;
thread_local LaneLease* tls_lease = nullptr;

/**
 * Execute @p job on @p lane under the session generation @p job_gen that
 * the submitting thread observed.  Carrying the generation through the
 * pool (instead of letting lanes read the global) means a lane still
 * unwinding from a watchdog-abandoned trial keeps writing under its dead
 * generation and can never pollute the next trial's session.  When a
 * session is active, each lane's execution is recorded as a "par.lane"
 * span plus its busy nanoseconds, from which the suite and gm::serve
 * derive parallel efficiency.
 */
void
run_lane(FunctionRef<void(int)> job, int lane, std::uint64_t job_gen)
{
    obs::SessionBinding bind(job_gen);
    if (job_gen == 0) {
        job(lane);
        return;
    }
    obs::ScopedSpan span("par.lane");
    const std::int64_t begin_ns = Timer::now_ns();
    job(lane);
    obs::counter_add(
        "par.busy_ns",
        static_cast<std::uint64_t>(Timer::now_ns() - begin_ns));
}

/** Longest a leased lane polls for its next job, or an owner for its
 *  join, before blocking.  Covers the serial gaps between the forks of
 *  one kernel (a BFS step's frontier swap, a Gauss–Seidel block switch)
 *  and no more: on a 4-core KVM guest, 50 µs spins cut width-8
 *  serve_bench throughput by a third against 5 µs, while gap-suite
 *  timings did not move. */
constexpr std::int64_t kSpinNs = 5'000;

inline void
cpu_relax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/** Poll @p ready for up to kSpinNs; true once it holds. */
template <typename Ready>
bool
spin_until(Ready&& ready)
{
    const std::int64_t deadline = Timer::now_ns() + kSpinNs;
    for (;;) {
        for (int i = 0; i < 32; ++i) {
            if (ready())
                return true;
            cpu_relax();
        }
        if (Timer::now_ns() > deadline)
            return false;
    }
}

/** CPUs the process may run on (its affinity mask), at least 1. */
int
allowed_cpus()
{
#ifdef __linux__
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return CPU_COUNT(&set) > 0 ? CPU_COUNT(&set) : 1;
#endif
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

/** Pin the calling thread to @p cpu modulo the online-CPU count. */
void
pin_to_cpu(int cpu)
{
#ifdef __linux__
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<unsigned>(cpu) % hw, &set);
    pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
    (void)cpu;
#endif
}

} // namespace

ThreadPool::ThreadPool(int num_threads)
{
    if (num_threads <= 0) {
        unsigned hw = std::thread::hardware_concurrency();
        num_threads = hw == 0 ? 1 : static_cast<int>(hw);
    }
    num_threads_ = num_threads;
    pin_threads_ = env_int("GM_PIN_THREADS", 0) != 0;
    allowed_cpus_ = allowed_cpus();
    const int worker_count = num_threads_ - 1;
    assignment_.assign(static_cast<std::size_t>(worker_count), nullptr);
    lane_id_.assign(static_cast<std::size_t>(worker_count), 0);
    free_.reserve(static_cast<std::size_t>(worker_count));
    workers_.reserve(static_cast<std::size_t>(worker_count));
    for (int slot = 0; slot < worker_count; ++slot) {
        free_.push_back(slot);
        workers_.emplace_back([this, slot] { worker_loop(slot); });
    }
    if (pin_threads_) {
        // Pin the constructing thread to core 0.  This placement is only
        // meaningful for single-client measurement runs (suite, bench),
        // where the first-touch thread is the one that submits every job
        // and so really is lane 0 of every lease; under concurrent lane
        // leasing (gm::serve) lease owners are arbitrary threads and only
        // the worker lanes below keep a topology-stable pin.
        pin_to_cpu(0);
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    start_cv_.notify_all();
    for (auto& worker : workers_)
        worker.join();
}

ThreadPool&
ThreadPool::instance()
{
    static ThreadPool pool(static_cast<int>(env_int("GM_THREADS", 0)));
    return pool;
}

bool
ThreadPool::may_spin() const
{
    return leased_lanes_.load(std::memory_order_relaxed) <= allowed_cpus_;
}

bool
ThreadPool::in_parallel_region()
{
    return tls_in_parallel;
}

bool
ThreadPool::in_serial_region()
{
    return tls_serial_region > 0;
}

int
ThreadPool::current_width()
{
    if (tls_in_parallel || tls_serial_region > 0)
        return 1;
    if (tls_lease != nullptr)
        return tls_lease->width();
    return instance().num_threads();
}

SerialRegion::SerialRegion()
{
    ++tls_serial_region;
}

SerialRegion::~SerialRegion()
{
    --tls_serial_region;
}

LaneLease*
LaneLease::current()
{
    return tls_lease;
}

LaneLease::LaneLease(int width)
{
    // Inside a lane, a SerialRegion, or an enclosing lease: adopt the
    // context instead of acquiring (run() consults the innermost owner).
    if (tls_in_parallel || tls_serial_region > 0) {
        adopted_ = true;
        width_ = 1;
        return;
    }
    if (tls_lease != nullptr) {
        adopted_ = true;
        width_ = tls_lease->width();
        return;
    }
    ThreadPool& pool = ThreadPool::instance();
    if (width > pool.num_threads())
        width = pool.num_threads();
    if (width < 1)
        width = 1;
    state_.lanes_held = pool.acquire_workers(width - 1, &state_);
    state_.width = 1 + state_.lanes_held;
    width_ = state_.width;
    pool.leased_lanes_.fetch_add(width_, std::memory_order_relaxed);
    tls_lease = this;
}

LaneLease::~LaneLease()
{
    if (adopted_)
        return;
    tls_lease = nullptr;
    ThreadPool& pool = ThreadPool::instance();
    pool.leased_lanes_.fetch_sub(width_, std::memory_order_relaxed);
    if (state_.lanes_held == 0)
        return;
    {
        std::lock_guard<std::mutex> lock(state_.mu);
        state_.released.store(true);
    }
    state_.cv.notify_all();
    // Wait until every worker has fully detached (and re-queued itself as
    // free) before the state goes out of scope.  The handshake runs on
    // the pool's own mutex/cv: a worker's final act is an increment and
    // notify under pool.mutex_, so once the predicate holds — observable
    // only after that worker released pool.mutex_ — no worker touches
    // state_ (or any lease memory) again, and it can safely be destroyed.
    std::unique_lock<std::mutex> lock(pool.mutex_);
    pool.detach_cv_.wait(
        lock, [this] { return state_.returned == state_.lanes_held; });
}

int
ThreadPool::acquire_workers(int want, detail::LeaseState* state)
{
    if (want <= 0)
        return 0;
    int got = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        while (got < want && !free_.empty()) {
            const int slot = free_.back();
            free_.pop_back();
            assignment_[static_cast<std::size_t>(slot)] = state;
            lane_id_[static_cast<std::size_t>(slot)] = 1 + got;
            ++got;
        }
    }
    if (got > 0)
        start_cv_.notify_all();
    return got;
}

int
ThreadPool::run(FunctionRef<void(int)> job)
{
    if (tls_in_parallel || tls_serial_region > 0) {
        // Nested parallelism (or an explicit serial region) degrades to
        // serial execution on this thread; its time is already inside the
        // outer lane's busy span / the request's execute span.
        job(0);
        return 1;
    }
    if (tls_lease == nullptr) {
        // Ephemeral lease over whatever is free right now; released when
        // this fork joins.  Long-lived lease holders (serve requests)
        // amortize this acquisition over many forks.
        LaneLease ephemeral(num_threads_);
        return run(job);
    }
    detail::LeaseState& state = tls_lease->state_;
    const std::uint64_t job_gen = obs::current_session_gen();
    const int width = tls_lease->width();
    if (job_gen != 0)
        obs::counter_max("par.lanes", static_cast<std::uint64_t>(width));
    if (width == 1) {
        tls_in_parallel = true;
        try {
            run_lane(job, 0, job_gen);
        } catch (...) {
            tls_in_parallel = false;
            throw;
        }
        tls_in_parallel = false;
        return 1;
    }

    // Publish the job: the slot is plain data, ordered before the lanes'
    // reads by the job_seq bump.  The bump and the sleepers load are both
    // seq_cst, pairing with serve_lease's sleepers increment and job_seq
    // load: either this load sees a worker about to block, or that worker
    // sees the new job_seq before it blocks.
    state.job = job;
    state.cancel = support::current_cancel_token();
    state.obs_gen = job_gen;
    state.pending.store(width - 1, std::memory_order_relaxed);
    state.job_seq.fetch_add(1);
    if (state.sleepers.load() > 0) {
        { std::lock_guard<std::mutex> lock(state.mu); }
        state.cv.notify_all();
    }

    tls_in_parallel = true;
    try {
        run_lane(job, 0, job_gen);
    } catch (...) {
        // Join the lanes before unwinding: they reference the job.
        tls_in_parallel = false;
        join(state);
        throw;
    }
    tls_in_parallel = false;
    join(state);
    return width;
}

void
ThreadPool::join(detail::LeaseState& state)
{
    // owner_waiting and pending pair like sleepers and job_seq in run():
    // the lane that makes pending 0 notifies whenever this store is
    // visible to it, and otherwise the predicate below already sees 0.
    const auto joined = [&state] { return state.pending.load() == 0; };
    if (may_spin() && spin_until(joined))
        return;
    std::unique_lock<std::mutex> lock(state.mu);
    state.owner_waiting.store(true);
    state.done_cv.wait(lock, joined);
    state.owner_waiting.store(false, std::memory_order_relaxed);
}

void
ThreadPool::serve_lease(detail::LeaseState& state, int lane)
{
    std::uint64_t seen_seq = 0;
    const auto ready = [&] {
        return state.released.load() || state.job_seq.load() != seen_seq;
    };
    for (;;) {
        if (!(may_spin() && spin_until(ready))) {
            std::unique_lock<std::mutex> lock(state.mu);
            state.sleepers.fetch_add(1);
            state.cv.wait(lock, ready);
            state.sleepers.fetch_sub(1, std::memory_order_relaxed);
        }
        // The owner releases only after the last job joined, and this lane
        // marks each job seen before running it: released here means no
        // job is outstanding.
        if (state.released.load())
            return;
        seen_seq = state.job_seq.load();
        {
            support::ScopedCancelToken scope(state.cancel);
            tls_in_parallel = true;
            run_lane(state.job, lane, state.obs_gen);
            tls_in_parallel = false;
        }
        if (state.pending.fetch_sub(1) == 1 && state.owner_waiting.load()) {
            std::lock_guard<std::mutex> lock(state.mu);
            state.done_cv.notify_all();
        }
    }
}

void
ThreadPool::worker_loop(int slot)
{
    if (pin_threads_)
        pin_to_cpu(slot + 1);
    for (;;) {
        detail::LeaseState* state = nullptr;
        int lane = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            start_cv_.wait(lock, [&] {
                return shutdown_ ||
                       assignment_[static_cast<std::size_t>(slot)] !=
                           nullptr;
            });
            if (shutdown_)
                return;
            state = assignment_[static_cast<std::size_t>(slot)];
            lane = lane_id_[static_cast<std::size_t>(slot)];
        }
        serve_lease(*state, lane);
        {
            // Re-queue as free and tell the releasing owner this lane is
            // fully detached, in one pool-lock critical section.  The
            // increment and notify deliberately use the pool's mutex/cv,
            // not the lease's: ~LaneLease destroys the LeaseState as soon
            // as it observes returned == lanes_held, and it cannot observe
            // that until this lock is released — after which this thread
            // never touches the state again.  (Notifying through
            // lease-owned state after the final increment would race that
            // destruction: the notify itself touches the state.)
            std::lock_guard<std::mutex> lock(mutex_);
            assignment_[static_cast<std::size_t>(slot)] = nullptr;
            free_.push_back(slot);
            ++state->returned;
            detach_cv_.notify_all();
        }
    }
}

} // namespace gm::par
