// Deterministic schedule exploration for the concurrent core.
//
// A ScheduleController serializes the process onto one runnable thread at a
// time and decides, at every synchronization point, which thread runs next —
// driven entirely by a seeded PRNG. Each seed therefore names exactly one
// thread interleaving, and any interleaving that fails (deadlock, invariant
// violation, step-bound blowout) is replayed by re-running with the same
// seed. The scheduling policy is PCT (probabilistic concurrency testing):
// every thread gets a random priority at registration, the highest-priority
// runnable thread always runs, and at d randomly chosen step indices the
// running thread is demoted below everyone else. PCT finds any bug of
// "depth" d with probability >= 1/(n * k^(d-1)) per seed, so a few hundred
// seeds cover the shallow races that matter in practice.
//
// The controller sees the core through three funnels:
//
//   1. RankedMutex lock/unlock/try_lock (common/lock_rank.h) — every mutex
//      acquisition in the concurrent core is already routed through the
//      instrumented lock path, so mutex contention becomes a deterministic
//      block/wake decision instead of an OS race.
//   2. LOGLENS_SCHED_POINT("site") — explicit yield points at the core's
//      atomics, cv waits, and backoff sites. The sched::cv_* wrappers below
//      virtualize condition-variable waits; sched::sleep_for_* turns
//      sleeps into virtual-time delays so exploration never wall-clock
//      sleeps.
//   3. sched::spawn_named / sched::join — thread creation handshakes with
//      the controller so registration order (and therefore priority
//      assignment) is deterministic, and a join is a schedule decision.
//
// Everything is compiled out unless LOGLENS_SCHED_POINTS is 1 (defaults to
// the same Debug/ASan/TSan detection as LOGLENS_LOCK_RANK_CHECKS); when
// compiled in but no controller is attached, every hook is one relaxed
// atomic load. Release builds carry zero cost — the CI perf ratchet proves
// it.
//
// See docs/STATIC_ANALYSIS.md §5 for the model, the seed-replay workflow,
// and how this composes with lock ranks and TSan.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/clock.h"

// LOGLENS_SCHED_POINTS: 1 compiles the schedule-point hooks in, 0 removes
// them entirely (RankedMutex and LOGLENS_SCHED_POINT() compile to exactly
// the uninstrumented code). Same default detection as
// LOGLENS_LOCK_RANK_CHECKS: on for Debug and ASan/TSan builds, off
// otherwise. Do not force it per-target: the core libraries are compiled
// with the build-wide default, and a mismatch would be an ODR violation.
#ifndef LOGLENS_SCHED_POINTS
#if !defined(NDEBUG)
#define LOGLENS_SCHED_POINTS 1
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LOGLENS_SCHED_POINTS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define LOGLENS_SCHED_POINTS 1
#else
#define LOGLENS_SCHED_POINTS 0
#endif
#else
#define LOGLENS_SCHED_POINTS 0
#endif
#endif

namespace loglens {
namespace sched {

// True when this build compiled the schedule-point hooks into the core
// libraries. Non-inline on purpose: it reports how *sched.cpp* was built,
// which is the flavor that matters, regardless of the including TU's flags.
bool points_compiled_in();

struct Options {
  // The PRNG seed. One seed == one reproducible interleaving.
  uint64_t seed = 0;
  // d in the PCT model: how many random priority-change points to plant.
  // Bugs that need d ordered scheduling decisions to manifest are found
  // with d-1 change points; 3 covers the usual check-then-act races.
  int priority_change_points = 3;
  // The step window [1, horizon] the change points are drawn from. Should
  // be on the order of the scenario's expected step count.
  uint64_t change_point_horizon = 4000;
  // Hard bound on scheduling decisions; exceeding it is a failure (a
  // livelock or a runaway scenario), reported with the seed and trace.
  uint64_t max_steps = 200000;
  // Real-time backstop: if no scheduling decision happens for this long
  // (e.g. a thread blocked outside the controller's view never returns),
  // fail with a full dump instead of hanging until the ctest timeout.
  int64_t stall_timeout_ms = 60000;
};

// The schedule explorer. Test-only; one instance may be attached at a time.
//
//   ScheduleController c({.seed = 42});
//   c.attach();              // registers the calling thread as "main"
//   ... run the scenario: spawn threads with sched::spawn_named ...
//   c.detach();              // every spawned thread must have exited
//
// On deadlock / step-bound / stall the controller prints the seed, a
// per-thread state dump, and the schedule-trace tail to stderr (and to
// $LOGLENS_SCHED_FAILURE_FILE if set, for CI artifact upload), then aborts.
class ScheduleController {
 public:
  explicit ScheduleController(const Options& options);
  ~ScheduleController();

  ScheduleController(const ScheduleController&) = delete;
  ScheduleController& operator=(const ScheduleController&) = delete;

  // Installs this controller as the process-wide scheduler and registers
  // the calling thread. Aborts if another controller is attached or the
  // build compiled the hooks out (branch on points_compiled_in() first).
  // Also installs a virtual trace_clock source; restored by detach().
  void attach();

  // Uninstalls the controller. Every thread registered since attach() must
  // have finished; aborts (with a dump) otherwise.
  void detach();

  uint64_t seed() const;
  // Scheduling decisions made so far.
  uint64_t steps() const;
  // Order-sensitive hash of every scheduling decision; two runs of the
  // same seed over the same scenario must produce equal hashes (the
  // explorer test asserts this).
  uint64_t trace_hash() const;
  // Human-readable tail of the schedule trace (most recent last).
  std::string trace_tail(size_t max_entries) const;

  class Impl;
  // Internal surface for the instrumentation shims below.
  Impl& impl() { return *impl_; }

 private:
  std::unique_ptr<Impl> impl_;
};

namespace internal {

// The attached controller, or nullptr. Relaxed/acquire loads only: hooks
// observe attach/detach eventually; tests attach before spawning and
// detach after joining, so no hook races the transition.
extern std::atomic<ScheduleController*> g_active;

// Out-of-line hook bodies (sched.cpp) — defined unconditionally so every
// build flavor links, whichever way LOGLENS_SCHED_POINTS went per TU.
void point(ScheduleController* c, const char* site);
void mutex_lock(ScheduleController* c, std::mutex& mu, const void* id,
                int rank);
bool mutex_try_lock(ScheduleController* c, std::mutex& mu, const void* id,
                    int rank);
void mutex_unlocked(ScheduleController* c, const void* id);
void cv_prepare(ScheduleController* c, const void* cv);
void cv_block(ScheduleController* c, const void* cv);
void cv_block_for(ScheduleController* c, const void* cv, uint64_t rel_us);
void cv_notify(ScheduleController* c, const void* cv);
void sleep_virtual(ScheduleController* c, uint64_t us);
std::thread spawn(ScheduleController* c, std::string name,
                  std::function<void()> fn);
void join_wait(ScheduleController* c, std::thread::id id);

}  // namespace internal

// The attached controller, or nullptr (one relaxed atomic load).
inline ScheduleController* active() {
  return internal::g_active.load(std::memory_order_acquire);
}

// Sleeps `us` microseconds. Under an attached controller this is a virtual
// delay: the thread blocks until virtual time reaches the deadline, and
// virtual time only advances when no thread is runnable — so exploration
// never wall-clock sleeps. Under ScopedVirtualDelays (no controller) the
// delay is added to the clock offset and returns immediately. Otherwise it
// is a real sleep. This is the only sanctioned sleep in src/ — the lint
// bans std::this_thread::sleep_for/yield everywhere else so every blocking
// site is a schedule point.
void sleep_for_us(uint64_t us);
inline void sleep_for_ms(uint64_t ms) { sleep_for_us(ms * 1000); }

// Creates a thread the controller can schedule deterministically: the
// parent blocks until the child has registered (so registration order ==
// spawn order == priority-assignment order), then the child waits to be
// scheduled. Without an attached controller this is exactly
// std::thread(fn).
std::thread spawn_named(std::string name, std::function<void()> fn);

// Joins a thread made by spawn_named. Under a controller the caller blocks,
// as a schedule decision, until the thread has finished its function, and
// then joins it without giving up the run token, so real timing never
// reaches the schedule. A join on a thread that never finishes is reported
// as a deadlock; joining a thread the controller did not spawn aborts with
// a dump. Without a controller: thread.join().
void join(std::thread& thread);

// Controller-free virtual delays: while in scope, sched::sleep_for_* adds
// the delay to a process-wide trace_clock offset instead of sleeping, so
// fault-delay chaos tests stop burning real seconds but timestamps still
// move. Works in every build flavor (runtime switch, no macro). Not
// composable with an attached ScheduleController (which virtualizes time
// itself) — attach() wins if both are active.
class ScopedVirtualDelays {
 public:
  ScopedVirtualDelays();
  ~ScopedVirtualDelays();
  ScopedVirtualDelays(const ScopedVirtualDelays&) = delete;
  ScopedVirtualDelays& operator=(const ScopedVirtualDelays&) = delete;

  // Total microseconds of virtual delay consumed since process start
  // (test hook: proves the delay fault actually "slept").
  static uint64_t delayed_us();
};

// --- condition-variable shims ------------------------------------------
//
// Under a controller, a cv wait is: register as a waiter (while still
// holding the lockable — the controller serializes, so there is no lost
// wakeup between registering and blocking), release the lock, block until
// a sched::cv_notify_* or a virtual-time deadline readies us, then
// reacquire through the instrumented lock path (itself a schedule point,
// matching real post-wakeup lock contention). notify_one is treated as
// notify_all: every wait site rechecks its predicate in a loop, so the
// extra wakeups are legal spurious wakeups — and exploring them is the
// point. Without a controller these compile to the plain cv calls.

template <typename Cv, typename Lock>
void cv_wait(Cv& cv, Lock& lock) {
#if LOGLENS_SCHED_POINTS
  if (ScheduleController* c = active()) {
    internal::cv_prepare(c, &cv);
    lock.unlock();
    internal::cv_block(c, &cv);
    lock.lock();
    return;
  }
#endif
  cv.wait(lock);
}

template <typename Cv, typename Lock, typename Rep, typename Period>
void cv_wait_for(Cv& cv, Lock& lock,
                 std::chrono::duration<Rep, Period> timeout) {
#if LOGLENS_SCHED_POINTS
  if (ScheduleController* c = active()) {
    const auto us =
        std::chrono::duration_cast<std::chrono::microseconds>(timeout)
            .count();
    internal::cv_prepare(c, &cv);
    lock.unlock();
    internal::cv_block_for(c, &cv,
                           us > 0 ? static_cast<uint64_t>(us) : 0);
    lock.lock();
    return;
  }
#endif
  cv.wait_for(lock, timeout);
}

template <typename Cv>
void cv_notify_all(Cv& cv) {
#if LOGLENS_SCHED_POINTS
  if (ScheduleController* c = active()) internal::cv_notify(c, &cv);
#endif
  cv.notify_all();
}

template <typename Cv>
void cv_notify_one(Cv& cv) {
#if LOGLENS_SCHED_POINTS
  if (ScheduleController* c = active()) internal::cv_notify(c, &cv);
#endif
  cv.notify_one();
}

}  // namespace sched
}  // namespace loglens

// Explicit schedule point. Place at atomics, lock-free fast paths, and any
// site where "another thread runs here" is an interleaving worth
// exploring. `site` must be a string literal; it names the point in the
// schedule trace. No-op unless a controller is attached; compiles to
// nothing when LOGLENS_SCHED_POINTS is 0.
#if LOGLENS_SCHED_POINTS
#define LOGLENS_SCHED_POINT(site)                                       \
  do {                                                                  \
    if (::loglens::sched::ScheduleController* loglens_sched_c =         \
            ::loglens::sched::active()) {                               \
      ::loglens::sched::internal::point(loglens_sched_c, site);         \
    }                                                                   \
  } while (0)
#else
#define LOGLENS_SCHED_POINT(site) \
  do {                            \
  } while (0)
#endif
