#include "common/sched.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/lock_rank.h"
#include "common/rng.h"

namespace loglens {
namespace sched {

namespace internal {
std::atomic<ScheduleController*> g_active{nullptr};
}  // namespace internal

bool points_compiled_in() { return LOGLENS_SCHED_POINTS != 0; }

namespace {

// Virtual time while a controller is attached (trace_clock source).
std::atomic<uint64_t> g_virtual_now_us{0};

uint64_t virtual_now_us() {
  return g_virtual_now_us.load(std::memory_order_relaxed);
}

// Controller-free virtual-delay mode (ScopedVirtualDelays).
std::atomic<int> g_delay_mode{0};
std::atomic<uint64_t> g_delay_offset_us{0};
std::atomic<uint64_t> g_delay_total_us{0};

uint64_t offset_now_us() {
  return trace_clock::internal::real_now_us() +
         g_delay_offset_us.load(std::memory_order_relaxed);
}

enum class State {
  kRunning,       // holds the run token
  kReady,         // runnable, waiting to be chosen
  kBlockedMutex,  // waiting for a RankedMutex held by another thread
  kBlockedCv,     // waiting for a cv notify (or a virtual deadline)
  kSleeping,      // virtual sleep until deadline_us
  kBlockedJoin,   // in sched::join, waiting for join_target to finish
  kFinished,
};

const char* state_name(State s) {
  switch (s) {
    case State::kRunning: return "running";
    case State::kReady: return "ready";
    case State::kBlockedMutex: return "blocked-mutex";
    case State::kBlockedCv: return "blocked-cv";
    case State::kSleeping: return "sleeping";
    case State::kBlockedJoin: return "blocked-join";
    case State::kFinished: return "finished";
  }
  return "?";
}

struct ThreadRec {
  std::string name;
  uint64_t reg_index = 0;
  uint64_t priority = 0;
  State state = State::kReady;
  const char* site = "start";       // last schedule point this thread hit
  const void* wait_mutex = nullptr;
  int wait_rank = 0;
  const void* wait_cv = nullptr;
  const void* armed_cv = nullptr;   // between cv_prepare and cv_block
  bool cv_signaled = false;
  bool has_deadline = false;
  uint64_t deadline_us = 0;
  std::thread::id os_id;                 // the OS thread that registered
  const ThreadRec* join_target = nullptr;  // while kBlockedJoin
};

struct TraceEntry {
  uint64_t step = 0;
  const ThreadRec* chosen = nullptr;
  const char* from_site = "-";  // the yielder's site at decision time
};

// Registration cache: which controller instance this thread registered
// with. The epoch disambiguates a new Impl allocated at a freed one's
// address (controllers are created/destroyed once per seed).
struct TlsSlot {
  void* impl = nullptr;
  ThreadRec* rec = nullptr;
  uint64_t epoch = 0;
};
thread_local TlsSlot tls_slot;

std::atomic<uint64_t> g_epoch_counter{0};

uint64_t fnv1a(uint64_t h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr size_t kTraceRing = 512;

}  // namespace

class ScheduleController::Impl {
 public:
  Impl(ScheduleController* owner, const Options& opts)
      : owner_(owner),
        opts_(opts),
        epoch_(g_epoch_counter.fetch_add(1) + 1),
        rng_(opts.seed) {
    const uint64_t horizon = std::max<uint64_t>(1, opts_.change_point_horizon);
    for (int i = 0; i < opts_.priority_change_points; ++i) {
      change_points_.push_back(1 + rng_.below(horizon));
    }
    std::sort(change_points_.begin(), change_points_.end());
    demote_next_ = static_cast<uint64_t>(
        std::max(0, opts_.priority_change_points));
  }

  void attach() {
    if (!points_compiled_in()) {
      die("sched: attach() in a build with LOGLENS_SCHED_POINTS compiled "
          "out; branch on sched::points_compiled_in() first");
    }
    ScheduleController* expected = nullptr;
    if (!internal::g_active.compare_exchange_strong(expected, owner_)) {
      die("sched: a ScheduleController is already attached");
    }
    std::unique_lock<std::mutex> lk(mu_);
    g_virtual_now_us.store(trace_clock::internal::real_now_us(),
                           std::memory_order_relaxed);
    prev_clock_ = trace_clock::internal::source().load();
    trace_clock::set_source(&virtual_now_us);
    ThreadRec* me = register_locked("main");
    me->state = State::kRunning;
    current_ = me;
    touch_progress_locked();
  }

  void detach() {
    std::unique_lock<std::mutex> lk(mu_);
    ThreadRec* me = self_or_null();
    if (me == nullptr || current_ != me) {
      fail_locked("detach() from a thread that does not hold the run token");
    }
    for (const ThreadRec& r : recs_) {
      if (&r != me && r.state != State::kFinished) {
        fail_locked("detach() while a registered thread is still live");
      }
    }
    internal::g_active.store(nullptr, std::memory_order_release);
    trace_clock::set_source(prev_clock_);
    me->state = State::kFinished;
    current_ = nullptr;
    tls_slot = TlsSlot{};
  }

  uint64_t seed() const { return opts_.seed; }

  uint64_t steps() const {
    std::unique_lock<std::mutex> lk(mu_);
    return steps_;
  }

  uint64_t trace_hash() const {
    std::unique_lock<std::mutex> lk(mu_);
    return hash_;
  }

  std::string trace_tail(size_t max_entries) const {
    std::unique_lock<std::mutex> lk(mu_);
    return trace_tail_locked(max_entries);
  }

  // --- hook bodies ------------------------------------------------------

  void yield(const char* site) {
    std::unique_lock<std::mutex> lk(mu_);
    ThreadRec* me = self(lk);
    me->site = site;
    me->state = State::kReady;
    yield_common(me, lk);
  }

  void acquire_mutex(std::mutex& mu, const void* id, int rank) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      ThreadRec* me = self(lk);
      me->site = lock_rank::rank_name(rank);
      me->state = State::kReady;
      yield_common(me, lk);  // preemption point before the acquisition
    }
    while (!mu.try_lock()) {
      std::unique_lock<std::mutex> lk(mu_);
      ThreadRec* me = self(lk);
      me->state = State::kBlockedMutex;
      me->wait_mutex = id;
      me->wait_rank = rank;
      yield_common(me, lk);
    }
  }

  bool try_mutex(std::mutex& mu, const void* id, int rank) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      ThreadRec* me = self(lk);
      me->site = lock_rank::rank_name(rank);
      me->state = State::kReady;
      yield_common(me, lk);
    }
    (void)id;
    return mu.try_lock();
  }

  void mutex_unlocked(const void* id) {
    std::unique_lock<std::mutex> lk(mu_);
    bool woke = false;
    for (ThreadRec& r : recs_) {
      if (r.state == State::kBlockedMutex && r.wait_mutex == id) {
        r.state = State::kReady;
        r.wait_mutex = nullptr;
        woke = true;
      }
    }
    if (woke && current_ == nullptr) schedule_locked(nullptr);
  }

  void cv_prepare(const void* cv) {
    std::unique_lock<std::mutex> lk(mu_);
    ThreadRec* me = self(lk);
    me->armed_cv = cv;
    me->cv_signaled = false;
  }

  void cv_block(const void* cv, bool timed, uint64_t rel_us) {
    std::unique_lock<std::mutex> lk(mu_);
    ThreadRec* me = self(lk);
    me->armed_cv = nullptr;
    me->site = "cv.wait";
    if (me->cv_signaled) {
      me->state = State::kReady;
    } else {
      me->state = State::kBlockedCv;
      me->wait_cv = cv;
      me->has_deadline = timed;
      if (timed) {
        me->deadline_us =
            g_virtual_now_us.load(std::memory_order_relaxed) + rel_us;
      }
    }
    yield_common(me, lk);
  }

  void cv_notify(const void* cv) {
    std::unique_lock<std::mutex> lk(mu_);
    bool woke = false;
    for (ThreadRec& r : recs_) {
      if (r.armed_cv == cv) r.cv_signaled = true;
      if (r.state == State::kBlockedCv && r.wait_cv == cv) {
        r.state = State::kReady;
        r.wait_cv = nullptr;
        r.has_deadline = false;
        woke = true;
      }
    }
    if (woke && current_ == nullptr) schedule_locked(nullptr);
  }

  void sleep_virtual(uint64_t us) {
    std::unique_lock<std::mutex> lk(mu_);
    ThreadRec* me = self(lk);
    me->site = "sleep";
    me->state = State::kSleeping;
    me->has_deadline = true;
    me->deadline_us = g_virtual_now_us.load(std::memory_order_relaxed) + us;
    yield_common(me, lk);
  }

  std::thread spawn(std::string name, std::function<void()> fn) {
    auto started = std::make_shared<std::atomic<bool>>(false);
    std::thread t(
        [this, name = std::move(name), fn = std::move(fn), started]() {
          {
            std::unique_lock<std::mutex> lk(mu_);
            ThreadRec* me = register_locked(name);
            started->store(true, std::memory_order_release);
            cv_.notify_all();
            wait_scheduled(me, lk);
          }
          fn();
          thread_exit();
        });
    // Parent (the token holder) blocks until the child has registered, so
    // registration order — and therefore priority assignment — is exactly
    // spawn order, independent of OS thread startup latency.
    std::unique_lock<std::mutex> lk(mu_);
    while (!started->load(std::memory_order_acquire)) cv_.wait(lk);
    return t;
  }

  // Blocks the caller, as a schedule decision, until the thread registered
  // from OS thread `id` has finished. A joinable thread's id is unique, so
  // the newest record with it is that thread's.
  void join_wait(std::thread::id id) {
    std::unique_lock<std::mutex> lk(mu_);
    ThreadRec* me = self(lk);
    const ThreadRec* target = nullptr;
    for (const ThreadRec& r : recs_) {
      if (r.os_id == id) target = &r;
    }
    if (target == nullptr) {
      fail_locked("sched::join of a thread not made by spawn_named under "
                  "this controller");
    }
    if (target->state == State::kFinished) return;
    me->site = "thread.join";
    me->state = State::kBlockedJoin;
    me->join_target = target;
    yield_common(me, lk);
  }

  void thread_exit() {
    std::unique_lock<std::mutex> lk(mu_);
    ThreadRec* me = self_or_null();
    if (me == nullptr) return;
    me->state = State::kFinished;
    tls_slot = TlsSlot{};
    for (ThreadRec& r : recs_) {
      if (r.state == State::kBlockedJoin && r.join_target == me) {
        r.state = State::kReady;
        r.join_target = nullptr;
      }
    }
    if (current_ == me) schedule_locked(nullptr);
  }

 private:
  ThreadRec* self_or_null() {
    if (tls_slot.impl == this && tls_slot.epoch == epoch_) {
      return tls_slot.rec;
    }
    return nullptr;
  }

  // The calling thread's record, registering it on first contact. In
  // normal use every thread arrives via attach() or spawn(); registration
  // here is a fallback so an unexpected thread fails loudly in the dump
  // (as "anon-N") instead of corrupting state.
  ThreadRec* self(std::unique_lock<std::mutex>&) {
    ThreadRec* me = self_or_null();
    if (me != nullptr) return me;
    return register_locked("anon-" + std::to_string(recs_.size()));
  }

  ThreadRec* register_locked(std::string name) {
    recs_.emplace_back();
    ThreadRec& r = recs_.back();
    r.name = std::move(name);
    r.os_id = std::this_thread::get_id();
    r.reg_index = recs_.size() - 1;
    // PCT initial priorities live strictly above every demotion value
    // (demotions hand out d, d-1, ..., 1).
    r.priority = demote_floor() + 1 + rng_.next() % 1000000000ULL;
    r.state = State::kReady;
    tls_slot = TlsSlot{this, &r, epoch_};
    cv_.notify_all();
    return &r;
  }

  uint64_t demote_floor() const {
    return static_cast<uint64_t>(std::max(0, opts_.priority_change_points));
  }

  // me's state has been set by the caller (ready / blocked / sleeping).
  // Advances the schedule if this thread held the token (or nobody does),
  // then blocks until this thread is chosen to run.
  void yield_common(ThreadRec* me, std::unique_lock<std::mutex>& lk) {
    if (current_ == me) {
      schedule_locked(me);
    } else if (current_ == nullptr) {
      schedule_locked(nullptr);
    }
    wait_scheduled(me, lk);
  }

  void wait_scheduled(ThreadRec* me, std::unique_lock<std::mutex>& lk) {
    while (current_ != me) {
      if (cv_.wait_for(lk, std::chrono::milliseconds(250)) ==
          std::cv_status::timeout) {
        // Self-heal: if the schedule went idle while we became runnable
        // (a wake delivered by a thread the controller does not manage),
        // restart it.
        if (current_ == nullptr && me->state == State::kReady) {
          schedule_locked(nullptr);
          continue;
        }
        check_stall_locked();
      }
    }
    me->state = State::kRunning;
    me->wait_mutex = nullptr;
    me->wait_cv = nullptr;
    me->has_deadline = false;
  }

  // The heart of the explorer: one scheduling decision. Called with mu_
  // held by the token holder (yielder), or with yielder == nullptr when
  // the token is free (idle wake, thread exit).
  void schedule_locked(ThreadRec* yielder) {
    ++steps_;
    if (steps_ > opts_.max_steps) {
      fail_locked("step bound exceeded (livelock, or raise max_steps)");
    }
    // PCT priority-change point: demote the yielding thread below every
    // initial priority, so a lower-priority thread preempts it here.
    if (yielder != nullptr && next_change_ < change_points_.size() &&
        steps_ >= change_points_[next_change_]) {
      yielder->priority = demote_next_ > 0 ? demote_next_-- : 0;
      ++next_change_;
    }
    for (;;) {
      ThreadRec* best = nullptr;
      for (ThreadRec& r : recs_) {
        if (r.state != State::kReady) continue;
        if (best == nullptr || r.priority > best->priority ||
            (r.priority == best->priority &&
             r.reg_index < best->reg_index)) {
          best = &r;
        }
      }
      if (best != nullptr) {
        current_ = best;
        record_decision_locked(yielder, best);
        cv_.notify_all();
        return;
      }
      // Nobody runnable: advance virtual time to the earliest deadline.
      uint64_t min_deadline = UINT64_MAX;
      for (const ThreadRec& r : recs_) {
        if ((r.state == State::kSleeping ||
             (r.state == State::kBlockedCv && r.has_deadline)) &&
            r.deadline_us < min_deadline) {
          min_deadline = r.deadline_us;
        }
      }
      if (min_deadline != UINT64_MAX) {
        uint64_t now = g_virtual_now_us.load(std::memory_order_relaxed);
        if (min_deadline > now) {
          g_virtual_now_us.store(min_deadline, std::memory_order_relaxed);
          now = min_deadline;
        }
        for (ThreadRec& r : recs_) {
          if ((r.state == State::kSleeping ||
               (r.state == State::kBlockedCv && r.has_deadline)) &&
              r.deadline_us <= now) {
            r.state = State::kReady;
            r.wait_cv = nullptr;
            r.has_deadline = false;
          }
        }
        continue;
      }
      bool any_live = false;
      for (const ThreadRec& r : recs_) {
        if (r.state != State::kFinished) {
          any_live = true;
          break;
        }
      }
      if (!any_live) {
        current_ = nullptr;
        cv_.notify_all();
        return;
      }
      fail_locked("deadlock: every live thread is blocked");
    }
  }

  void record_decision_locked(const ThreadRec* yielder,
                              const ThreadRec* chosen) {
    TraceEntry& e = trace_[trace_next_++ % kTraceRing];
    e.step = steps_;
    e.chosen = chosen;
    e.from_site = yielder != nullptr ? yielder->site : "-";
    hash_ = fnv1a(hash_, &steps_, sizeof(steps_));
    hash_ = fnv1a(hash_, &chosen->reg_index, sizeof(chosen->reg_index));
    hash_ = fnv1a(hash_, e.from_site, std::char_traits<char>::length(e.from_site));
    touch_progress_locked();
  }

  void touch_progress_locked() {
    last_progress_real_us_ = trace_clock::internal::real_now_us();
  }

  void check_stall_locked() {
    const uint64_t now = trace_clock::internal::real_now_us();
    const uint64_t limit =
        static_cast<uint64_t>(opts_.stall_timeout_ms) * 1000;
    if (opts_.stall_timeout_ms > 0 &&
        now - last_progress_real_us_ > limit) {
      fail_locked("stall: no scheduling progress within the timeout "
                  "(a thread is blocked outside the controller's view)");
    }
  }

  std::string trace_tail_locked(size_t max_entries) const {
    const size_t have = std::min<size_t>(trace_next_, kTraceRing);
    const size_t n = std::min(max_entries, have);
    std::string out;
    for (size_t i = have - n; i < have; ++i) {
      const TraceEntry& e =
          trace_[(trace_next_ - have + i) % kTraceRing];
      out += "    step ";
      out += std::to_string(e.step);
      out += ": run ";
      out += e.chosen->name;
      out += " (after ";
      out += e.from_site;
      out += ")\n";
    }
    return out;
  }

  [[noreturn]] void fail_locked(const char* reason) {
    std::string report = "\nloglens sched: FAILURE: ";
    report += reason;
    report += "\n  seed=";
    report += std::to_string(opts_.seed);
    report += " steps=";
    report += std::to_string(steps_);
    report += "\n  replay: LOGLENS_SCHED_SEED=";
    report += std::to_string(opts_.seed);
    report += " ./sched_explorer_test  (or --sched-seed=";
    report += std::to_string(opts_.seed);
    report += ")\n  threads:\n";
    for (const ThreadRec& r : recs_) {
      report += "    ";
      report += r.name;
      report += ": ";
      report += state_name(r.state);
      report += " @ ";
      report += r.site;
      if (r.state == State::kBlockedMutex) {
        report += " waiting on ";
        report += lock_rank::rank_name(r.wait_rank);
      }
      report += "\n";
    }
    report += "  schedule tail:\n";
    report += trace_tail_locked(48);
    die(report.c_str());
  }

  [[noreturn]] static void die(const char* msg) {
    std::fputs(msg, stderr);
    std::fputc('\n', stderr);
    // NOLINTNEXTLINE(concurrency-mt-unsafe): abort path, already fatal.
    if (const char* path = std::getenv("LOGLENS_SCHED_FAILURE_FILE")) {
      if (std::FILE* f = std::fopen(path, "ae")) {
        std::fputs(msg, f);
        std::fputc('\n', f);
        std::fclose(f);
      }
    }
    std::abort();
  }

  ScheduleController* const owner_;
  const Options opts_;
  const uint64_t epoch_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Rng rng_;
  std::deque<ThreadRec> recs_;  // stable addresses
  ThreadRec* current_ = nullptr;
  uint64_t steps_ = 0;
  uint64_t hash_ = 0xcbf29ce484222325ULL;
  std::vector<uint64_t> change_points_;
  size_t next_change_ = 0;
  uint64_t demote_next_ = 0;
  TraceEntry trace_[kTraceRing];
  size_t trace_next_ = 0;
  uint64_t last_progress_real_us_ = 0;
  trace_clock::NowFn prev_clock_ = nullptr;
};

ScheduleController::ScheduleController(const Options& options)
    : impl_(new Impl(this, options)) {}

ScheduleController::~ScheduleController() = default;

void ScheduleController::attach() { impl_->attach(); }
void ScheduleController::detach() { impl_->detach(); }
uint64_t ScheduleController::seed() const { return impl_->seed(); }
uint64_t ScheduleController::steps() const { return impl_->steps(); }
uint64_t ScheduleController::trace_hash() const {
  return impl_->trace_hash();
}
std::string ScheduleController::trace_tail(size_t max_entries) const {
  return impl_->trace_tail(max_entries);
}

namespace internal {

void point(ScheduleController* c, const char* site) {
  c->impl().yield(site);
}
void mutex_lock(ScheduleController* c, std::mutex& mu, const void* id,
                int rank) {
  c->impl().acquire_mutex(mu, id, rank);
}
bool mutex_try_lock(ScheduleController* c, std::mutex& mu, const void* id,
                    int rank) {
  return c->impl().try_mutex(mu, id, rank);
}
void mutex_unlocked(ScheduleController* c, const void* id) {
  c->impl().mutex_unlocked(id);
}
void cv_prepare(ScheduleController* c, const void* cv) {
  c->impl().cv_prepare(cv);
}
void cv_block(ScheduleController* c, const void* cv) {
  c->impl().cv_block(cv, /*timed=*/false, 0);
}
void cv_block_for(ScheduleController* c, const void* cv, uint64_t rel_us) {
  c->impl().cv_block(cv, /*timed=*/true, rel_us);
}
void cv_notify(ScheduleController* c, const void* cv) {
  c->impl().cv_notify(cv);
}
void sleep_virtual(ScheduleController* c, uint64_t us) {
  c->impl().sleep_virtual(us);
}
std::thread spawn(ScheduleController* c, std::string name,
                  std::function<void()> fn) {
  return c->impl().spawn(std::move(name), std::move(fn));
}
void join_wait(ScheduleController* c, std::thread::id id) {
  c->impl().join_wait(id);
}

}  // namespace internal

void sleep_for_us(uint64_t us) {
  if (points_compiled_in()) {
    if (ScheduleController* c = active()) {
      internal::sleep_virtual(c, us);
      return;
    }
  }
  if (g_delay_mode.load(std::memory_order_acquire) > 0) {
    g_delay_offset_us.fetch_add(us, std::memory_order_relaxed);
    g_delay_total_us.fetch_add(us, std::memory_order_relaxed);
    return;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

std::thread spawn_named(std::string name, std::function<void()> fn) {
  if (points_compiled_in()) {
    if (ScheduleController* c = active()) {
      return internal::spawn(c, std::move(name), std::move(fn));
    }
  }
  return std::thread(std::move(fn));
}

void join(std::thread& thread) {
  if (points_compiled_in()) {
    if (ScheduleController* c = active()) {
      internal::join_wait(c, thread.get_id());
    }
  }
  thread.join();
}

ScopedVirtualDelays::ScopedVirtualDelays() {
  if (g_delay_mode.fetch_add(1, std::memory_order_acq_rel) == 0) {
    trace_clock::set_source(&offset_now_us);
  }
}

ScopedVirtualDelays::~ScopedVirtualDelays() {
  if (g_delay_mode.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    trace_clock::set_source(nullptr);
  }
}

uint64_t ScopedVirtualDelays::delayed_us() {
  return g_delay_total_us.load(std::memory_order_relaxed);
}

}  // namespace sched
}  // namespace loglens
