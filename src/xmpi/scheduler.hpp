// FiberScheduler — bounded worker pool multiplexing simulated ranks over
// user-level stacks.
//
// Each rank runs on its own ucontext fiber, and N host workers (N ≈ cores,
// not ranks) pull runnable fibers from a FIFO ready queue. Fiber stacks
// are leased from the process-wide StackPool *lazily at first dispatch*
// and returned the moment the rank's body finishes, so a 100k-rank run
// whose ranks mostly wait holds stacks only for the ranks actually
// in flight, and successive rank waves recycle the same few mappings
// (see stackpool.hpp). Every stack has 512 KiB of usable, lazily
// committed space; runs of up to 8192 ranks give each stack its own guard
// page, larger runs use one guard per slab to stay under
// vm.max_map_count.
//
// When a rank blocks in Mailbox::match / a collective, its fiber *parks*:
// it switches back to the worker's scheduler context, freeing the worker
// to run another rank. A matching post (or World::abort) *wakes* it —
// re-queues the fiber so any worker can resume it where it left off. This keeps host thread
// count bounded at paper-scale rank counts (1296 ranks ⇒ N threads, not
// 1296) and removes per-message thundering-herd wakeups.
//
// Park/wake uses a two-phase handshake so the two may race freely:
// park() switches to the worker *without* taking the scheduler lock; the
// worker then completes the Running→Parked transition under the lock, and
// a wake() that arrived in the gap is recorded as `wake_pending` and
// converted into an immediate re-queue. A wake() on an already-runnable
// fiber is a no-op beyond that flag, and the mailbox retry loop absorbs
// spurious resumes.
//
// Determinism note: the scheduler decides only *host* interleaving. All
// simulated time/energy outputs derive from per-rank virtual clocks and
// message arrival stamps, so results are bit-identical for any worker
// count — see docs/xmpi.md for the full contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "trace/hardware_context.hpp"
#include "xmpi/mailbox.hpp"

namespace plin::xmpi {

class FiberScheduler {
 public:
  struct Task {
    /// Runs on the rank's fiber. Must not let exceptions escape (the
    /// runtime wraps rank_main in its own catch-all).
    std::function<void()> body;
    /// Hardware context bound to the host worker for the duration of every
    /// dispatch of this task, so measurement reads follow the rank across
    /// workers.
    const trace::HardwareContext* hw = nullptr;
  };

  struct Options {
    /// Host worker threads; 0 → std::thread::hardware_concurrency().
    /// Always clamped to the task count.
    std::size_t workers = 0;
    /// Invoked (without scheduler locks) when every unfinished rank is
    /// parked — a simulated-communication deadlock. Expected to unwedge
    /// the ranks, e.g. World::abort, which wakes every parked receiver
    /// with Aborted.
    std::function<void()> on_deadlock;
  };

  FiberScheduler(std::vector<Task> tasks, Options options);
  ~FiberScheduler();

  FiberScheduler(const FiberScheduler&) = delete;
  FiberScheduler& operator=(const FiberScheduler&) = delete;

  /// The parking strategy of task `index`, for Mailbox::set_parker.
  /// Pointers stay valid for the scheduler's lifetime.
  Mailbox::Parker* parker(std::size_t index);

  /// Runs every task to completion (blocking). Callable once.
  void run();

  /// True if run() hit the all-parked condition and fired on_deadlock.
  bool deadlocked() const { return deadlock_; }

  /// Worker threads run() will use.
  std::size_t worker_count() const { return workers_; }

  /// Host-side scheduler counters over the whole run: fiber park
  /// transitions (a rank yielding its worker) and wake() calls. Purely
  /// host diagnostics — the values depend on worker count and host timing,
  /// so they are surfaced in RunResult but never enter a canonical trace.
  std::uint64_t park_count() const;
  std::uint64_t wake_count() const;

  struct RankFiber;  // opaque in the header; defined in scheduler.cpp

 private:
  void worker_loop();
  void dispatch(RankFiber& fiber, void* worker_tsan);

  std::vector<RankFiber> fibers_;
  std::size_t workers_ = 1;
  /// Stack guard geometry every fiber leases from the StackPool.
  bool guard_stacks_ = true;
  std::function<void()> on_deadlock_;

  // Ready-queue state; every field below is guarded by the queue mutex in
  // scheduler.cpp (kept out of the header with the fiber internals).
  struct QueueState;
  QueueState* queue_ = nullptr;
  bool deadlock_ = false;
};

}  // namespace plin::xmpi
