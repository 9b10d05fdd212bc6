// The shared half of the parallel replay frontier: a pool of work items
// that left the worker that produced them.
//
// Each search worker keeps the items it produces on a private stack that
// no other thread touches, and pops them itself (src/replay/
// replay_engine.cc). Items cross between workers only through this pool:
//   - a worker whose stack ran dry blocks in Take() and, while it waits,
//     asks for a donation (Wanted());
//   - a busy worker sees the request at its next pop and pushes its
//     oldest item here (donation replaces stealing: only the owner ever
//     reads its own stack);
//   - producers outside the workers push here too (a shard's seed
//     frontier and re-balance imports), and a shard's pump takes items
//     for starved peers with TakeForPeer(), which raises a request for
//     whatever it could not find.
// Pops take the pool's back (newest first — depth-first, the paper's
// rule) or its front (oldest first — breadth/FIFO, the §3.2 ablation).
//
// Termination: Take() blocks while the pool is empty and some worker is
// still busy, because only a busy worker can produce. When every active
// worker waits in Take() at once, nothing can be produced again and the
// search is over; Close() ends it early (first-crash-wins cancellation,
// the run cap, a shard's kStop). One mutex guards the pool: items cross
// it only on a donation or an import, far apart next to the runs
// (solver call + interpreter run) between them.
//
// Size accounting covers the private stacks too: workers report their
// pushes and pops with AddResident(), so size() and peak() describe the
// whole frontier.
#ifndef RETRACE_SUPPORT_WORKQUEUE_H_
#define RETRACE_SUPPORT_WORKQUEUE_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "src/support/common.h"

namespace retrace {

enum class PopOrder {
  kNewestFirst,  // Depth-first: continue the deepest path.
  kOldestFirst,  // FIFO: widen the search.
};

/// \brief Shared donation pool with termination detection (see the file
/// comment for the discipline).
///
/// **Thread safety:** every method is safe from any thread. **Ownership:**
/// the pool owns pushed items until taken; the creator must keep it alive
/// until every worker returned from its final Take()/Retire().
///
/// **Lifecycle contract:** construct with the worker count, then each
/// worker must call Retire() exactly once on exit — termination
/// detection counts active workers, and a missing Retire() leaves the
/// remaining workers blocked in Take() forever.
template <typename T>
class DonationPool {
 public:
  explicit DonationPool(size_t num_workers) : active_(num_workers) {}

  /// Adds one item. Safe before the workers start (a shard's seed
  /// frontier is pushed this way).
  void Push(T item) { Add(std::move(item), /*only_if_open=*/false); }

  /// Push that refuses once the pool is closed (checked under the same
  /// lock, so there is no close/push race). A closed pool will never be
  /// taken from again — external producers must learn their item was NOT
  /// accepted so they can re-home it instead of losing it.
  bool PushIfOpen(T item) { return Add(std::move(item), /*only_if_open=*/true); }

  /// Takes one item for a worker whose own stack is empty, raising a
  /// donation request while it waits. Blocks while the pool is empty but
  /// some worker is still busy. Returns false when the search is over:
  /// every active worker is waiting here at once, or Close() was called.
  bool Take(PopOrder order, T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (closed_.load(std::memory_order_relaxed)) {
        return false;
      }
      if (!items_.empty()) {
        *out = TakeLocked(order);
        return true;
      }
      ++waiting_;
      if (waiting_ >= active_) {
        // Every still-active worker is here and the pool is empty:
        // nothing can ever be produced again. Wake the other waiters so
        // they observe the close.
        closed_.store(true, std::memory_order_relaxed);
        cv_.notify_all();
        return false;
      }
      UpdateWantLocked();
      cv_.wait(lock, [this] {
        return !items_.empty() || closed_.load(std::memory_order_relaxed);
      });
      --waiting_;
      UpdateWantLocked();
    }
  }

  /// Non-blocking Take(): false at once when the pool is empty or closed.
  /// Raises no request. Costs one atomic load when the pool is empty.
  bool TryTake(PopOrder order, T* out) {
    if (pooled_.load(std::memory_order_relaxed) == 0) {
      return false;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_.load(std::memory_order_relaxed) || items_.empty()) {
      return false;
    }
    *out = TakeLocked(order);
    return true;
  }

  /// Takes up to `max_items` of the newest pooled items for a starved
  /// peer, never shrinking the whole frontier (private stacks included)
  /// below `min_keep`. Whatever of that share the pool could not supply
  /// is raised as a donation request, so the next call finds it. Returns
  /// the count — always 0 once the pool is closed: a closed frontier
  /// will never be popped again (first-crash-wins or termination), so
  /// carving work off it for a peer would only ship work the fleet has
  /// already decided not to do.
  size_t TakeForPeer(size_t max_items, size_t min_keep, std::vector<T>* out) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_.load(std::memory_order_relaxed)) {
      return 0;
    }
    const u64 total = total_.load(std::memory_order_relaxed);
    const size_t spare = total > min_keep ? static_cast<size_t>(total - min_keep) : 0;
    const size_t share = std::min(max_items, spare);
    size_t taken = 0;
    while (taken < share && !items_.empty()) {
      out->push_back(TakeLocked(PopOrder::kNewestFirst));
      ++taken;
    }
    peer_want_ = share - taken;
    UpdateWantLocked();
    return taken;
  }

  /// True while someone waits for a donation the pool cannot supply. A
  /// relaxed atomic load: workers check it on every pop.
  bool Wanted() const { return want_.load(std::memory_order_relaxed); }

  /// Counts `delta` items onto (or off) the workers' private stacks.
  void AddResident(i64 delta) { Count(delta); }

  /// Registers an external producer (e.g. the distributed re-balance
  /// pump, which may inject work into an otherwise drained frontier).
  /// While registered, termination detection treats it like one more
  /// active worker, so an empty pool with every worker waiting does NOT
  /// end the search — the producer might still Push(). Balance every
  /// AddProducer() with exactly one Retire(), or the workers block
  /// forever.
  void AddProducer() {
    std::lock_guard<std::mutex> lock(mu_);
    ++active_;
  }

  /// Items in the frontier: pooled plus on the workers' stacks.
  size_t size() const { return static_cast<size_t>(total_.load(std::memory_order_relaxed)); }

  /// Ends the search: every blocked and future Take() returns false.
  /// Callable from any thread — first-crash-wins cancellation and a
  /// shard's FrontierPort::Cancel both use it.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_.store(true, std::memory_order_relaxed);
    }
    cv_.notify_all();
  }

  /// True once the search is over (Close(), or termination detected).
  /// Workers check it between pops of their own stacks.
  bool closed() const { return closed_.load(std::memory_order_relaxed); }

  /// Permanently removes one worker (or producer) from termination
  /// accounting. Call exactly once per exiting worker; without this the
  /// remaining workers could block in Take() forever waiting for a
  /// producer that already left.
  void Retire() {
    bool close = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      Check(active_ > 0, "DonationPool: Retire underflow");
      --active_;
      close = items_.empty() && waiting_ >= active_;
      if (close) {
        closed_.store(true, std::memory_order_relaxed);
      }
    }
    if (close) {
      cv_.notify_all();
    }
  }

  /// High-water mark of size().
  u64 peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  bool Add(T item, bool only_if_open) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (only_if_open && closed_.load(std::memory_order_relaxed)) {
        return false;
      }
      items_.push_back(std::move(item));
      pooled_.store(items_.size(), std::memory_order_relaxed);
      Count(1);
      UpdateWantLocked();
    }
    cv_.notify_one();
    return true;
  }

  T TakeLocked(PopOrder order) {
    T item;
    if (order == PopOrder::kNewestFirst) {
      item = std::move(items_.back());
      items_.pop_back();
    } else {
      item = std::move(items_.front());
      items_.pop_front();
    }
    pooled_.store(items_.size(), std::memory_order_relaxed);
    Count(-1);
    UpdateWantLocked();
    return item;
  }

  // Requests outstanding: waiting workers plus the peer's shortfall,
  // less what the pool already holds for them.
  void UpdateWantLocked() {
    want_.store(waiting_ + peer_want_ > items_.size(), std::memory_order_relaxed);
  }

  void Count(i64 delta) {
    const u64 now = total_.fetch_add(static_cast<u64>(delta), std::memory_order_relaxed) +
                    static_cast<u64>(delta);
    u64 peak = peak_.load(std::memory_order_relaxed);
    while (now > peak && !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  size_t waiting_ = 0;
  size_t active_ = 0;
  size_t peer_want_ = 0;
  std::atomic<bool> closed_{false};
  std::atomic<bool> want_{false};
  std::atomic<size_t> pooled_{0};
  std::atomic<u64> total_{0};
  std::atomic<u64> peak_{0};
};

}  // namespace retrace

#endif  // RETRACE_SUPPORT_WORKQUEUE_H_
