// MPMC work-stealing frontier for the parallel replay scheduler.
//
// Each worker owns a deque (its DFS stack). Owners push to the back and
// pop either the back (newest first — depth-first, the paper's rule) or
// the front (oldest first — breadth/FIFO, the §3.2 ablation). A worker
// whose deque is empty steals the *front* of another worker's deque: the
// oldest, shallowest entry, i.e. the root of the largest untouched
// subtree — the classic work-stealing discipline that keeps thieves out
// of the owner's hot end.
//
// Pop() blocks when the whole frontier is empty, because a busy worker may
// still publish more work. Termination is detected when every worker is
// blocked in Pop() at once (nobody is running, so nobody can produce), or
// when Close() is called (first-crash-wins cancellation). A single mutex
// guards all deques: frontier operations are microseconds apart while the
// work items between them (solver call + interpreter run) are milliseconds,
// so contention is irrelevant and the simple design is provably safe.
#ifndef RETRACE_SUPPORT_WORKQUEUE_H_
#define RETRACE_SUPPORT_WORKQUEUE_H_

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

/// \brief MPMC work-stealing frontier (see the file comment for the
/// scheduling discipline).
///
/// **Thread safety:** every method is safe from any thread; one mutex
/// guards all deques (see the file comment for why that is the right
/// trade). **Ownership:** the queue owns pushed items until popped;
/// the creator must keep the queue alive until every worker returned
/// from its final Pop()/Retire().
///
/// **Lifecycle contract:** construct with the worker count, then each
/// worker must call Retire() exactly once on exit — termination
/// detection counts active workers, and a missing Retire() leaves the
/// remaining workers blocked in Pop() forever.
template <typename T>
class WorkStealingQueue {
 public:
  explicit WorkStealingQueue(size_t num_workers)
      : queues_(num_workers), active_(num_workers) {}

  /// Publishes one item onto `worker`'s deque. Safe to call before the
  /// workers start (the distributed scheduler seeds shard frontiers this
  /// way).
  void Push(size_t worker, T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queues_[worker].push_back(std::move(item));
      ++total_;
      peak_ = total_ > peak_ ? total_ : peak_;
    }
    cv_.notify_one();
  }

  /// Takes one item for `worker`: its own deque first (per `order`), then a
  /// steal from the front of the fullest other deque. Blocks while the
  /// frontier is empty but some worker is still busy. Returns false when the
  /// search is over: every worker is blocked here at once (frontier drained)
  /// or Close() was called. `stolen` reports whether the item came from
  /// another worker's deque.
  bool Pop(size_t worker, PopOrder order, T* out, bool* stolen) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!WaitForItem(lock)) {
      return false;
    }
    if (!queues_[worker].empty()) {
      *out = TakeOwnLocked(worker, order);
      *stolen = false;
    } else {
      *out = StealLocked(worker);
      *stolen = true;
    }
    return true;
  }

  /// Takes up to `max_items` for `worker` in one frontier visit: the first
  /// item with full Pop() semantics (blocking, stealing), the rest
  /// opportunistically from the worker's *own* deque only — extras are
  /// never stolen, so a batching worker cannot starve other thieves.
  /// Returns false when the search is over; otherwise `out` holds 1 to
  /// `max_items` items in pop order and `stolen` counts stolen ones (0/1).
  bool PopBatch(size_t worker, PopOrder order, size_t max_items, std::vector<T>* out,
                u64* stolen) {
    out->clear();
    *stolen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    if (!WaitForItem(lock)) {
      return false;
    }
    if (!queues_[worker].empty()) {
      out->push_back(TakeOwnLocked(worker, order));
    } else {
      out->push_back(StealLocked(worker));
      ++*stolen;
    }
    while (out->size() < max_items && !queues_[worker].empty()) {
      out->push_back(TakeOwnLocked(worker, order));
    }
    return true;
  }

  /// Registers an external producer (e.g. the distributed re-balance
  /// pump, which may inject work into an otherwise drained frontier).
  /// While registered, termination detection treats it like one more
  /// active worker, so an empty frontier with every worker blocked does
  /// NOT end the search — the producer might still Push(). Balance every
  /// AddProducer() with exactly one Retire(), or the workers block
  /// forever.
  void AddProducer() {
    std::lock_guard<std::mutex> lock(mu_);
    ++active_;
  }

  /// Items currently resident across all deques.
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<size_t>(total_);
  }

  /// Push that refuses once the queue is closed (checked under the same
  /// lock, so there is no close/push race). A closed frontier will never
  /// be popped again — external producers must learn their item was NOT
  /// accepted so they can re-home it instead of losing it.
  bool PushIfOpen(size_t worker, T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) {
        return false;
      }
      queues_[worker].push_back(std::move(item));
      ++total_;
      peak_ = total_ > peak_ ? total_ : peak_;
    }
    cv_.notify_one();
    return true;
  }

  /// Carves up to `max_items` of the *deepest* entries (deque backs,
  /// fullest deque first) for export to a starved peer, never draining
  /// the frontier below `min_keep`. Items leave in the exported order.
  /// Returns the number exported — always 0 once the
  /// queue is closed: a closed frontier will never be popped again
  /// (first-crash-wins or termination), so carving pendings off it for a
  /// peer would only ship work the fleet has already decided not to do.
  /// Safe from any thread; exporting nothing is not an error.
  size_t ExportDeepest(size_t max_items, size_t min_keep, std::vector<T>* out) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      return 0;
    }
    size_t exported = 0;
    while (exported < max_items && total_ > min_keep) {
      size_t victim = queues_.size();
      size_t victim_size = 0;
      for (size_t i = 0; i < queues_.size(); ++i) {
        if (queues_[i].size() > victim_size) {
          victim = i;
          victim_size = queues_[i].size();
        }
      }
      if (victim == queues_.size()) {
        break;
      }
      out->push_back(std::move(queues_[victim].back()));
      queues_[victim].pop_back();
      --total_;
      ++exported;
    }
    return exported;
  }

  /// Moves every resident item into `out`, deque by deque in push order,
  /// whether or not the queue is closed: a search that hands its leftover
  /// frontier on (the distributed scout) drains it once its workers are
  /// done popping.
  void Drain(std::vector<T>* out) {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::deque<T>& queue : queues_) {
      for (T& item : queue) {
        out->push_back(std::move(item));
      }
      queue.clear();
    }
    total_ = 0;
  }

  /// Ends the search: every blocked and future Pop() returns false.
  /// Callable from any thread — first-crash-wins cancellation and a
  /// shard's FrontierPort::Cancel both use it.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  /// Permanently removes one worker from termination accounting (its private
  /// budget died). Call exactly once per exiting worker; without this the
  /// remaining workers could block in Pop() forever waiting for a producer
  /// that already left.
  void Retire() {
    bool close = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      Check(active_ > 0, "WorkStealingQueue: Retire underflow");
      --active_;
      close = total_ == 0 && waiting_ >= active_;
      closed_ = closed_ || close;
    }
    if (close) {
      cv_.notify_all();
    }
  }

  /// High-water mark of items resident across all deques.
  u64 peak() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_;
  }

 private:
  // Blocks until the frontier has an item. Returns false when the search
  // is over (closed, or every active worker waits here at once).
  bool WaitForItem(std::unique_lock<std::mutex>& lock) {
    for (;;) {
      if (closed_) {
        return false;
      }
      if (total_ > 0) {
        return true;
      }
      ++waiting_;
      if (waiting_ >= active_) {
        // Every still-active worker is here and the frontier is empty:
        // nothing can ever be produced again. Wake the other waiters so
        // they observe closed_.
        closed_ = true;
        cv_.notify_all();
        return false;
      }
      cv_.wait(lock, [this] { return total_ > 0 || closed_; });
      --waiting_;
    }
  }

  // Removes one item from `worker`'s own (non-empty) deque per `order`.
  T TakeOwnLocked(size_t worker, PopOrder order) {
    std::deque<T>& own = queues_[worker];
    --total_;
    if (order == PopOrder::kNewestFirst) {
      T item = std::move(own.back());
      own.pop_back();
      return item;
    }
    T item = std::move(own.front());
    own.pop_front();
    return item;
  }

  // Steals the front of the fullest other deque; requires total_ > 0 and
  // an empty own deque.
  T StealLocked(size_t worker) {
    size_t victim = queues_.size();
    size_t victim_size = 0;
    for (size_t i = 0; i < queues_.size(); ++i) {
      if (i != worker && queues_[i].size() > victim_size) {
        victim = i;
        victim_size = queues_[i].size();
      }
    }
    Check(victim < queues_.size(), "WorkStealingQueue: total_ > 0 but no victim");
    T item = std::move(queues_[victim].front());
    queues_[victim].pop_front();
    --total_;
    return item;
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::deque<T>> queues_;
  u64 total_ = 0;
  u64 peak_ = 0;
  size_t waiting_ = 0;
  size_t active_ = 0;
  bool closed_ = false;
};

}  // namespace retrace

#endif  // RETRACE_SUPPORT_WORKQUEUE_H_
