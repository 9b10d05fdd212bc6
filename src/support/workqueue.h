// MPMC work-stealing frontier for the parallel replay scheduler.
//
// Each worker owns a deque (its DFS stack). Owners push to the back and
// pop according to their heuristic: back (newest first — depth-first),
// front (oldest first — breadth/FIFO), or the entry with the highest
// priority key (two independent keys per entry: `priority`, the log-bits
// discipline — pendings whose prefix consumed the most branch-log bits —
// and `direction`, the direction-aware discipline — pendings whose
// constraint set forces the most logged directions). A worker whose deque is empty steals the
// *front* of another worker's deque: the oldest, shallowest entry, i.e.
// the root of the largest untouched subtree — the classic work-stealing
// discipline that keeps thieves out of the owner's hot end.
//
// Pop() blocks when the whole frontier is empty, because a busy worker may
// still publish more work. Termination is detected when every worker is
// blocked in Pop() at once (nobody is running, so nobody can produce), or
// when Close() is called (first-crash-wins cancellation). A single mutex
// guards all deques: frontier operations are microseconds apart while the
// work items between them (solver call + interpreter run) are milliseconds,
// so contention is irrelevant and the simple design is provably safe. The
// same reasoning covers the highest-priority pop's linear scan.
#ifndef RETRACE_SUPPORT_WORKQUEUE_H_
#define RETRACE_SUPPORT_WORKQUEUE_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <numeric>
#include <utility>
#include <vector>

#include "src/support/common.h"

namespace retrace {

enum class PopOrder {
  kNewestFirst,       // Depth-first: continue the deepest path.
  kOldestFirst,       // FIFO: widen the search.
  kHighestPriority,   // Largest Push() priority first; ties break newest.
  kHighestDirection,  // Largest Push() direction key first; ties break newest.
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

  /// Publishes one item onto `worker`'s deque. `priority` only matters to
  /// kHighestPriority consumers and `direction` to kHighestDirection ones
  /// (a portfolio fleet runs both disciplines over one frontier, so each
  /// entry carries both keys); the other orders ignore them. Safe to call
  /// before the workers start (the distributed scheduler seeds shard
  /// frontiers this way).
  void Push(size_t worker, T item, u64 priority = 0, u64 direction = 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queues_[worker].push_back(Entry{std::move(item), priority, direction});
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
    if (order == PopOrder::kHighestPriority || order == PopOrder::kHighestDirection) {
      // Batched priority take: one selection pass + swap-removals instead
      // of re-running TakeOwnLocked's O(n) scan once per extra.
      if (out->size() < max_items) {
        TakeOwnTopLocked(worker, order, max_items - out->size(), out);
      }
    } else {
      while (out->size() < max_items && !queues_[worker].empty()) {
        out->push_back(TakeOwnLocked(worker, order));
      }
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
  bool PushIfOpen(size_t worker, T item, u64 priority = 0, u64 direction = 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) {
        return false;
      }
      queues_[worker].push_back(Entry{std::move(item), priority, direction});
      ++total_;
      peak_ = total_ > peak_ ? total_ : peak_;
    }
    cv_.notify_one();
    return true;
  }

  /// Carves up to `max_items` of the *deepest* entries (deque backs,
  /// fullest deque first) for export to a starved peer, never draining
  /// the frontier below `min_keep`. Items leave in the exported order;
  /// any priority metadata must live inside T (PortablePending carries
  /// its own `priority`). Returns the number exported — always 0 once the
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
      out->push_back(std::move(queues_[victim].back().item));
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
    for (std::deque<Entry>& queue : queues_) {
      for (Entry& entry : queue) {
        out->push_back(std::move(entry.item));
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
  struct Entry {
    T item;
    u64 priority = 0;
    u64 direction = 0;
  };

  // Priority key an entry contributes under `order` (only the two
  // priority orders call this).
  static u64 KeyOf(const Entry& entry, PopOrder order) {
    return order == PopOrder::kHighestDirection ? entry.direction : entry.priority;
  }

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

  // Removes one entry from `worker`'s own (non-empty) deque per `order`.
  T TakeOwnLocked(size_t worker, PopOrder order) {
    std::deque<Entry>& own = queues_[worker];
    size_t idx = 0;
    switch (order) {
      case PopOrder::kNewestFirst:
        idx = own.size() - 1;
        break;
      case PopOrder::kOldestFirst:
        idx = 0;
        break;
      case PopOrder::kHighestPriority:
      case PopOrder::kHighestDirection:
        // >= keeps the scan's last maximum: the newest among ties, so
        // equal-priority entries still behave depth-first. The pop then
        // swap-removes instead of erasing from the middle: the scan is
        // unavoidably O(n), but shifting half the deque while holding
        // mu_ is not (ties thereafter prefer the newest *remaining*
        // entry, which internal compaction approximates).
        for (size_t i = 1; i < own.size(); ++i) {
          if (KeyOf(own[i], order) >= KeyOf(own[idx], order)) {
            idx = i;
          }
        }
        if (idx + 1 != own.size()) {
          std::swap(own[idx], own.back());
        }
        idx = own.size() - 1;
        break;
    }
    T item = std::move(own[idx].item);
    if (idx + 1 == own.size()) {
      own.pop_back();
    } else {
      own.erase(own.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    --total_;
    return item;
  }

  // Takes up to `want` of the highest-key entries from `worker`'s own
  // deque in one selection pass (nth_element over indices), appending the
  // items in descending-key order — the batched form of the priority
  // take. Vacated slots are swap-removed highest-index-first (the back is
  // never a still-pending selected slot), so a batch costs one scan and
  // O(1) removals instead of one full scan per item. Ties break newest
  // (largest index) first, matching the single take's tie rule.
  void TakeOwnTopLocked(size_t worker, PopOrder order, size_t want, std::vector<T>* out) {
    std::deque<Entry>& own = queues_[worker];
    const size_t take = std::min(want, own.size());
    if (take == 0) {
      return;
    }
    std::vector<size_t> idx(own.size());
    std::iota(idx.begin(), idx.end(), size_t{0});
    const auto better = [&](size_t a, size_t b) {
      const u64 ka = KeyOf(own[a], order);
      const u64 kb = KeyOf(own[b], order);
      return ka != kb ? ka > kb : a > b;
    };
    if (take < idx.size()) {
      std::nth_element(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(take) - 1,
                       idx.end(), better);
      idx.resize(take);
    }
    std::sort(idx.begin(), idx.end(), better);
    for (const size_t i : idx) {
      out->push_back(std::move(own[i].item));
    }
    std::sort(idx.begin(), idx.end(), [](size_t a, size_t b) { return a > b; });
    for (const size_t i : idx) {
      if (i + 1 != own.size()) {
        own[i] = std::move(own.back());
      }
      own.pop_back();
    }
    total_ -= take;
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
    T item = std::move(queues_[victim].front().item);
    queues_[victim].pop_front();
    --total_;
    return item;
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::deque<Entry>> queues_;
  u64 total_ = 0;
  u64 peak_ = 0;
  size_t waiting_ = 0;
  size_t active_ = 0;
  bool closed_ = false;
};

}  // namespace retrace

#endif  // RETRACE_SUPPORT_WORKQUEUE_H_
