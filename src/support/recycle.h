// Free lists for shared objects whose last owner lets go a few runs
// after they were made.
//
// A search saves thousands of checkpoints and publishes thousands of run
// snapshots, each a handful of shared vectors. Both pools here hand such
// objects out shared; when the last owner drops one, the object goes back
// on a free list with its members' storage intact instead of being freed.
// A warm pool hands out objects without allocating, and holds at most as
// many as were ever live at once.
//
//   - Recycler hands out std::shared_ptr, for objects that few handles
//     share (its control blocks come from a free list too).
//   - LocalPool hands out LocalPool::Ref, whose count of holders is a
//     plain integer: for objects that many handles share and copy often,
//     such as the memory objects that consecutive checkpoints share,
//     where an atomic count per copy would cost more than the copy saves.
//
// **Thread safety:** none. Every handle must be released on the thread
// that uses the pool. A pool may go before the handles it gave out: its
// free list then goes with the last of them.
#ifndef RETRACE_SUPPORT_RECYCLE_H_
#define RETRACE_SUPPORT_RECYCLE_H_

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace retrace {

// Drops what a recycled object must not keep alive (the shared_ptrs it
// holds); the default keeps everything.
struct KeepAll {
  template <typename T>
  void operator()(T&) const {}
};

template <typename T, typename Release = KeepAll>
class Recycler {
 public:
  Recycler() : lists_(new Lists) {}
  ~Recycler() {
    lists_->owned = false;
    lists_->MaybeDelete();
  }
  Recycler(const Recycler&) = delete;
  Recycler& operator=(const Recycler&) = delete;

  // An object as its last owner left it, less what Release dropped; a
  // value-initialized one when the free list is empty.
  std::shared_ptr<T> Get() {
    T* object;
    if (lists_->objects.empty()) {
      object = new T();
    } else {
      object = lists_->objects.back();
      lists_->objects.pop_back();
    }
    return std::shared_ptr<T>(object, Return{lists_}, BlockAlloc<T>(lists_));
  }

 private:
  struct Lists {
    std::vector<T*> objects;
    std::vector<void*> blocks;  // Control blocks, all of block_size bytes.
    size_t block_size = 0;
    size_t live = 0;  // Control blocks handed out and not yet returned.
    bool owned = true;

    void MaybeDelete() {
      if (!owned && live == 0) {
        delete this;
      }
    }
    ~Lists() {
      for (T* object : objects) {
        delete object;
      }
      for (void* block : blocks) {
        ::operator delete(block);
      }
    }
  };

  struct Return {
    Lists* lists;
    void operator()(T* object) const {
      Release{}(*object);
      lists->objects.push_back(object);
    }
  };

  // Allocates the control block; the block outlives the Return call.
  template <typename U>
  struct BlockAlloc {
    using value_type = U;
    Lists* lists;

    explicit BlockAlloc(Lists* l) : lists(l) {}
    template <typename V>
    BlockAlloc(const BlockAlloc<V>& other) : lists(other.lists) {}

    U* allocate(size_t n) {
      const size_t bytes = n * sizeof(U);
      void* block;
      if (lists->block_size == 0) {
        lists->block_size = bytes;
      }
      if (bytes == lists->block_size && !lists->blocks.empty()) {
        block = lists->blocks.back();
        lists->blocks.pop_back();
      } else {
        block = ::operator new(bytes);
      }
      ++lists->live;
      return static_cast<U*>(block);
    }
    void deallocate(U* block, size_t n) {
      Lists* l = lists;  // This allocator may live in the block.
      if (n * sizeof(U) == l->block_size) {
        l->blocks.push_back(block);
      } else {
        ::operator delete(block);
      }
      --l->live;
      l->MaybeDelete();
    }
    template <typename V>
    bool operator==(const BlockAlloc<V>& other) const {
      return lists == other.lists;
    }
  };

  Lists* lists_;
};

template <typename T, typename Release = KeepAll>
class LocalPool {
  struct Lists;
  struct Node {
    T value{};
    size_t refs = 0;
    Lists* lists = nullptr;
  };

 public:
  // A counted handle to a pooled object; null when default-constructed.
  class Ref {
   public:
    Ref() = default;
    Ref(const Ref& other) : node_(other.node_) {
      if (node_ != nullptr) {
        ++node_->refs;
      }
    }
    Ref(Ref&& other) noexcept : node_(std::exchange(other.node_, nullptr)) {}
    Ref& operator=(const Ref& other) {
      if (other.node_ != nullptr) {
        ++other.node_->refs;
      }
      reset();
      node_ = other.node_;
      return *this;
    }
    Ref& operator=(Ref&& other) noexcept {
      if (this != &other) {
        reset();
        node_ = std::exchange(other.node_, nullptr);
      }
      return *this;
    }
    ~Ref() { reset(); }

    void reset() {
      Node* node = std::exchange(node_, nullptr);
      if (node != nullptr && --node->refs == 0) {
        node->lists->Return(node);
      }
    }
    T* get() const { return node_ != nullptr ? &node_->value : nullptr; }
    T& operator*() const { return node_->value; }
    T* operator->() const { return &node_->value; }
    explicit operator bool() const { return node_ != nullptr; }
    bool operator==(const Ref& other) const { return node_ == other.node_; }
    bool operator==(std::nullptr_t) const { return node_ == nullptr; }

   private:
    friend class LocalPool;
    explicit Ref(Node* node) : node_(node) { ++node_->refs; }
    Node* node_ = nullptr;
  };

  LocalPool() : lists_(new Lists) {}
  ~LocalPool() {
    lists_->owned = false;
    lists_->MaybeDelete();
  }
  LocalPool(const LocalPool&) = delete;
  LocalPool& operator=(const LocalPool&) = delete;

  // An object as its last owner left it, less what Release dropped; a
  // value-initialized one when the free list is empty.
  Ref Get() {
    Node* node;
    if (lists_->free.empty()) {
      node = new Node;
      node->lists = lists_;
    } else {
      node = lists_->free.back();
      lists_->free.pop_back();
    }
    ++lists_->live;
    return Ref(node);
  }

 private:
  struct Lists {
    std::vector<Node*> free;
    size_t live = 0;  // Nodes handed out and not yet returned.
    bool owned = true;

    void Return(Node* node) {
      Release{}(node->value);
      free.push_back(node);
      --live;
      MaybeDelete();
    }
    void MaybeDelete() {
      if (!owned && live == 0) {
        delete this;
      }
    }
    ~Lists() {
      for (Node* node : free) {
        delete node;
      }
    }
  };

  Lists* lists_;
};

}  // namespace retrace

#endif  // RETRACE_SUPPORT_RECYCLE_H_
