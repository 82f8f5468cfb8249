// A growable array that optimistic (seqlock-validated) readers can walk while
// a single writer appends to it, without ever pairing one buffer's start
// with another buffer's length.
//
// Why retire_vector is not enough: std::vector keeps its begin and end
// pointers in two separate members. A range-for over it loads begin, then
// end; a writer's push_back / resize that reallocates in between hands the
// reader the old buffer's begin and the new buffer's end. The retire
// allocator keeps the old buffer mapped, but the reader then walks past its
// end into unrelated heap and dereferences whatever it finds there — before
// the seqlock validation that would have discarded the attempt ever runs.
//
// SeqVector fixes that structurally, in the manner of SeqHashMap:
//
//  * Elements live in a Block that also holds the block's capacity and the
//    count of published elements. A reader takes ONE acquire load of the
//    block pointer and derives data, length and bounds from that block, so
//    its view is self-consistent no matter what the writer does next.
//  * Appends within capacity write the element first and only then publish
//    the new count (release store); a reader never sees an unconstructed
//    slot.
//  * Growth builds a fresh Block, moves the elements across, publishes it
//    with one release store and Retire()s the old Block (util/retire.h):
//    in-flight readers keep a mapped, coherent — merely stale — view for
//    the grace period. clear() publishes no block and retires the old one.
//
// Reader surface: view() (range-for and size from one block) and the const
// subscript, which bounds-checks against the same block it indexes — a torn
// index throws TornReadError inside an optimistic attempt (util/check.h).
// There is deliberately no const begin()/end(): a range-for over a const
// SeqVector would load the block twice. The non-const iterators, subscript
// and mutators are writer-only (the serve layer's exclusive section).
#ifndef DYNDEX_UTIL_SEQ_VECTOR_H_
#define DYNDEX_UTIL_SEQ_VECTOR_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <utility>

#include "util/check.h"
#include "util/retire.h"

namespace dyndex {

// lint:reader-shared
template <typename T>
class SeqVector {
  struct Block;

 public:
  /// A reader's self-consistent view: data and length from one block.
  class View {
   public:
    View() = default;
    const T* begin() const { return data_; }
    const T* end() const { return data_ + size_; }
    std::size_t size() const { return size_; }
    const T& operator[](std::size_t i) const {
      DYNDEX_CHECK(i < size_);
      return data_[i];
    }

   private:
    friend class SeqVector;
    View(const T* data, std::size_t size) : data_(data), size_(size) {}
    const T* data_ = nullptr;
    std::size_t size_ = 0;
  };

  SeqVector() = default;

  ~SeqVector() {
    // Park the whole block: a concurrent reader may still be walking it.
    if (owner_ != nullptr) Retire(std::move(owner_));
  }

  SeqVector(SeqVector&& o) noexcept : owner_(std::move(o.owner_)) {
    // Ownership transfer: the block moves to this vector and the source
    // empties; nothing is displaced.
    // lint:allow(publish-retire) ownership transfer, nothing displaced
    block_.store(owner_.get(), std::memory_order_release);
    o.block_.store(nullptr, std::memory_order_release);
  }

  SeqVector& operator=(SeqVector&& o) noexcept {
    if (this != &o) {
      block_.store(nullptr, std::memory_order_release);
      if (owner_ != nullptr) Retire(std::move(owner_));
      owner_ = std::move(o.owner_);
      block_.store(owner_.get(), std::memory_order_release);
      o.block_.store(nullptr, std::memory_order_release);
    }
    return *this;
  }

  SeqVector(const SeqVector&) = delete;
  SeqVector& operator=(const SeqVector&) = delete;

  /// Reader-safe: the published elements, from one block load.
  View view() const {
    const Block* b = block_.load(std::memory_order_acquire);
    if (b == nullptr) return View();
    return View(b->slots.get(), b->size.load(std::memory_order_acquire));
  }

  /// Reader-safe, bounds-checked against the block it indexes.
  const T& operator[](std::size_t i) const { return view()[i]; }
  std::size_t size() const { return view().size(); }

  /// Allocated element slots (space accounting); reader-safe.
  std::size_t capacity() const {
    const Block* b = block_.load(std::memory_order_acquire);
    return b != nullptr ? b->capacity : 0;
  }

  // --- writer-only -----------------------------------------------------------

  T& operator[](std::size_t i) {
    DYNDEX_DCHECK(owner_ != nullptr && i < Published());
    return owner_->slots[i];
  }
  T* begin() { return owner_ != nullptr ? owner_->slots.get() : nullptr; }
  T* end() { return begin() + Published(); }

  void push_back(T v) {
    const std::size_t n = Published();
    // Doubling from one, as libstdc++'s vector grows.
    if (owner_ == nullptr || n == owner_->capacity) {
      Reallocate(std::max<std::size_t>(1, 2 * n));
    }
    owner_->slots[n] = std::move(v);
    owner_->size.store(n + 1, std::memory_order_release);
  }

  /// Grows to `n` elements, the new ones value-initialized. Grow-only:
  /// clear() is the one way to drop elements.
  void resize(std::size_t n) {
    const std::size_t cur = Published();
    DYNDEX_CHECK(n >= cur);
    if (n == cur) return;
    if (owner_ == nullptr || n > owner_->capacity) {
      Reallocate(std::max(n, 2 * cur));
    }
    // Slots past the published count are still value-initialized: elements
    // only ever enter a block through push_back / resize at its end.
    owner_->size.store(n, std::memory_order_release);
  }

  /// Readers see an empty vector after the single pointer store.
  void clear() {
    if (owner_ == nullptr) return;
    block_.store(nullptr, std::memory_order_release);
    Retire(std::move(owner_));
  }

 private:
  // Immutable but for the published count: readers derive bounds and data
  // from the same allocation, so one pointer load yields a consistent view.
  // lint:reader-shared
  struct Block {
    explicit Block(std::size_t cap)
        : capacity(cap), slots(std::make_unique<T[]>(cap)) {}
    const std::size_t capacity;
    std::atomic<std::size_t> size{0};
    const std::unique_ptr<T[]> slots;
  };

  std::size_t Published() const {
    return owner_ != nullptr ? owner_->size.load(std::memory_order_relaxed)
                             : 0;
  }

  /// Moves the published elements into a fresh block of `cap` slots and
  /// publishes it. Moved-from elements in the old block read as empty —
  /// stale readers see coherent (if wrong) data and revalidate.
  void Reallocate(std::size_t cap) {
    const std::size_t n = Published();
    auto next = std::make_unique<Block>(cap);
    for (std::size_t i = 0; i < n; ++i) {
      next->slots[i] = std::move(owner_->slots[i]);
    }
    next->size.store(n, std::memory_order_relaxed);
    block_.store(next.get(), std::memory_order_release);
    if (owner_ != nullptr) Retire(std::move(owner_));
    owner_ = std::move(next);
  }

  std::unique_ptr<Block> owner_;
  std::atomic<Block*> block_{nullptr};  // readers' view; mirrors owner_
};

}  // namespace dyndex

#endif  // DYNDEX_UTIL_SEQ_VECTOR_H_
