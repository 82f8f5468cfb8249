// Deferred-reclamation plumbing for the optimistic read path.
//
// The serving layer (serve/epoch_guard.h) lets readers run queries against a
// backend with no lock held, validating a sequence word afterwards. A torn
// read is *detected* by the validation, but it is only *memory-safe* if
// nothing a reader might still be traversing is ever returned to the
// allocator while that reader is in flight. This header is the mechanism the
// backends use to honor that contract without knowing anything about the
// serving layer above them:
//
//  * EpochGuard installs a RetireScope around every exclusive section. While
//    the scope is active, a thread-local sink collects everything the writer
//    frees instead of freeing it.
//  * Backends call Retire(std::move(x)) at every site that would otherwise
//    destroy a structure readers may be traversing (a replaced sub-collection
//    level, a swapped Transformation-2 structure, a cleared arena). With no
//    scope active — single-threaded use, tests, tools — Retire destroys the
//    value immediately, so unguarded code pays nothing and changes nothing.
//  * RetireAllocator<T> routes container *buffer* frees (std::vector
//    reallocation, hash-table rehash) through the same sink, so growing an
//    index under readers never unmaps memory a reader is walking.
//
// The sink's contents are reclaimed by EpochGuard once no optimistic reader
// can still hold the sequence under which the freed objects were live (see
// the grace-period scan in epoch_guard.h).
#ifndef DYNDEX_UTIL_RETIRE_H_
#define DYNDEX_UTIL_RETIRE_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace dyndex {

/// A batch of retired objects. Destroying the sink (or calling Reclaim)
/// destroys every parked value; until then their memory stays mapped and
/// bit-stable for in-flight optimistic readers.
class RetireSink {
 public:
  RetireSink() = default;
  RetireSink(RetireSink&&) = default;
  RetireSink& operator=(RetireSink&&) = default;
  RetireSink(const RetireSink&) = delete;
  RetireSink& operator=(const RetireSink&) = delete;

  /// Takes ownership of `v`; its destructor runs at Reclaim time.
  template <typename T>
  void Park(T v) {
    parked_.push_back(std::make_unique<Holder<T>>(std::move(v)));
  }

  bool empty() const { return parked_.empty(); }
  std::size_t size() const { return parked_.size(); }

  /// Destroys every parked value now.
  void Reclaim() { parked_.clear(); }

  /// Moves everything parked in `other` onto this sink.
  void Absorb(RetireSink&& other) {
    for (auto& node : other.parked_) parked_.push_back(std::move(node));
    other.parked_.clear();
  }

 private:
  struct Node {
    virtual ~Node() = default;
  };
  template <typename T>
  struct Holder final : Node {
    explicit Holder(T&& x) : v(std::move(x)) {}
    T v;
  };
  std::vector<std::unique_ptr<Node>> parked_;
};

namespace retire_internal {
inline thread_local RetireSink* tl_sink = nullptr;
}  // namespace retire_internal

/// True while the calling thread is inside an exclusive section whose frees
/// must be deferred (a RetireScope is installed).
inline bool RetireActive() { return retire_internal::tl_sink != nullptr; }

/// Installs `sink` as the calling thread's retire sink for the scope's
/// lifetime. Nests: the previous sink is restored on destruction.
class RetireScope {
 public:
  explicit RetireScope(RetireSink* sink) : prev_(retire_internal::tl_sink) {
    retire_internal::tl_sink = sink;
  }
  ~RetireScope() { retire_internal::tl_sink = prev_; }
  RetireScope(const RetireScope&) = delete;
  RetireScope& operator=(const RetireScope&) = delete;

 private:
  RetireSink* prev_;
};

/// Retires a value: parked on the active sink if one is installed, destroyed
/// immediately otherwise. Callers pass ownership (std::move).
template <typename T>
void Retire(T v) {
  if (RetireSink* sink = retire_internal::tl_sink) {
    sink->Park(std::move(v));
  }
  // No sink: `v` is destroyed here, exactly as the plain free would have.
}

/// Minimal std::allocator clone whose deallocate parks the buffer on the
/// active retire sink instead of freeing it. Containers that reallocate
/// while a writer mutates under readers (std::vector growth, hash rehash)
/// must use this so the abandoned buffer outlives in-flight readers.
template <typename T>
struct RetireAllocator {
  using value_type = T;

  RetireAllocator() = default;
  template <typename U>
  RetireAllocator(const RetireAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) { return std::allocator<T>().allocate(n); }

  void deallocate(T* p, std::size_t n) noexcept {
    if (RetireSink* sink = retire_internal::tl_sink) {
      sink->Park(DeferredFree{p, n});
    } else {
      std::allocator<T>().deallocate(p, n);
    }
  }

  friend bool operator==(const RetireAllocator&, const RetireAllocator&) {
    return true;
  }

 private:
  /// Owns a raw buffer; frees it when destroyed (i.e. at Reclaim time).
  /// Elements were already destroyed by the container before deallocate —
  /// that leaves the bytes unchanged for the trivially-destructible payloads
  /// used on read paths, which is all a validating reader needs.
  struct DeferredFree {
    DeferredFree(T* p, std::size_t n) : p_(p), n_(n) {}
    DeferredFree(DeferredFree&& o) noexcept : p_(o.p_), n_(o.n_) {
      o.p_ = nullptr;
    }
    DeferredFree& operator=(DeferredFree&&) = delete;
    DeferredFree(const DeferredFree&) = delete;
    ~DeferredFree() {
      if (p_ != nullptr) std::allocator<T>().deallocate(p_, n_);
    }
    T* p_;
    std::size_t n_;
  };
};

// Vector alias whose abandoned buffers stay mapped for optimistic readers.
// NOTE: that keeps freed memory mapped; it does NOT make a reader's view
// self-consistent. Any container whose bounds and data live in separate
// members can tear under a concurrent reallocation:
//  * a std::vector's begin and end: a reader's range-for (or a size() check
//    followed by a subscript) can pair the old buffer's begin with the new
//    buffer's end and walk past the parked buffer into unrelated heap. A
//    sequence readers walk while the writer may grow it must be SeqVector
//    (util/seq_vector.h), which serves data and length from one load;
//  * a std hashtable's bucket pointer and bucket count: hash maps on read
//    paths must be SeqHashMap (util/seq_hash_map.h), NOT std::unordered_map
//    with this allocator.
// retire_vector alone suffices only where readers reach the buffer through
// a pointer taken from one load (a SeqHashMap table's slots). The sanitizers
// cannot catch such a tear: under TSan/ASan the optimistic attempts hold the
// shared lock (serve/epoch_guard.h), so only a plain build can crash on it.
template <typename T>
using retire_vector = std::vector<T, RetireAllocator<T>>;

}  // namespace dyndex

#endif  // DYNDEX_UTIL_RETIRE_H_
