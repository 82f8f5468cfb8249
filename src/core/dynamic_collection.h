// Transformation 1 (Section 2) and Transformation 3 (Appendix A.4): the
// static-to-dynamic transformation with amortized update bounds.
//
// Layout: C0 is an uncompressed generalized suffix tree holding at most
// max0 = max(min_c0, 2n/log^2 n) symbols; C_1..C_r are deletion-only static
// indexes whose capacities grow geometrically,
//   max_j = max0 * ratio^j,
// with ratio = (log n)^epsilon under Transformation 1 (r = O(1/epsilon)
// levels) and ratio = 2 under Transformation 3 (r = O(log log n) levels,
// cheaper amortized insertion, O(log log n)-factor slower range-finding).
//
// Insertion: new documents go to C0; when C0 overflows, the smallest level j
// such that C0 + C_1..C_j + T fits in max_j is rebuilt as the merge of all of
// them (the paper's cascade). If nothing fits, a global rebuild re-bases the
// size parameter n_f.
//
// Deletion: lazy kill in the owning sub-collection (Section 2's deletion-only
// scheme); a sub-collection is purged when its dead fraction reaches 1/tau.
#ifndef DYNDEX_CORE_DYNAMIC_COLLECTION_H_
#define DYNDEX_CORE_DYNAMIC_COLLECTION_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/occurrence.h"
#include "core/semi_static_index.h"
#include "gst/suffix_tree.h"
#include "text/concat_text.h"
#include "util/bits.h"
#include "util/check.h"
#include "util/retire.h"
#include "util/seq_vector.h"

namespace dyndex {

/// Sub-collection capacity schedule: kPolylog is Transformation 1,
/// kDoubling is Transformation 3.
enum class GrowthPolicy { kPolylog, kDoubling };

struct DynamicCollectionOptions {
  /// Dead-fraction purge knob tau; 0 = auto (log n / log log n).
  uint32_t tau = 0;
  /// Growth exponent epsilon of Transformation 1.
  double epsilon = 0.5;
  /// Lower bound on C0 capacity so small collections stay in the suffix tree.
  uint64_t min_c0 = 4096;
  /// Enable the Theorem-1 counting augmentation on every sub-collection.
  bool counting = false;
  GrowthPolicy growth = GrowthPolicy::kPolylog;
};

/// Fully-dynamic compressed document collection, generic over the static
/// index I (FmIndex, PackedSaIndex, ...). Amortized updates.
template <typename I>
class DynamicCollectionT1 {
 public:
  using Semi = SemiStaticIndex<I>;

  explicit DynamicCollectionT1(const DynamicCollectionOptions& opt = {},
                               const typename I::Options& index_opt = {})
      : opt_(opt) {
    semi_opt_.index = index_opt;
    semi_opt_.counting = opt.counting;
  }

  // --- updates -------------------------------------------------------------

  /// Inserts a document (symbols >= kMinSymbol, non-empty); returns its
  /// stable handle. Amortized O(u(n) log^eps n) per symbol.
  DocId Insert(std::vector<Symbol> symbols) {
    DYNDEX_CHECK(!symbols.empty());
    DocId id = next_id_++;
    uint64_t m = symbols.size();
    uint64_t total = live_symbols() + m;
    if (nf_ == 0) nf_ = std::max<uint64_t>(total, opt_.min_c0);
    if (total >= 2 * nf_) {
      // Global rebuild: re-base n_f (the paper's doubling rule).
      GlobalRebuild(Document{id, std::move(symbols)});
      return id;
    }
    if (c0_.live_symbols() + m <= MaxSize(0)) {
      c0_.Insert(id, std::move(symbols));
      where_[id] = kInC0;
      return id;
    }
    // Find the smallest level j (holding C_{j+1}) such that C0..C_{j+1} + T
    // fits below max_{j+1}.
    uint64_t prefix = c0_.live_symbols() + m;
    for (uint32_t j = 0;; ++j) {
      if (j < subs_.size() && subs_[j] != nullptr) {
        prefix += subs_[j]->live_symbols();
      }
      if (prefix <= MaxSize(j + 1)) {
        MergeThrough(j, Document{id, std::move(symbols)});
        return id;
      }
      if (j > subs_.size() + 64) {
        // Unreachable under the geometric schedule; defensive stop.
        DYNDEX_CHECK(false);
      }
    }
    return id;  // unreachable
  }

  /// Erases a document. Returns false for unknown handles.
  bool Erase(DocId id) {
    const int32_t* found = where_.Find(id);
    if (found == nullptr) return false;
    int32_t loc = *found;
    if (loc == kInC0) {
      c0_.Erase(id);
    } else {
      Semi* s = subs_[static_cast<uint32_t>(loc)].get();
      DYNDEX_CHECK(s != nullptr && s->EraseDoc(id));
      PurgeIfNeeded(static_cast<uint32_t>(loc));
    }
    where_.Erase(id);
    // Global shrink rule keeps n_f = Theta(n).
    uint64_t total = live_symbols();
    if (nf_ > 2 * opt_.min_c0 && total * 2 <= nf_) {
      GlobalRebuildNoExtra();
    }
    return true;
  }

  // --- queries -------------------------------------------------------------

  /// fn(DocId, offset) for every live occurrence, across C0 and all levels.
  template <typename Fn>
  void ForEachOccurrence(const std::vector<Symbol>& pattern, Fn fn) const {
    if (c0_.num_live_docs() > 0) c0_.ForEachOccurrence(pattern, fn);
    // Load each sub pointer exactly once: a writer retiring the level nulls
    // the unique_ptr element in place, so re-dereferencing it mid-traversal
    // would fault even though the parked Semi itself stays alive.
    for (const auto& sub : subs_.view()) {
      const Semi* s = sub.get();
      if (s != nullptr && s->num_live_docs() > 0) {
        s->ForEachOccurrence(pattern, fn);
      }
    }
  }

  std::vector<Occurrence> Find(const std::vector<Symbol>& pattern) const {
    std::vector<Occurrence> out;
    ForEachOccurrence(pattern,
                      [&](DocId d, uint64_t off) { out.push_back({d, off}); });
    return out;
  }

  uint64_t Count(const std::vector<Symbol>& pattern) const {
    uint64_t c = c0_.num_live_docs() > 0 ? c0_.Count(pattern) : 0;
    for (const auto& sub : subs_.view()) {
      const Semi* s = sub.get();  // one load; see ForEachOccurrence
      if (s != nullptr && s->num_live_docs() > 0) c += s->Count(pattern);
    }
    return c;
  }

  /// doc[from, from+len).
  std::vector<Symbol> Extract(DocId id, uint64_t from, uint64_t len) const {
    const int32_t* found = where_.Find(id);
    DYNDEX_CHECK(found != nullptr);
    std::vector<Symbol> out;
    if (*found == kInC0) {
      c0_.Extract(id, from, len, &out);
    } else {
      // A torn where_ value must not index past subs_ (optimistic readers):
      // the const subscript checks it against the block it reads, throwing
      // TornReadError mid-attempt and aborting otherwise.
      const uint32_t j = static_cast<uint32_t>(*found);
      const Semi* s = subs_[j].get();  // one load; see ForEachOccurrence
      DYNDEX_CHECK(s != nullptr);
      s->Extract(id, from, len, &out);
    }
    return out;
  }

  bool Contains(DocId id) const { return where_.Contains(id); }

  uint64_t DocLenOf(DocId id) const {
    const int32_t* found = where_.Find(id);
    DYNDEX_CHECK(found != nullptr);
    if (*found == kInC0) return c0_.DocLen(id);
    const uint32_t j = static_cast<uint32_t>(*found);
    const Semi* s = subs_[j].get();  // checked subscript, as in Extract
    DYNDEX_CHECK(s != nullptr);
    return s->DocLenOf(id);
  }

  // --- introspection -------------------------------------------------------

  uint64_t live_symbols() const {
    uint64_t t = c0_.live_symbols();
    for (const auto& sub : subs_.view()) {
      const Semi* s = sub.get();  // one load; see ForEachOccurrence
      if (s != nullptr) t += s->live_symbols();
    }
    return t;
  }

  uint64_t num_docs() const { return where_.size(); }
  uint64_t c0_symbols() const { return c0_.live_symbols(); }

  uint32_t num_levels() const {
    uint32_t n = 0;
    for (const auto& s : subs_.view()) n += s.get() != nullptr;
    return n;
  }

  /// Live symbols per level (empty levels reported as 0) — Figure 1 data.
  std::vector<uint64_t> LevelSizes() const {
    std::vector<uint64_t> v;
    for (const auto& sub : subs_.view()) {
      const Semi* s = sub.get();  // one load; see ForEachOccurrence
      v.push_back(s == nullptr ? 0 : s->live_symbols());
    }
    return v;
  }

  uint64_t MaxSizeOfLevel(uint32_t level) const { return MaxSize(level); }
  uint32_t tau() const { return Tau(); }

  SpaceBreakdown Space() const {
    SpaceBreakdown sp;
    sp.uncompressed = c0_.SpaceBytes();
    for (const auto& sub : subs_.view()) {
      const Semi* s = sub.get();  // one load; see ForEachOccurrence
      if (s == nullptr) continue;
      sp.static_indexes += s->IndexSpaceBytes();
      sp.reporters += s->ReporterSpaceBytes();
      sp.bookkeeping += s->BookkeepingSpaceBytes();
    }
    sp.bookkeeping += where_.size() * 24;
    return sp;
  }

  // --- persistence ---------------------------------------------------------

  /// Copies the full logical state — every live document plus the next id to
  /// mint — without mutating the structure (snapshot-export path).
  void ExportSnapshot(std::vector<Document>* docs, DocId* next_id) const {
    c0_.PeekLiveDocs(docs);
    for (const auto& sub : subs_.view()) {
      const Semi* s = sub.get();
      if (s != nullptr) s->ExportLiveDocs(docs);
    }
    *next_id = next_id_;
  }

  /// Restores an exported state into a fresh collection, preserving the
  /// exported ids and the id counter.
  void LoadSnapshot(std::vector<Document> docs, DocId next_id) {
    DYNDEX_CHECK(num_docs() == 0 && live_symbols() == 0);
    next_id_ = next_id;
    RebaseInto(std::move(docs));
  }

  /// Validates internal invariants (test hook): sub-collection size bounds and
  /// registry consistency.
  void CheckInvariants() const {
    uint64_t docs = c0_.num_live_docs();
    const auto subs = subs_.view();
    for (uint32_t j = 0; j < subs.size(); ++j) {
      const Semi* s = subs[j].get();  // one load; see ForEachOccurrence
      if (s == nullptr) continue;
      docs += s->num_live_docs();
      // A sub-collection never exceeds its capacity (single oversized docs
      // are the allowed exception, as in the paper's top collections).
      if (s->num_live_docs() > 1) {
        DYNDEX_CHECK(s->total_symbols() <=
                     2 * MaxSize(j + 1) + s->dead_symbols());
      }
      DYNDEX_CHECK(!s->NeedsPurge(Tau()));
    }
    DYNDEX_CHECK(docs == where_.size());
  }

 private:
  static constexpr int32_t kInC0 = -1;

  DynamicCollectionOptions opt_;
  typename Semi::Options semi_opt_;
  SuffixTreeCollection c0_;
  // Optimistic readers walk subs_ while the writer grows it; each reader
  // view comes from one load (util/seq_vector.h).
  SeqVector<std::unique_ptr<Semi>> subs_;  // subs_[j] holds C_{j+1}
  SeqHashMap<DocId, int32_t> where_;
  DocId next_id_ = 0;
  uint64_t nf_ = 0;

  uint32_t Tau() const {
    if (opt_.tau != 0) return opt_.tau;
    return DefaultTau(std::max<uint64_t>(live_symbols(), 16));
  }

  double Ratio() const {
    if (opt_.growth == GrowthPolicy::kDoubling) return 2.0;
    double logn = std::max(2.0, std::log2(static_cast<double>(
                                    std::max<uint64_t>(nf_, 4))));
    return std::max(2.0, std::pow(logn, opt_.epsilon));
  }

  /// Capacity of level `level`: level 0 is C0, level j >= 1 is C_j.
  uint64_t MaxSize(uint32_t level) const {
    double logn = std::max(2.0, std::log2(static_cast<double>(
                                    std::max<uint64_t>(nf_, 4))));
    double max0 = std::max(static_cast<double>(opt_.min_c0),
                           2.0 * static_cast<double>(nf_) / (logn * logn));
    double v = max0 * std::pow(Ratio(), level);
    return v > 1e18 ? ~0ull : static_cast<uint64_t>(v);
  }

  int32_t FindLevelOf(DocId id) const {
    const auto subs = subs_.view();
    for (uint32_t j = 0; j < subs.size(); ++j) {
      const Semi* s = subs[j].get();
      if (s != nullptr && s->ContainsLive(id)) {
        return static_cast<int32_t>(j);
      }
    }
    return kInC0;
  }

  /// Rebuilds level `j` as the merge of C0, levels 0..j and `extra`.
  void MergeThrough(uint32_t j, Document extra) {
    std::vector<Document> docs;
    c0_.ExportLiveDocs(&docs);
    for (uint32_t i = 0; i <= j && i < subs_.size(); ++i) {
      if (subs_[i] != nullptr) {
        subs_[i]->ExportLiveDocs(&docs);
        Retire(std::move(subs_[i]));  // readers may still be traversing it
      }
    }
    DocId id = extra.id;
    docs.push_back(std::move(extra));
    if (subs_.size() <= j) subs_.resize(j + 1);
    subs_[j] = std::make_unique<Semi>(docs, semi_opt_);
    for (const Document& d : docs) where_[d.id] = static_cast<int32_t>(j);
    where_[id] = static_cast<int32_t>(j);
  }

  void GlobalRebuild(Document extra) {
    std::vector<Document> docs;
    CollectAll(&docs);
    docs.push_back(std::move(extra));
    RebaseInto(std::move(docs));
  }

  void GlobalRebuildNoExtra() {
    std::vector<Document> docs;
    CollectAll(&docs);
    RebaseInto(std::move(docs));
  }

  void CollectAll(std::vector<Document>* docs) {
    c0_.ExportLiveDocs(docs);
    for (auto& s : subs_) {
      if (s != nullptr) {
        s->ExportLiveDocs(docs);
        Retire(std::move(s));  // readers may still be traversing it
      }
    }
    subs_.clear();
  }

  void RebaseInto(std::vector<Document> docs) {
    uint64_t total = 0;
    for (const Document& d : docs) total += d.symbols.size();
    nf_ = std::max<uint64_t>(total, opt_.min_c0);
    if (docs.empty()) {
      where_.clear();
      return;
    }
    if (total <= MaxSize(0)) {
      // Everything fits back into C0.
      for (Document& d : docs) {
        where_[d.id] = kInC0;
        c0_.Insert(d.id, std::move(d.symbols));
      }
      return;
    }
    // Smallest level that fits the whole collection.
    uint32_t j = 0;
    while (MaxSize(j + 1) < total) ++j;
    if (subs_.size() <= j) subs_.resize(j + 1);
    subs_[j] = std::make_unique<Semi>(docs, semi_opt_);
    for (const Document& d : docs) where_[d.id] = static_cast<int32_t>(j);
  }

  void PurgeIfNeeded(uint32_t level) {
    Semi* s = subs_[level].get();
    if (s == nullptr || !s->NeedsPurge(Tau())) return;
    std::vector<Document> docs;
    s->ExportLiveDocs(&docs);
    Retire(std::move(subs_[level]));  // readers may still be traversing it
    if (docs.empty()) return;
    subs_[level] = std::make_unique<Semi>(docs, semi_opt_);
    for (const Document& d : docs) {
      where_[d.id] = static_cast<int32_t>(level);
    }
  }
};

/// Transformation 3 is Transformation 1 with the doubling schedule.
template <typename I>
class DynamicCollectionT3 : public DynamicCollectionT1<I> {
 public:
  explicit DynamicCollectionT3(DynamicCollectionOptions opt = {},
                               const typename I::Options& index_opt = {})
      : DynamicCollectionT1<I>(WithDoubling(opt), index_opt) {}

 private:
  static DynamicCollectionOptions WithDoubling(DynamicCollectionOptions opt) {
    opt.growth = GrowthPolicy::kDoubling;
    return opt;
  }
};

}  // namespace dyndex

#endif  // DYNDEX_CORE_DYNAMIC_COLLECTION_H_
