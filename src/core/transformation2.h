// Transformation 2 (Section 3): the static-to-dynamic transformation with
// worst-case update bounds.
//
// Differences from Transformation 1:
//  * When C_j overflows into C_{j+1}, C_j is *locked* (renamed L_j), a fresh
//    empty C_j is started, the new document is served from a one-document
//    Temp_{j+1} index, and the merged N_{j+1} = L_j u C_{j+1} u Temp_{j+1} is
//    built in the background (Figure 3). Queries keep hitting the old copies
//    until the swap.
//  * Documents of size >= max_j/2 are rebuilt synchronously (the paper's
//    "large document" rule); documents of size >= n/tau become their own top
//    collection T_i.
//  * Levels only hold O(n/tau) symbols; everything bigger lives in top
//    collections T_1..T_g, purged one build at a time under the Dietz-Sleator
//    schedule (Lemma 1): after every n_f/(2 tau log tau) deleted symbols the
//    top with the most dead symbols is rebuilt in the background, and the
//    same build absorbs the smallest other live tops until at most
//    kMaxTopsAfterPurge (2) remain. Every query visits every top, and under
//    steady churn PlaceViaTop keeps adding them, so without the merge they
//    pile up. Only the deletion tick merges; inserts alone never do. Cost: a
//    tick rebuilds at most the live symbols of all tops but one, O(n) per
//    n_f/(2 tau log tau) deleted symbols, i.e. O(tau log tau) rebuilt
//    symbols per deleted symbol in the worst case -- the bound the one-top
//    purge already had, since a global rebuild leaves one top of all n
//    symbols. Measured over 5000 one-insert-one-erase steps at 2^17 symbols
//    (tau 4): 5.0 rebuilt symbols per deleted symbol and a mean of 2.1 tops,
//    against 3.9 and 8.9 tops for the one-top purge.
//
// The "distributed over the following updates" background work is realized
// with a real builder thread (RebuildMode::kThreaded): the main thread swaps
// the result in when ready and only blocks if it needs a slot that is still
// building (back-pressure). RebuildMode::kSynchronous completes every build
// at initiation and is fully deterministic (used by most tests).
//
// Deletions that race a background build are replayed on the new structure at
// swap time, so a swap is always consistent.
//
// Threading contract (see serve/sharded_index.h for the serving wrapper):
//  * A builder thread only ever touches its own document snapshot (moved into
//    the std::async closure) and the Semi it constructs; it never reads or
//    writes collection state, so it cannot race queries.
//  * Swap *publication* — moving a finished Semi into levels_/tops_ and
//    rewriting where_ — happens exclusively on the mutator thread, inside
//    Insert/Erase/PollPending/ForceAllPending. Queries and mutations must be
//    externally synchronized (readers shared, mutators exclusive); under that
//    discipline a reader can never observe a half-swapped level.
#ifndef DYNDEX_CORE_TRANSFORMATION2_H_
#define DYNDEX_CORE_TRANSFORMATION2_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <chrono>
#include <future>
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
#include "util/heap.h"
#include "util/retire.h"
#include "util/seq_hash_map.h"
#include "util/seq_vector.h"

namespace dyndex {

enum class RebuildMode { kSynchronous, kThreaded };

struct T2Options {
  uint32_t tau = 0;     // 0 = auto
  double epsilon = 0.5;
  uint64_t min_c0 = 4096;
  bool counting = false;
  RebuildMode mode = RebuildMode::kSynchronous;
};

/// Fully-dynamic compressed document collection with worst-case-smoothed
/// updates, generic over the static index I.
template <typename I>
class DynamicCollectionT2 {
 public:
  using Semi = SemiStaticIndex<I>;

  explicit DynamicCollectionT2(const T2Options& opt = {},
                               const typename I::Options& index_opt = {})
      : opt_(opt) {
    semi_opt_.index = index_opt;
    semi_opt_.counting = opt.counting;
  }

  ~DynamicCollectionT2() { ForceAllPending(); }

  // --- updates -------------------------------------------------------------

  DocId Insert(std::vector<Symbol> symbols) {
    DYNDEX_CHECK(!symbols.empty());
    AdvancePending();
    DocId id = next_id_++;
    uint64_t m = symbols.size();
    uint64_t total = live_symbols() + m;
    if (nf_ == 0) nf_ = std::max<uint64_t>(total, opt_.min_c0);
    if (total >= 2 * nf_) {
      GlobalRebase(Document{id, std::move(symbols)});
      return id;
    }
    if (c0_.live_symbols() + m <= MaxSize(0)) {
      c0_.Insert(id, std::move(symbols));
      where_[id] = {Kind::kC0, 0};
      return id;
    }
    if (m * Tau() >= nf_) {
      // Oversized document: its own top collection, built immediately
      // (O(|T| u(n)) is within the worst-case budget for |T| this large).
      std::vector<Document> docs;
      docs.push_back({id, std::move(symbols)});
      InstallTop(std::make_unique<Semi>(docs, semi_opt_));
      return id;
    }
    // Find the smallest level j such that C_{j+1} can hold C_j and T.
    uint32_t rmax = RMax();
    for (uint32_t j = 0; j < rmax; ++j) {
      uint64_t cj = SizeOfCj(j);
      uint64_t cj1 = levels_.size() > j && levels_[j].c
                         ? levels_[j].c->live_symbols()
                         : 0;
      if (cj1 + cj + m > MaxSize(j + 1)) continue;
      PlaceViaLevel(j, Document{id, std::move(symbols)}, m);
      return id;
    }
    // Nothing fits: lock C_r and start a top-collection build.
    PlaceViaTop(Document{id, std::move(symbols)});
    return id;
  }

  /// Cold bulk path: mints the batch's ids in order, then builds everything
  /// at once the way a global rebuild does (one static build, Section 3's
  /// from-scratch N_{j+1}) instead of one Insert cascade per document.
  /// CollectEverything first retires whatever an emptied structure still
  /// holds, so no dead level or top survives the load. Correct on a warm
  /// collection too, but then it rebuilds every live document.
  std::vector<DocId> InsertBulk(std::vector<std::vector<Symbol>> batch) {
    std::vector<Document> docs;
    CollectEverything(&docs);
    std::vector<DocId> ids;
    ids.reserve(batch.size());
    for (std::vector<Symbol>& symbols : batch) {
      DYNDEX_CHECK(!symbols.empty());
      ids.push_back(next_id_);
      docs.push_back(Document{next_id_++, std::move(symbols)});
    }
    RebaseInto(std::move(docs));
    return ids;
  }

  bool Erase(DocId id) {
    AdvancePending();
    const Holder* found = where_.Find(id);
    if (found == nullptr) return false;
    Holder h = *found;
    where_.Erase(id);
    uint64_t len = 0;
    switch (h.kind) {
      case Kind::kC0:
        len = c0_.DocLen(id);
        c0_.Erase(id);
        break;
      case Kind::kC0Locked:
        len = c0_locked_.DocLen(id);
        c0_locked_.Erase(id);
        RecordPendingDelete(/*level=*/0, id);
        break;
      case Kind::kLevelC:
        len = levels_[h.idx].c->DocLenOf(id);
        levels_[h.idx].c->EraseDoc(id);
        if (levels_[h.idx].pending.active) RecordPendingDelete(h.idx, id);
        break;
      case Kind::kLevelLocked:
        len = levels_[h.idx].locked->DocLenOf(id);
        levels_[h.idx].locked->EraseDoc(id);
        RecordPendingDelete(h.idx, id);
        break;
      case Kind::kLevelTemp:
        len = levels_[h.idx].temp->DocLenOf(id);
        levels_[h.idx].temp->EraseDoc(id);
        RecordPendingDelete(h.idx, id);
        break;
      case Kind::kTopLocked:
        len = top_locked_->DocLenOf(id);
        top_locked_->EraseDoc(id);
        top_pending_.deleted.push_back(id);
        break;
      case Kind::kTopTemp:
        len = top_temp_->DocLenOf(id);
        top_temp_->EraseDoc(id);
        top_pending_.deleted.push_back(id);
        break;
      case Kind::kTop:
        len = tops_[h.idx]->DocLenOf(id);
        tops_[h.idx]->EraseDoc(id);
        if (top_purge_.active &&
            std::find(top_purge_slots_.begin(), top_purge_slots_.end(),
                      h.idx) != top_purge_slots_.end()) {
          top_purge_.deleted.push_back(id);
        }
        break;
    }
    deletion_credit_ += len;
    MaybeMergeDeadLevel(h);
    MaybeScheduleTopPurge();
    MaybeShrink();
    return true;
  }

  // --- queries -------------------------------------------------------------

  template <typename Fn>
  void ForEachOccurrence(const std::vector<Symbol>& pattern, Fn fn) const {
    if (c0_.num_live_docs() > 0) c0_.ForEachOccurrence(pattern, fn);
    if (c0_locked_.num_live_docs() > 0) {
      c0_locked_.ForEachOccurrence(pattern, fn);
    }
    // Load each pointer exactly once: a writer retiring the slot nulls the
    // unique_ptr in place, so re-dereferencing it mid-traversal would fault
    // even though the parked Semi itself stays alive.
    auto visit = [&](const std::unique_ptr<Semi>& sp) {
      const Semi* s = sp.get();
      if (s != nullptr && s->num_live_docs() > 0) {
        s->ForEachOccurrence(pattern, fn);
      }
    };
    for (const Level& lv : levels_.view()) {
      visit(lv.c);
      visit(lv.locked);
      visit(lv.temp);
    }
    visit(top_locked_);
    visit(top_temp_);
    for (const auto& t : tops_.view()) visit(t);
  }

  std::vector<Occurrence> Find(const std::vector<Symbol>& pattern) const {
    std::vector<Occurrence> out;
    ForEachOccurrence(pattern,
                      [&](DocId d, uint64_t off) { out.push_back({d, off}); });
    return out;
  }

  uint64_t Count(const std::vector<Symbol>& pattern) const {
    uint64_t c = c0_.num_live_docs() > 0 ? c0_.Count(pattern) : 0;
    if (c0_locked_.num_live_docs() > 0) c += c0_locked_.Count(pattern);
    auto visit = [&](const std::unique_ptr<Semi>& sp) {
      const Semi* s = sp.get();  // one load; see ForEachOccurrence
      if (s != nullptr && s->num_live_docs() > 0) c += s->Count(pattern);
    };
    for (const Level& lv : levels_.view()) {
      visit(lv.c);
      visit(lv.locked);
      visit(lv.temp);
    }
    visit(top_locked_);
    visit(top_temp_);
    for (const auto& t : tops_.view()) visit(t);
    return c;
  }

  std::vector<Symbol> Extract(DocId id, uint64_t from, uint64_t len) const {
    const Holder* found = where_.Find(id);
    DYNDEX_CHECK(found != nullptr);
    std::vector<Symbol> out;
    const Holder h = *found;
    switch (h.kind) {
      case Kind::kC0:
        c0_.Extract(id, from, len, &out);
        break;
      case Kind::kC0Locked:
        c0_locked_.Extract(id, from, len, &out);
        break;
      default:
        HolderSemi(h)->Extract(id, from, len, &out);
    }
    return out;
  }

  bool Contains(DocId id) const { return where_.Contains(id); }

  uint64_t DocLenOf(DocId id) const {
    const Holder* found = where_.Find(id);
    DYNDEX_CHECK(found != nullptr);
    const Holder h = *found;
    if (h.kind == Kind::kC0) return c0_.DocLen(id);
    if (h.kind == Kind::kC0Locked) return c0_locked_.DocLen(id);
    return HolderSemi(h)->DocLenOf(id);
  }

  // --- introspection -------------------------------------------------------

  uint64_t live_symbols() const {
    uint64_t t = c0_.live_symbols() + c0_locked_.live_symbols();
    auto add = [&](const std::unique_ptr<Semi>& sp) {
      const Semi* s = sp.get();  // one load; see ForEachOccurrence
      if (s != nullptr) t += s->live_symbols();
    };
    for (const Level& lv : levels_.view()) {
      add(lv.c);
      add(lv.locked);
      add(lv.temp);
    }
    add(top_locked_);
    add(top_temp_);
    for (const auto& s : tops_.view()) add(s);
    return t;
  }

  uint64_t num_docs() const { return where_.size(); }
  uint32_t num_tops() const {
    uint32_t n = 0;
    for (const auto& t : tops_.view()) n += t.get() != nullptr;
    return n;
  }
  uint32_t num_pending() const {
    uint32_t n = top_pending_.active + top_purge_.active;
    for (const Level& lv : levels_.view()) n += lv.pending.active;
    return n;
  }
  uint32_t tau() const { return Tau(); }

  /// Publishes any finished background builds without blocking on the ones
  /// still running. Serving layers call this between query batches so swaps
  /// keep landing even when no update arrives (mutator thread only).
  void PollPending() { AdvancePending(); }

  /// Completes all in-flight background builds (deterministic barrier).
  void ForceAllPending() {
    for (uint32_t j = 0; j < levels_.size(); ++j) {
      if (levels_[j].pending.active) FinishLevelPending(j, /*block=*/true);
    }
    if (top_pending_.active) FinishTopPending(/*block=*/true);
    if (top_purge_.active) FinishTopPurge(/*block=*/true);
  }

  SpaceBreakdown Space() const {
    SpaceBreakdown sp;
    sp.uncompressed = c0_.SpaceBytes() + c0_locked_.SpaceBytes();
    auto add = [&](const std::unique_ptr<Semi>& semi_ptr) {
      const Semi* s = semi_ptr.get();  // one load; see ForEachOccurrence
      if (s == nullptr) return;
      sp.static_indexes += s->IndexSpaceBytes();
      sp.reporters += s->ReporterSpaceBytes();
      sp.bookkeeping += s->BookkeepingSpaceBytes();
    };
    for (const Level& lv : levels_.view()) {
      add(lv.c);
      add(lv.locked);
      add(lv.temp);
    }
    add(top_locked_);
    add(top_temp_);
    for (const auto& t : tops_.view()) add(t);
    sp.bookkeeping += where_.size() * 28;
    return sp;
  }

  void CheckInvariants() const {
    uint64_t docs = c0_.num_live_docs() + c0_locked_.num_live_docs();
    auto add = [&](const std::unique_ptr<Semi>& sp) {
      const Semi* s = sp.get();  // one load; see ForEachOccurrence
      if (s != nullptr) docs += s->num_live_docs();
    };
    for (const Level& lv : levels_.view()) {
      add(lv.c);
      add(lv.locked);
      add(lv.temp);
    }
    add(top_locked_);
    add(top_temp_);
    for (const auto& t : tops_.view()) add(t);
    DYNDEX_CHECK(docs == where_.size());
    // An in-flight purge (one at a time, Dietz-Sleator schedule) rebuilds
    // live tops: each merged slot appears once and stays occupied until
    // FinishTopPurge swaps the result in.
    if (top_purge_.active) {
      DYNDEX_CHECK(!top_purge_slots_.empty());
      for (std::size_t i = 0; i < top_purge_slots_.size(); ++i) {
        const uint32_t slot = top_purge_slots_[i];
        DYNDEX_CHECK(slot < tops_.size());
        DYNDEX_CHECK(tops_[slot] != nullptr);
        DYNDEX_CHECK(std::find(top_purge_slots_.begin() + i + 1,
                               top_purge_slots_.end(),
                               slot) == top_purge_slots_.end());
      }
    }
  }

  // --- persistence ---------------------------------------------------------

  /// Copies the full logical state — every live document plus the next id to
  /// mint. Non-const: background builds are published first (ForceAllPending)
  /// so the structure being copied has no in-flight work, but the logical
  /// state is unchanged.
  void ExportSnapshot(std::vector<Document>* docs, DocId* next_id) {
    ForceAllPending();
    const std::size_t before = docs->size();
    c0_.PeekLiveDocs(docs);
    c0_locked_.PeekLiveDocs(docs);
    auto peek = [&](const std::unique_ptr<Semi>& sp) {
      const Semi* s = sp.get();
      if (s != nullptr) s->ExportLiveDocs(docs);
    };
    for (const Level& lv : levels_) {
      peek(lv.c);
      peek(lv.locked);
      peek(lv.temp);
    }
    peek(top_locked_);
    peek(top_temp_);
    for (const auto& t : tops_) peek(t);
    DYNDEX_CHECK(docs->size() - before == where_.size());
    *next_id = next_id_;
  }

  /// Restores an exported state into a fresh collection, preserving the
  /// exported ids and the id counter.
  void LoadSnapshot(std::vector<Document> docs, DocId next_id) {
    DYNDEX_CHECK(num_docs() == 0 && live_symbols() == 0);
    next_id_ = next_id;
    RebaseInto(std::move(docs));
  }

 private:
  enum class Kind : uint8_t {
    kC0,
    kC0Locked,
    kLevelC,
    kLevelLocked,
    kLevelTemp,
    kTopLocked,
    kTopTemp,
    kTop,
  };
  struct Holder {
    Kind kind = Kind::kC0;
    uint32_t idx = 0;
  };

  struct Pending {
    bool active = false;
    std::future<Semi*> future;       // threaded mode
    std::unique_ptr<Semi> ready;     // synchronous mode result
    std::vector<DocId> deleted;      // deletions to replay at swap
  };

  struct Level {
    std::unique_ptr<Semi> c;       // C_{j+1}
    std::unique_ptr<Semi> locked;  // L_j (old C_j), j >= 1
    std::unique_ptr<Semi> temp;    // Temp_{j+1}
    Pending pending;               // building N_{j+1}
  };

  T2Options opt_;
  typename Semi::Options semi_opt_;
  SuffixTreeCollection c0_;         // C_0
  SuffixTreeCollection c0_locked_;  // L_0
  // Seq* containers: optimistic readers walk them while the writer grows
  // them; each reader view comes from one load (util/seq_vector.h).
  SeqVector<Level> levels_;
  std::unique_ptr<Semi> top_locked_;  // L_r (bound for a new top)
  std::unique_ptr<Semi> top_temp_;    // Temp_{r+1}
  Pending top_pending_;               // building N_{r+1} -> new top
  Pending top_purge_;  // background purge merging tops_[top_purge_slots_]
  // Slots the purge merges; the result lands in the first. Mutator only.
  std::vector<uint32_t> top_purge_slots_;
  SeqVector<std::unique_ptr<Semi>> tops_;
  SeqHashMap<DocId, Holder> where_;
  DocId next_id_ = 0;
  uint64_t nf_ = 0;
  uint64_t deletion_credit_ = 0;

  // --- parameters ----------------------------------------------------------

  /// Live tops left after a purge merge (header comment: the purge tick).
  static constexpr std::size_t kMaxTopsAfterPurge = 2;

  uint32_t Tau() const {
    if (opt_.tau != 0) return opt_.tau;
    return DefaultTau(std::max<uint64_t>(nf_, 16));
  }

  double Ratio() const {
    double logn = std::max(2.0, std::log2(static_cast<double>(
                                    std::max<uint64_t>(nf_, 4))));
    return std::max(2.0, std::pow(logn, opt_.epsilon));
  }

  uint64_t MaxSize(uint32_t level) const {
    double logn = std::max(2.0, std::log2(static_cast<double>(
                                    std::max<uint64_t>(nf_, 4))));
    double max0 = std::max(static_cast<double>(opt_.min_c0),
                           2.0 * static_cast<double>(nf_) / (logn * logn));
    double v = max0 * std::pow(Ratio(), level);
    return v > 1e18 ? ~0ull : static_cast<uint64_t>(v);
  }

  /// Number of levels: the largest level holds ~ n_f/tau symbols; anything
  /// bigger becomes a top collection.
  uint32_t RMax() const {
    uint64_t cap = std::max<uint64_t>(nf_ / Tau(), opt_.min_c0);
    uint32_t r = 1;
    while (MaxSize(r) < cap && r < 64) ++r;
    return r;
  }

  uint64_t SizeOfCj(uint32_t j) const {
    if (j == 0) return c0_.live_symbols();
    if (levels_.size() > j - 1 && levels_[j - 1].c) {
      return levels_[j - 1].c->live_symbols();
    }
    return 0;
  }

  Semi* HolderSemi(const Holder& h) const {
    // Queries reach here through where_, possibly with a torn Holder
    // (optimistic readers): bound every index and reject null slots — the
    // checks throw TornReadError mid-attempt, abort on real corruption.
    // The const subscripts check the index against the block they read.
    Semi* s = nullptr;
    switch (h.kind) {
      case Kind::kLevelC:
        s = levels_[h.idx].c.get();
        break;
      case Kind::kLevelLocked:
        s = levels_[h.idx].locked.get();
        break;
      case Kind::kLevelTemp:
        s = levels_[h.idx].temp.get();
        break;
      case Kind::kTopLocked:
        s = top_locked_.get();
        break;
      case Kind::kTopTemp:
        s = top_temp_.get();
        break;
      case Kind::kTop:
        s = tops_[h.idx].get();
        break;
      default:
        DYNDEX_CHECK(false);
    }
    DYNDEX_CHECK(s != nullptr);
    return s;
  }

  void Register(const Semi& s, Kind kind, uint32_t idx) {
    std::vector<DocId> ids;
    s.AppendLiveIds(&ids);
    for (DocId id : ids) where_[id] = {kind, idx};
  }

  // --- pending-build machinery ----------------------------------------------

  /// Launches a build of `docs` according to the mode.
  void Launch(Pending* p, std::vector<Document> docs) {
    p->active = true;
    p->deleted.clear();
    if (opt_.mode == RebuildMode::kSynchronous) {
      p->ready = std::make_unique<Semi>(docs, semi_opt_);
    } else {
      auto opts = semi_opt_;
      // The closure lives in the future's shared state until Collect, so
      // move the inputs out and free them as soon as the build returns;
      // then hand the build's freed temporaries back to the system, which
      // the builder thread's malloc arena would otherwise keep resident.
      p->future = std::async(std::launch::async,
                             [docs = std::move(docs), opts]() mutable {
                               Semi* built = nullptr;
                               {
                                 std::vector<Document> input = std::move(docs);
                                 built = new Semi(input, opts);
                               }
                               ReleaseFreeHeap();
                               return built;
                             });
    }
  }

  /// Returns the built structure if complete (or blocks when `block`), else
  /// nullptr. Replays racing deletions.
  std::unique_ptr<Semi> Collect(Pending* p, bool block) {
    DYNDEX_CHECK(p->active);
    std::unique_ptr<Semi> out;
    if (opt_.mode == RebuildMode::kSynchronous) {
      out = std::move(p->ready);
    } else {
      if (!block && p->future.wait_for(std::chrono::seconds(0)) !=
                        std::future_status::ready) {
        return nullptr;
      }
      out.reset(p->future.get());
    }
    for (DocId id : p->deleted) out->EraseDoc(id);
    p->active = false;
    p->deleted.clear();
    return out;
  }

  void RecordPendingDelete(uint32_t level, DocId id) {
    if (level < levels_.size() && levels_[level].pending.active) {
      levels_[level].pending.deleted.push_back(id);
    }
  }

  void AdvancePending() {
    for (uint32_t j = 0; j < levels_.size(); ++j) {
      if (levels_[j].pending.active) FinishLevelPending(j, /*block=*/false);
    }
    if (top_pending_.active) FinishTopPending(/*block=*/false);
    if (top_purge_.active) FinishTopPurge(/*block=*/false);
  }

  void FinishLevelPending(uint32_t j, bool block) {
    std::unique_ptr<Semi> built = Collect(&levels_[j].pending, block);
    if (built == nullptr) return;
    // The swap: every structure replaced here may still be under an
    // optimistic reader, so park instead of free (util/retire.h).
    Retire(std::move(levels_[j].locked));
    Retire(std::move(levels_[j].temp));
    if (j == 0) c0_locked_.Clear();
    if (built->num_live_docs() == 0) {
      Retire(std::move(levels_[j].c));
      return;
    }
    Retire(std::move(levels_[j].c));
    levels_[j].c = std::move(built);
    Register(*levels_[j].c, Kind::kLevelC, j);
  }

  void FinishTopPending(bool block) {
    std::unique_ptr<Semi> built = Collect(&top_pending_, block);
    if (built == nullptr) return;
    Retire(std::move(top_locked_));
    Retire(std::move(top_temp_));
    if (built->num_live_docs() > 0) InstallTop(std::move(built));
  }

  void FinishTopPurge(bool block) {
    std::unique_ptr<Semi> built = Collect(&top_purge_, block);
    if (built == nullptr) return;
    // One mutator call retires every merged slot and installs the result, so
    // a reader sees either the old tops or the merged one, never both.
    const uint32_t target = top_purge_slots_.front();
    for (uint32_t slot : top_purge_slots_) Retire(std::move(tops_[slot]));
    top_purge_slots_.clear();
    if (built->num_live_docs() == 0) return;
    tops_[target] = std::move(built);
    Register(*tops_[target], Kind::kTop, target);
  }

  void InstallTop(std::unique_ptr<Semi> s) {
    Semi* raw = s.get();
    uint32_t slot = 0;
    for (; slot < tops_.size(); ++slot) {
      if (tops_[slot] == nullptr) break;
    }
    if (slot == tops_.size()) {
      tops_.push_back(std::move(s));
    } else {
      tops_[slot] = std::move(s);
    }
    Register(*raw, Kind::kTop, slot);
  }

  // --- placement ------------------------------------------------------------

  /// C_{j+1} absorbs C_j and the new document.
  void PlaceViaLevel(uint32_t j, Document doc, uint64_t m) {
    if (levels_.size() <= j) levels_.resize(j + 1);
    Level& lv = levels_[j];
    // Back-pressure: the slot must be free before we can lock again, and the
    // source level C_j must not be the install target of another build (its
    // docs would otherwise be re-installed after we move them up).
    if (lv.pending.active) FinishLevelPending(j, /*block=*/true);
    if (j >= 1 && levels_[j - 1].pending.active) {
      FinishLevelPending(j - 1, /*block=*/true);
    }
    if (m >= MaxSize(j) / 2) {
      // Large document: synchronous rebuild (paper's immediate case).
      std::vector<Document> docs;
      DrainCj(j, &docs);
      if (lv.c) {
        lv.c->ExportLiveDocs(&docs);
        Retire(std::move(lv.c));  // readers may still be traversing it
      }
      docs.push_back(std::move(doc));
      lv.c = std::make_unique<Semi>(docs, semi_opt_);
      Register(*lv.c, Kind::kLevelC, j);
      return;
    }
    // Lock C_j, index the new doc in Temp_{j+1}, build N_{j+1} in background.
    std::vector<Document> docs;
    LockCj(j, &docs);
    if (lv.c) {
      std::vector<Document> cdocs;
      lv.c->ExportLiveDocs(&cdocs);
      for (Document& d : cdocs) docs.push_back(std::move(d));
      // lv.c stays queryable until the swap.
    }
    DocId id = doc.id;
    {
      std::vector<Document> tmp;
      tmp.push_back(doc);  // copy: the build snapshot also needs it
      lv.temp = std::make_unique<Semi>(tmp, semi_opt_);
      where_[id] = {Kind::kLevelTemp, j};
    }
    docs.push_back(std::move(doc));
    Launch(&lv.pending, std::move(docs));
    if (opt_.mode == RebuildMode::kSynchronous) {
      FinishLevelPending(j, /*block=*/true);
    }
  }

  /// No level fits: lock the largest level into a new top collection.
  void PlaceViaTop(Document doc) {
    if (top_pending_.active) FinishTopPending(/*block=*/true);
    uint32_t r = RMax();
    if (levels_.size() >= r && levels_[r - 1].pending.active) {
      FinishLevelPending(r - 1, /*block=*/true);
    }
    std::vector<Document> docs;
    // Lock C_r (stored at levels_[r-1].c) if present; else C0 cascade source.
    if (levels_.size() >= r && levels_[r - 1].c) {
      std::unique_ptr<Semi> old = std::move(levels_[r - 1].c);
      std::vector<DocId> ids;
      old->AppendLiveIds(&ids);
      old->ExportLiveDocs(&docs);
      top_locked_ = std::move(old);
      for (DocId id : ids) where_[id] = {Kind::kTopLocked, 0};
    }
    DocId id = doc.id;
    {
      std::vector<Document> tmp;
      tmp.push_back(doc);
      top_temp_ = std::make_unique<Semi>(tmp, semi_opt_);
      where_[id] = {Kind::kTopTemp, 0};
    }
    docs.push_back(std::move(doc));
    Launch(&top_pending_, std::move(docs));
    if (opt_.mode == RebuildMode::kSynchronous) {
      FinishTopPending(/*block=*/true);
    }
  }

  /// Exports C_j's live docs and leaves C_j empty (synchronous variant).
  void DrainCj(uint32_t j, std::vector<Document>* docs) {
    if (j == 0) {
      c0_.ExportLiveDocs(docs);
      return;
    }
    Level& below = levels_[j - 1];
    if (below.c) {
      below.c->ExportLiveDocs(docs);
      Retire(std::move(below.c));  // readers may still be traversing it
    }
  }

  /// Locks C_j: content snapshot goes to *docs, the old structure stays
  /// queryable as L_j until the pending build finishes.
  void LockCj(uint32_t j, std::vector<Document>* docs) {
    if (j == 0) {
      // Snapshot C0's docs, move the tree into the locked slot. A previous
      // lock must have been consumed (swapped) already.
      DYNDEX_CHECK(c0_locked_.num_live_docs() == 0);
      c0_locked_.Clear();
      std::vector<Document> exported;
      c0_.ExportLiveDocs(&exported);
      for (Document& d : exported) {
        where_[d.id] = {Kind::kC0Locked, 0};
        c0_locked_.Insert(d.id, d.symbols);
        docs->push_back(std::move(d));
      }
      return;
    }
    Level& below = levels_[j - 1];
    if (below.c == nullptr) return;
    if (levels_[j].locked != nullptr) {
      // Slot still occupied: force the pending build that owns it.
      FinishLevelPending(j, /*block=*/true);
    }
    std::vector<DocId> ids;
    below.c->AppendLiveIds(&ids);
    below.c->ExportLiveDocs(docs);
    levels_[j].locked = std::move(below.c);
    for (DocId id : ids) where_[id] = {Kind::kLevelLocked, j};
  }

  // --- deletion-side maintenance ---------------------------------------------

  /// C_j with >= max_j/2 dead symbols is merged into C_{j+1} (background).
  void MaybeMergeDeadLevel(Holder h) {
    if (h.kind != Kind::kLevelC) return;
    uint32_t j = h.idx;
    Level& lv = levels_[j];
    if (lv.c == nullptr || lv.pending.active) return;
    if (lv.c->num_live_docs() == 0) {
      Retire(std::move(lv.c));  // readers may still be traversing it
      return;
    }
    if (lv.c->dead_symbols() * 2 < MaxSize(j + 1)) return;
    // Merge C_{j+1} into C_{j+2} (or into a top if already the largest).
    uint32_t rmax = RMax();
    if (j + 1 >= rmax) {
      std::vector<Document> docs;
      if (top_pending_.active) FinishTopPending(/*block=*/true);
      std::unique_ptr<Semi> old = std::move(lv.c);
      std::vector<DocId> ids;
      old->AppendLiveIds(&ids);
      old->ExportLiveDocs(&docs);
      top_locked_ = std::move(old);
      for (DocId id : ids) where_[id] = {Kind::kTopLocked, 0};
      Launch(&top_pending_, std::move(docs));
      if (opt_.mode == RebuildMode::kSynchronous) {
        FinishTopPending(/*block=*/true);
      }
      return;
    }
    uint32_t target = j + 1;
    if (levels_.size() <= target) levels_.resize(target + 1);
    if (levels_[target].pending.active) {
      FinishLevelPending(target, /*block=*/true);
    }
    std::vector<Document> docs;
    LockCj(target, &docs);  // locks C_{target} = levels_[j].c
    if (levels_[target].c) {
      levels_[target].c->ExportLiveDocs(&docs);
    }
    if (docs.empty()) return;
    Launch(&levels_[target].pending, std::move(docs));
    if (opt_.mode == RebuildMode::kSynchronous) {
      FinishLevelPending(target, /*block=*/true);
    }
  }

  /// Dietz-Sleator: after each n_f/(2 tau log tau) deleted symbols, purge the
  /// top collection with the most dead symbols, merging the smallest other
  /// live tops into the same build until at most kMaxTopsAfterPurge remain
  /// (one purge at a time).
  void MaybeScheduleTopPurge() {
    uint32_t tau = Tau();
    uint64_t log_tau = std::max<uint32_t>(1, BitWidth(tau));
    uint64_t threshold =
        std::max<uint64_t>(1, nf_ / (2ull * tau * log_tau));
    if (deletion_credit_ < threshold) return;
    if (top_purge_.active) return;  // one at a time (paper's schedule)
    deletion_credit_ = 0;
    uint32_t best = ~0u;
    uint64_t best_dead = 0;
    for (uint32_t t = 0; t < tops_.size(); ++t) {
      if (tops_[t] != nullptr && tops_[t]->dead_symbols() > best_dead) {
        best_dead = tops_[t]->dead_symbols();
        best = t;
      }
    }
    if (best == ~0u || best_dead == 0) return;
    if (tops_[best]->num_live_docs() == 0) {
      // Wholly dead top: drop it outright (parked for in-flight readers).
      Retire(std::move(tops_[best]));
      return;
    }
    std::vector<uint32_t> others;
    for (uint32_t t = 0; t < tops_.size(); ++t) {
      if (t != best && tops_[t] != nullptr) others.push_back(t);
    }
    // Keep the largest others as they are; merge the rest.
    const std::size_t keep = kMaxTopsAfterPurge - 1;
    const std::size_t merge = others.size() > keep ? others.size() - keep : 0;
    std::partial_sort(others.begin(), others.begin() + merge, others.end(),
                      [&](uint32_t a, uint32_t b) {
                        const uint64_t la = tops_[a]->live_symbols();
                        const uint64_t lb = tops_[b]->live_symbols();
                        return la != lb ? la < lb : a < b;
                      });
    top_purge_slots_.assign({best});
    top_purge_slots_.insert(top_purge_slots_.end(), others.begin(),
                            others.begin() + merge);
    std::vector<Document> docs;
    for (uint32_t slot : top_purge_slots_) tops_[slot]->ExportLiveDocs(&docs);
    Launch(&top_purge_, std::move(docs));
    if (opt_.mode == RebuildMode::kSynchronous) {
      FinishTopPurge(/*block=*/true);
    }
  }

  void MaybeShrink() {
    uint64_t total = live_symbols();
    if (nf_ > 2 * opt_.min_c0 && total * 2 <= nf_) {
      GlobalRebaseNoExtra();
    }
  }

  // --- global rebase ---------------------------------------------------------

  void CollectEverything(std::vector<Document>* docs) {
    ForceAllPending();
    c0_.ExportLiveDocs(docs);
    c0_locked_.ExportLiveDocs(docs);
    auto drain = [&](std::unique_ptr<Semi>& s) {
      if (s != nullptr) {
        s->ExportLiveDocs(docs);
        Retire(std::move(s));  // readers may still be traversing it
      }
    };
    for (Level& lv : levels_) {
      drain(lv.c);
      drain(lv.locked);
      drain(lv.temp);
    }
    drain(top_locked_);
    drain(top_temp_);
    for (auto& t : tops_) drain(t);
    levels_.clear();
    tops_.clear();
  }

  void GlobalRebase(Document extra) {
    std::vector<Document> docs;
    CollectEverything(&docs);
    docs.push_back(std::move(extra));
    RebaseInto(std::move(docs));
  }

  void GlobalRebaseNoExtra() {
    std::vector<Document> docs;
    CollectEverything(&docs);
    RebaseInto(std::move(docs));
  }

  void RebaseInto(std::vector<Document> docs) {
    uint64_t total = 0;
    for (const Document& d : docs) total += d.symbols.size();
    nf_ = std::max<uint64_t>(total, opt_.min_c0);
    where_.clear();
    if (docs.empty()) return;
    if (total <= MaxSize(0)) {
      for (Document& d : docs) {
        where_[d.id] = {Kind::kC0, 0};
        c0_.Insert(d.id, std::move(d.symbols));
      }
      return;
    }
    // Everything becomes one top collection (the paper re-buckets tops in the
    // background, Section A.3; a single synchronous top keeps the invariant
    // n_f = Theta(n) and is amortized O(u(n)) per symbol).
    InstallTop(std::make_unique<Semi>(docs, semi_opt_));
  }
};

}  // namespace dyndex

#endif  // DYNDEX_CORE_TRANSFORMATION2_H_
