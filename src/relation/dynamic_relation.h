// Fully-dynamic compressed binary relation (Section 5, Theorem 2).
//
// The paper's framework applied to relations: a small uncompressed C0
// (adjacency hash lists, O(log n) bits per pair) absorbs insertions;
// the bulk lives in deletion-only compressed sub-collections arranged on the
// Transformation-1 geometric schedule. Global object/label ids are mapped
// through the SN/NS tables (id <-> dense slot, with free-list reuse); each
// sub-collection maps global slots to its *effective alphabet* via rank on
// presence bitmaps (the paper's GC_i sequences), so a slot reused after its
// label died maps onto all-dead pairs and reports nothing — exactly the
// paper's staleness argument.
//
// Queries visit C0 plus every sub-collection:
//   adjacency / reporting : O(#subs * log sigma_l) per datum
//   counting              : O(#subs * log n)
//   updates               : amortized O(polylog)
#ifndef DYNDEX_RELATION_DYNAMIC_RELATION_H_
#define DYNDEX_RELATION_DYNAMIC_RELATION_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bits/rank_select.h"
#include "relation/deletion_only_relation.h"
#include "util/check.h"
#include "util/retire.h"
#include "util/seq_hash_map.h"
#include "util/seq_vector.h"

namespace dyndex {

struct DynamicRelationOptions {
  /// Dead-fraction purge knob; 0 = auto (~log log n).
  uint32_t tau = 0;
  /// Growth exponent of the sub-collection schedule.
  double epsilon = 0.5;
  /// Minimum C0 capacity in pairs.
  uint64_t min_c0 = 1024;
};

/// Dynamic relation between arbitrary uint32 object ids and label ids.
class DynamicRelation {
 public:
  explicit DynamicRelation(const DynamicRelationOptions& opt =
                               DynamicRelationOptions());

  /// Adds (object, label). Returns false if the pair already exists.
  bool AddPair(uint32_t object, uint32_t label);

  /// Adds a batch of (object, label) pairs; returns how many were new.
  /// Batches that do not fit in C0 are built directly into one compressed
  /// sub-collection at the right level of the schedule (one static build)
  /// instead of per-pair C0 inserts cascading through merge after merge —
  /// the cold-start path costs one BuildSub over the whole batch.
  uint64_t AddPairsBulk(const std::vector<std::pair<uint32_t, uint32_t>>& ps);

  /// Removes (object, label). Returns false if absent.
  bool RemovePair(uint32_t object, uint32_t label);

  /// Adjacency test.
  bool Related(uint32_t object, uint32_t label) const;

  /// fn(label) for every label related to `object`.
  template <typename Fn>
  void ForEachLabelOfObject(uint32_t object, Fn fn) const {
    const uint32_t* slot = obj_slot_.Find(object);
    if (slot == nullptr) return;
    uint32_t os = *slot;
    // C0 adjacency is a SeqBox snapshot: one acquire load, then iterate a
    // list no writer will ever mutate (updates republish wholesale).
    if (const C0List* box = c0_by_object_.Find(os)) {
      if (const std::vector<uint32_t>* adj = box->Load()) {
        for (uint32_t ls : *adj) {
          // Torn-read clamp: the const subscript bounds-checks a stale
          // snapshot's slot against the block it reads.
          fn(slot_label_[ls]);
        }
      }
    }
    // Load each sub pointer exactly once: a writer retiring the level nulls
    // the unique_ptr element in place, so re-dereferencing it mid-traversal
    // would fault even though the parked Sub itself stays alive.
    for (const auto& sub_ptr : subs_.view()) {
      const Sub* sub = sub_ptr.get();
      if (sub == nullptr) continue;
      uint32_t local_o;
      if (!sub->LocalObject(os, &local_o)) continue;
      sub->rel.ForEachLabelOfObject(local_o, [&](uint32_t ll) {
        fn(slot_label_[sub->GlobalLabel(ll)]);  // checked subscript
      });
    }
  }

  /// fn(object) for every object related to `label`.
  template <typename Fn>
  void ForEachObjectOfLabel(uint32_t label, Fn fn) const {
    const uint32_t* slot = label_slot_.Find(label);
    if (slot == nullptr) return;
    uint32_t ls = *slot;
    if (const C0List* box = c0_by_label_.Find(ls)) {
      if (const std::vector<uint32_t>* adj = box->Load()) {
        for (uint32_t os : *adj) fn(slot_obj_[os]);  // checked subscript
      }
    }
    for (const auto& sub_ptr : subs_.view()) {
      const Sub* sub = sub_ptr.get();  // one load; see ForEachLabelOfObject
      if (sub == nullptr) continue;
      uint32_t local_a;
      if (!sub->LocalLabel(ls, &local_a)) continue;
      sub->rel.ForEachObjectOfLabel(local_a, [&](uint32_t lo) {
        fn(slot_obj_[sub->GlobalObject(lo)]);  // checked subscript
      });
    }
  }

  /// Number of labels related to `object` (O(#subs * log n)).
  uint64_t CountLabelsOf(uint32_t object) const;

  /// Number of objects related to `label`.
  uint64_t CountObjectsOf(uint32_t label) const;

  uint64_t num_pairs() const { return num_pairs_; }
  uint64_t c0_pairs() const { return c0_pairs_; }
  uint32_t num_subcollections() const;
  uint32_t tau() const { return Tau(); }

  uint64_t SpaceBytes() const;

  /// Copies every live pair (external ids, sorted) — the snapshot-export
  /// path; the structure is untouched.
  void ExportLivePairs(std::vector<std::pair<uint32_t, uint32_t>>* out) const;

  /// Test hook: registry and size invariants.
  void CheckInvariants() const;

 private:
  /// A deletion-only sub-collection plus global->effective alphabet maps.
  struct Sub {
    DeletionOnlyRelation rel;
    RankSelect objects;  // bit o set iff global object slot o occurs here
    RankSelect labels;

    bool LocalObject(uint32_t global, uint32_t* local) const {
      if (global >= objects.size() || !objects.Get(global)) return false;
      *local = static_cast<uint32_t>(objects.Rank1(global));
      return true;
    }
    bool LocalLabel(uint32_t global, uint32_t* local) const {
      if (global >= labels.size() || !labels.Get(global)) return false;
      *local = static_cast<uint32_t>(labels.Rank1(global));
      return true;
    }
    uint32_t GlobalObject(uint32_t local) const {
      return static_cast<uint32_t>(objects.Select1(local));
    }
    uint32_t GlobalLabel(uint32_t local) const {
      return static_cast<uint32_t>(labels.Select1(local));
    }
  };

  DynamicRelationOptions opt_;
  // Reader-reachable containers use SeqHashMap / SeqVector
  // (util/seq_hash_map.h, util/seq_vector.h): under the serve layer's
  // optimistic seqlock a writer's realloc, rehash, or erase parks abandoned
  // buffers for in-flight readers, and every reader derives bounds and data
  // from a single pointer load. Write-only bookkeeping (free lists, pair
  // counts) stays plain. SN/NS tables: external id <-> dense slot.
  SeqHashMap<uint32_t, uint32_t> obj_slot_, label_slot_;
  SeqVector<uint32_t> slot_obj_, slot_label_;
  std::vector<uint32_t> free_obj_slots_, free_label_slots_;
  std::vector<uint32_t> obj_pair_count_, label_pair_count_;

  // C0: uncompressed adjacency lists over slots. Each list is an immutable
  // SeqBox snapshot so lock-free readers iterate it without coordination;
  // writers copy-modify-Store (amortized fine: C0 lists are schedule-bounded).
  using C0List = SeqBox<std::vector<uint32_t>>;
  SeqHashMap<uint32_t, C0List> c0_by_object_;
  SeqHashMap<uint32_t, C0List> c0_by_label_;
  SeqHashSet<uint64_t> c0_pairs_set_;
  uint64_t c0_pairs_ = 0;

  SeqVector<std::unique_ptr<Sub>> subs_;
  uint64_t num_pairs_ = 0;
  uint64_t nf_ = 0;

  static uint64_t Key(uint32_t os, uint32_t ls) { return PairKey(os, ls); }

  uint32_t Tau() const;
  uint64_t MaxSize(uint32_t level) const;

  uint32_t InternObject(uint32_t object);
  uint32_t InternLabel(uint32_t label);
  void ReleaseObject(uint32_t slot);
  void ReleaseLabel(uint32_t slot);

  bool C0Related(uint32_t os, uint32_t ls) const {
    return c0_pairs_set_.count(Key(os, ls)) > 0;
  }
  void C0Add(uint32_t os, uint32_t ls);
  bool C0Remove(uint32_t os, uint32_t ls);

  /// Builds a Sub from pairs given in *slot* space.
  std::unique_ptr<Sub> BuildSub(const std::vector<Pair>& slot_pairs) const;

  /// Drains C0 and levels 0..j into a rebuilt level j, plus `seed_pairs`.
  void MergeThrough(uint32_t j, std::vector<Pair> seed_pairs);
  /// Places `fresh` (new slot pairs, already interned and counted) into C0 or
  /// a merged level per the schedule. Shared by AddPair and AddPairsBulk.
  void PlaceFresh(std::vector<Pair> fresh);
  void PurgeIfNeeded(uint32_t level);
  void GlobalRebase();

  /// Exports a sub's live pairs in slot space.
  void ExportSub(const Sub& sub, std::vector<Pair>* out) const;
};

}  // namespace dyndex

#endif  // DYNDEX_RELATION_DYNAMIC_RELATION_H_
