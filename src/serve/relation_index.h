// The relation-serving facade: one polymorphic interface over every dynamic
// binary-relation structure in the repo, so servers, tests and benchmarks can
// swap backends without recompiling against a different template — the
// Theorem 2/3 analogue of serve/dynamic_index.h.
//
// Three families implement it (via one duck-typed adapter):
//  * DynamicRelation  -- Theorem 2: the paper's framework (C0 + deletion-only
//                        compressed sub-collections on the T1 schedule)
//  * BaselineRelation -- Navarro-Nekrich [35]: dynamic wavelet tree + dynamic
//                        bit vector, the structure Theorem 2 improves on
//  * DynamicGraph     -- Theorem 3: a digraph served as the relation
//                        edge u -> v == pair (u, v)
//  * FastRelation     -- uncompressed speed tier: radix-paged adjacency
//                        sets + mirrored reverse index (relation/fast_relation.h)
//
// All query methods are const: the adapter stores the relation by value and
// calls through from const members, so any mutation hiding in a backend's
// query path fails to compile here. This is the single-threaded facade;
// serve/sharded_relation.h adds the reader/writer discipline on top.
#ifndef DYNDEX_SERVE_RELATION_INDEX_H_
#define DYNDEX_SERVE_RELATION_INDEX_H_

#include <concepts>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "relation/baseline_relation.h"
#include "relation/deletion_only_shell.h"
#include "relation/dynamic_graph.h"
#include "relation/dynamic_relation.h"
#include "relation/fast_relation.h"

namespace dyndex {

/// Batched (object, label) pairs — or (source, target) edges — in external
/// id space, as produced by gen/relation_gen.h.
using RelationPairs = std::vector<std::pair<uint32_t, uint32_t>>;

/// Polymorphic fully-dynamic binary relation / digraph.
///
/// Degenerate inputs have uniform, total semantics at this facade for every
/// backend (backends with fixed capacities keep strict DYNDEX_CHECK
/// preconditions): ids a backend cannot represent never reach it — AddPair /
/// RemovePair / Related report false, LabelsOf / ObjectsOf report empty, the
/// counting queries report 0, and nothing aborts.
class RelationIndex {
 public:
  virtual ~RelationIndex() = default;

  // Mutations (writer thread only; see sharded_relation.h).
  virtual bool AddPair(uint32_t object, uint32_t label) = 0;
  virtual bool RemovePair(uint32_t object, uint32_t label) = 0;

  /// Adds a batch; returns how many pairs were new. Backends with a bulk
  /// path (all three) load cold-start batches in one build instead of
  /// |batch| pairwise dynamic insertions; the default loops over AddPair.
  virtual uint64_t AddPairsBulk(const RelationPairs& pairs) {
    uint64_t added = 0;
    for (auto [o, a] : pairs) added += AddPair(o, a);
    return added;
  }

  // Queries (const end to end).
  virtual bool Related(uint32_t object, uint32_t label) const = 0;
  virtual std::vector<uint32_t> LabelsOf(uint32_t object) const = 0;
  virtual std::vector<uint32_t> ObjectsOf(uint32_t label) const = 0;
  virtual uint64_t CountLabelsOf(uint32_t object) const = 0;
  virtual uint64_t CountObjectsOf(uint32_t label) const = 0;
  virtual uint64_t num_pairs() const = 0;
  virtual uint64_t SpaceBytes() const = 0;

  /// Structural self-check (no-op where the backend offers none).
  virtual void CheckInvariants() const {}

  /// Copies every live pair (sorted, duplicate-free) — the snapshot-export
  /// path; restoring is AddPairsBulk on a fresh facade (the logical state of
  /// a relation is exactly its pair set).
  virtual void ExportLivePairs(RelationPairs* out) const = 0;

  virtual const char* backend_name() const = 0;

  // Graph view (Theorem 3): edge u -> v is the pair (u, v), so out-neighbors
  // are labels-of-u and reverse (in-)neighbors are objects-of-v.
  bool AddEdge(uint32_t u, uint32_t v) { return AddPair(u, v); }
  bool RemoveEdge(uint32_t u, uint32_t v) { return RemovePair(u, v); }
  uint64_t AddEdgesBulk(const RelationPairs& edges) {
    return AddPairsBulk(edges);
  }
  bool HasEdge(uint32_t u, uint32_t v) const { return Related(u, v); }
  std::vector<uint32_t> Neighbors(uint32_t u) const { return LabelsOf(u); }
  std::vector<uint32_t> Reverse(uint32_t v) const { return ObjectsOf(v); }
  uint64_t OutDegree(uint32_t u) const { return CountLabelsOf(u); }
  uint64_t InDegree(uint32_t v) const { return CountObjectsOf(v); }
  uint64_t num_edges() const { return num_pairs(); }
};

/// The complete pair-named backend surface (DynamicRelation-style naming).
/// Bulk members are deliberately not part of the concept: AddPairsBulk /
/// AddEdgesBulk are optional capabilities, either name works regardless of
/// which family the backend's point members use.
template <typename Rel>
concept PairNamedRelationBackend =
    requires(Rel& w, const Rel& r, uint32_t id, RelationPairs* out) {
      { w.AddPair(id, id) } -> std::convertible_to<bool>;
      { w.RemovePair(id, id) } -> std::convertible_to<bool>;
      { r.Related(id, id) } -> std::convertible_to<bool>;
      r.ForEachLabelOfObject(id, [](uint32_t) {});
      r.ForEachObjectOfLabel(id, [](uint32_t) {});
      { r.CountLabelsOf(id) } -> std::convertible_to<uint64_t>;
      { r.CountObjectsOf(id) } -> std::convertible_to<uint64_t>;
      { r.num_pairs() } -> std::convertible_to<uint64_t>;
      { r.SpaceBytes() } -> std::convertible_to<uint64_t>;
      r.ExportLivePairs(out);
    };

/// The complete edge-named backend surface (DynamicGraph-style naming).
template <typename Rel>
concept EdgeNamedRelationBackend =
    requires(Rel& w, const Rel& r, uint32_t id, RelationPairs* out) {
      { w.AddEdge(id, id) } -> std::convertible_to<bool>;
      { w.RemoveEdge(id, id) } -> std::convertible_to<bool>;
      { r.HasEdge(id, id) } -> std::convertible_to<bool>;
      r.ForEachOutNeighbor(id, [](uint32_t) {});
      r.ForEachInNeighbor(id, [](uint32_t) {});
      { r.OutDegree(id) } -> std::convertible_to<uint64_t>;
      { r.InDegree(id) } -> std::convertible_to<uint64_t>;
      { r.num_edges() } -> std::convertible_to<uint64_t>;
      { r.SpaceBytes() } -> std::convertible_to<uint64_t>;
      r.ExportLiveEdges(out);
    };

/// Adapter over any relation-shaped backend. Pair-named members
/// (AddPair/RemovePair/Related/ForEach*/Count*) and edge-named members
/// (AddEdge/RemoveEdge/HasEdge/ForEach*Neighbor/Degrees) are both accepted,
/// detected with `requires`; optional capabilities (AddPairsBulk or
/// AddEdgesBulk — either name, no need for both — and CheckInvariants) are
/// forwarded when present.
template <typename Rel>
class RelationAdapter final : public RelationIndex {
  static_assert(
      PairNamedRelationBackend<Rel> || EdgeNamedRelationBackend<Rel>,
      "RelationAdapter<Rel>: Rel satisfies neither the pair-named relation "
      "surface (AddPair / RemovePair / Related / ForEachLabelOfObject / "
      "ForEachObjectOfLabel / CountLabelsOf / CountObjectsOf / num_pairs / "
      "SpaceBytes / ExportLivePairs) nor the edge-named graph surface "
      "(AddEdge / RemoveEdge / HasEdge / ForEachOutNeighbor / "
      "ForEachInNeighbor / OutDegree / InDegree / num_edges / SpaceBytes / "
      "ExportLiveEdges). Implement one family completely; the bulk member "
      "(AddPairsBulk or AddEdgesBulk) stays optional under either name.");

 public:
  template <typename... Args>
  explicit RelationAdapter(const char* name, Args&&... args)
      : name_(name), rel_(std::forward<Args>(args)...) {}

  bool AddPair(uint32_t object, uint32_t label) override {
    if (!Representable(object, label)) return false;
    if constexpr (requires(Rel& r) { r.AddPair(object, label); }) {
      return rel_.AddPair(object, label);
    } else {
      return rel_.AddEdge(object, label);
    }
  }

  bool RemovePair(uint32_t object, uint32_t label) override {
    if (!Representable(object, label)) return false;
    if constexpr (requires(Rel& r) { r.RemovePair(object, label); }) {
      return rel_.RemovePair(object, label);
    } else {
      return rel_.RemoveEdge(object, label);
    }
  }

  uint64_t AddPairsBulk(const RelationPairs& pairs) override {
    // Screen out unrepresentable pairs once, so backend bulk builds see only
    // ids within capacity (fixed-capacity backends abort otherwise).
    const RelationPairs* effective = &pairs;
    RelationPairs kept;
    if constexpr (HasCapacity()) {
      bool all_ok = true;
      for (auto [o, a] : pairs) all_ok &= Representable(o, a);
      if (!all_ok) {
        for (auto [o, a] : pairs) {
          if (Representable(o, a)) kept.push_back({o, a});
        }
        effective = &kept;
      }
    }
    if constexpr (requires(Rel& r) { r.AddPairsBulk(pairs); }) {
      return rel_.AddPairsBulk(*effective);
    } else if constexpr (requires(Rel& r) { r.AddEdgesBulk(pairs); }) {
      return rel_.AddEdgesBulk(*effective);
    } else {
      return RelationIndex::AddPairsBulk(*effective);
    }
  }

  bool Related(uint32_t object, uint32_t label) const override {
    if (!Representable(object, label)) return false;
    if constexpr (requires(const Rel& r) { r.Related(object, label); }) {
      return rel_.Related(object, label);
    } else {
      return rel_.HasEdge(object, label);
    }
  }

  std::vector<uint32_t> LabelsOf(uint32_t object) const override {
    if (!ObjectInRange(object)) return {};
    std::vector<uint32_t> out;
    if constexpr (requires(const Rel& r) {
                    r.ForEachLabelOfObject(object, [](uint32_t) {});
                  }) {
      rel_.ForEachLabelOfObject(object,
                                [&](uint32_t a) { out.push_back(a); });
    } else {
      rel_.ForEachOutNeighbor(object, [&](uint32_t a) { out.push_back(a); });
    }
    return out;
  }

  std::vector<uint32_t> ObjectsOf(uint32_t label) const override {
    if (!LabelInRange(label)) return {};
    std::vector<uint32_t> out;
    if constexpr (requires(const Rel& r) {
                    r.ForEachObjectOfLabel(label, [](uint32_t) {});
                  }) {
      rel_.ForEachObjectOfLabel(label, [&](uint32_t o) { out.push_back(o); });
    } else {
      rel_.ForEachInNeighbor(label, [&](uint32_t o) { out.push_back(o); });
    }
    return out;
  }

  uint64_t CountLabelsOf(uint32_t object) const override {
    if (!ObjectInRange(object)) return 0;
    if constexpr (requires(const Rel& r) { r.CountLabelsOf(object); }) {
      return rel_.CountLabelsOf(object);
    } else {
      return rel_.OutDegree(object);
    }
  }

  uint64_t CountObjectsOf(uint32_t label) const override {
    if (!LabelInRange(label)) return 0;
    if constexpr (requires(const Rel& r) { r.CountObjectsOf(label); }) {
      return rel_.CountObjectsOf(label);
    } else {
      return rel_.InDegree(label);
    }
  }

  uint64_t num_pairs() const override {
    if constexpr (requires(const Rel& r) { r.num_pairs(); }) {
      return rel_.num_pairs();
    } else {
      return rel_.num_edges();
    }
  }

  uint64_t SpaceBytes() const override { return rel_.SpaceBytes(); }

  void CheckInvariants() const override {
    if constexpr (requires(const Rel& r) { r.CheckInvariants(); }) {
      rel_.CheckInvariants();
    }
  }

  void ExportLivePairs(RelationPairs* out) const override {
    if constexpr (requires(const Rel& r) { r.ExportLivePairs(out); }) {
      rel_.ExportLivePairs(out);
    } else {
      rel_.ExportLiveEdges(out);
    }
  }

  const char* backend_name() const override { return name_; }

  Rel& relation() { return rel_; }
  const Rel& relation() const { return rel_; }

 private:
  /// Whether the backend advertises fixed id capacities (the deletion-only
  /// shell does; the Theorem 2/3 structures accept any uint32 id and the
  /// Navarro-Nekrich baseline grows its capacities on demand).
  static constexpr bool HasCapacity() {
    return requires(const Rel& r) {
      r.max_objects();
      r.max_labels();
    };
  }

  bool ObjectInRange(uint32_t object) const {
    if constexpr (HasCapacity()) return object < rel_.max_objects();
    return true;
  }
  bool LabelInRange(uint32_t label) const {
    if constexpr (HasCapacity()) return label < rel_.max_labels();
    return true;
  }
  bool Representable(uint32_t object, uint32_t label) const {
    return ObjectInRange(object) && LabelInRange(label);
  }

  const char* name_;
  Rel rel_;
};

/// Which structure backs the relation facade.
///  * kTheorem2     -- the paper's framework (DynamicRelation)
///  * kBaseline     -- Navarro-Nekrich dynamic rank/select (BaselineRelation)
///  * kGraph        -- Theorem 3 digraph view (DynamicGraph)
///  * kDeletionOnly -- Section 5's deletion-only structure behind the
///                     rebuild-on-insert shell (DeletionOnlyShell)
///  * kFast         -- uncompressed speed tier (FastRelation): radix-paged
///                     directory of inline/hash adjacency sets, mirrored
///                     reverse index — bytes traded for raw update and scan
///                     rate (the hot tier; the succinct backends are the
///                     cold tier)
enum class RelationBackend { kTheorem2, kBaseline, kGraph, kDeletionOnly, kFast };

const char* RelationBackendName(RelationBackend backend);

/// One options bag for every backend; fields irrelevant to the chosen
/// backend are ignored (e.g. `baseline_*` outside kBaseline).
struct RelationIndexOptions {
  uint32_t tau = 0;        // dead-fraction purge knob; 0 = auto
  double epsilon = 0.5;    // Transformation-1 growth exponent
  uint64_t min_c0 = 1024;  // C0 capacity floor in pairs
  uint32_t baseline_max_objects = 4096;  // initial capacities of [35];
  uint32_t baseline_max_labels = 4096;   // they double on demand
  uint32_t fast_inline_threshold = 12;   // kFast: sorted-array -> hash-set
                                         // promotion size
};

/// Builds a facade over the requested backend.
std::unique_ptr<RelationIndex> MakeRelationIndex(
    RelationBackend backend, const RelationIndexOptions& opt = {});

}  // namespace dyndex

#endif  // DYNDEX_SERVE_RELATION_INDEX_H_
