// Degenerate-input semantics of the serving facades, regression-tested for
// every backend: empty / out-of-alphabet patterns, unknown document ids,
// out-of-range extract windows, empty documents, and relation ids beyond a
// backend's capacity must all answer totally (0 / empty / false) instead of
// tripping a DYNDEX_CHECK abort deep inside a backend.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "serve/dynamic_index.h"
#include "serve/relation_index.h"
#include "serve/sharded_index.h"
#include "text/concat_text.h"

namespace dyndex {
namespace {

std::vector<Backend> AllDocBackends() {
  return {Backend::kT1, Backend::kT2, Backend::kT3, Backend::kBaseline};
}

std::vector<RelationBackend> AllRelationBackends() {
  return {RelationBackend::kTheorem2, RelationBackend::kBaseline,
          RelationBackend::kGraph, RelationBackend::kDeletionOnly,
          RelationBackend::kFast};
}

DynamicIndexOptions SmallDocOptions() {
  DynamicIndexOptions opt;
  opt.min_c0 = 64;  // force documents past C0 into compressed levels
  return opt;
}

std::vector<Symbol> Doc(std::initializer_list<Symbol> s) { return s; }

TEST(FacadeHardening, DegeneratePatternsAnswerZeroOnEveryBackend) {
  for (Backend b : AllDocBackends()) {
    auto index = MakeDynamicIndex(b, SmallDocOptions());
    // Both cold (empty index) and warm.
    for (int warm = 0; warm < 2; ++warm) {
      SCOPED_TRACE(std::string(index->backend_name()) +
                   (warm ? " warm" : " cold"));
      EXPECT_EQ(index->Count({}), 0u);
      EXPECT_TRUE(index->Locate({}).empty());
      // Reserved / unrepresentable symbols: the sentinel, the separator, and
      // the internal terminator range must never match document boundaries.
      for (Symbol s : {kSentinel, kSeparator, kMaxPatternSymbol,
                       std::numeric_limits<Symbol>::max()}) {
        EXPECT_EQ(index->Count({s}), 0u) << "symbol " << s;
        EXPECT_TRUE(index->Locate({kMinSymbol, s}).empty()) << "symbol " << s;
      }
      if (warm == 0) {
        index->Insert(Doc({2, 3, 4, 2, 3}));
        index->Insert(Doc({3, 3, 3}));
        // Push one doc large enough to leave C0 on the transformations.
        index->Insert(std::vector<Symbol>(200, 2));
      }
    }
    // Sanity: real patterns still work after the degenerate probes
    // ({3,3,3} holds two overlapping occurrences).
    EXPECT_EQ(index->Count({3, 3}), 2u);
  }
}

TEST(FacadeHardening, UnknownDocIdsAnswerEmptyOnEveryBackend) {
  for (Backend b : AllDocBackends()) {
    auto index = MakeDynamicIndex(b, SmallDocOptions());
    SCOPED_TRACE(index->backend_name());
    DocId id = index->Insert(Doc({5, 6, 7, 8}));
    for (DocId bogus : {id + 1, DocId{12345}, kInvalidDocId}) {
      EXPECT_FALSE(index->Contains(bogus));
      EXPECT_EQ(index->DocLenOf(bogus), 0u);
      EXPECT_TRUE(index->Extract(bogus, 0, 4).empty());
      EXPECT_FALSE(index->Erase(bogus));
    }
    // Erased ids become unknown ids.
    EXPECT_TRUE(index->Erase(id));
    EXPECT_EQ(index->DocLenOf(id), 0u);
    EXPECT_TRUE(index->Extract(id, 0, 1).empty());
  }
}

TEST(FacadeHardening, ExtractClampsToStoredSuffixOnEveryBackend) {
  for (Backend b : AllDocBackends()) {
    auto index = MakeDynamicIndex(b, SmallDocOptions());
    SCOPED_TRACE(index->backend_name());
    std::vector<Symbol> doc = {9, 8, 7, 6, 5};
    DocId id = index->Insert(doc);
    EXPECT_EQ(index->Extract(id, 0, 5), doc);
    EXPECT_EQ(index->Extract(id, 0, 100), doc);  // len clamped
    EXPECT_EQ(index->Extract(id, 3, 100), (Doc({6, 5})));
    EXPECT_TRUE(index->Extract(id, 5, 1).empty());   // from == len
    EXPECT_TRUE(index->Extract(id, 99, 1).empty());  // from past the end
    EXPECT_TRUE(index->Extract(id, 2, 0).empty());   // empty window
  }
}

TEST(FacadeHardening, UnstorableDocumentsAreRejectedOnEveryBackend) {
  for (Backend b : AllDocBackends()) {
    auto index = MakeDynamicIndex(b, SmallDocOptions());
    SCOPED_TRACE(index->backend_name());
    EXPECT_EQ(index->Insert({}), kInvalidDocId);
    // Reserved symbols (sentinel, separator, the terminator range) must
    // never reach a backend's storage path.
    for (Symbol s : {kSentinel, kSeparator, kMaxPatternSymbol,
                     std::numeric_limits<Symbol>::max()}) {
      EXPECT_EQ(index->Insert(Doc({2, s, 3})), kInvalidDocId) << s;
    }
    if (b == Backend::kBaseline) {
      // Beyond the baseline's fixed alphabet capacity (max_symbol = 258).
      EXPECT_EQ(index->Insert(Doc({2, 300})), kInvalidDocId);
    } else {
      // The transformation backends remap any non-reserved symbol.
      DocId big = index->Insert(Doc({2, 70000, 5}));
      EXPECT_NE(big, kInvalidDocId);
      EXPECT_EQ(index->Count({70000u}), 1u);
      EXPECT_TRUE(index->Erase(big));
    }
    EXPECT_EQ(index->num_docs(), 0u);
    // A bulk batch mixing empty and real documents inserts the real ones and
    // reports kInvalidDocId at the empty slots.
    std::vector<DocId> ids = index->InsertBulk({Doc({2, 3}), {}, Doc({4})});
    ASSERT_EQ(ids.size(), 3u);
    EXPECT_NE(ids[0], kInvalidDocId);
    EXPECT_EQ(ids[1], kInvalidDocId);
    EXPECT_NE(ids[2], kInvalidDocId);
    EXPECT_EQ(index->num_docs(), 2u);
    EXPECT_EQ(index->DocLenOf(ids[2]), 1u);
  }
}

TEST(FacadeHardening, SingleCoreFacadePassesDegenerateQueriesThrough) {
  ShardedIndex index(1, Backend::kT2, SmallDocOptions());
  EXPECT_EQ(index.Count({}), 0u);
  EXPECT_TRUE(index.Locate({}).empty());
  std::vector<Symbol> out;
  EXPECT_FALSE(index.Extract(99, 0, 1, &out));
  index.InsertBatch({Doc({2, 2, 3})});
  EXPECT_EQ(index.Count({}), 0u);
  EXPECT_EQ(index.Count({2, 2}), 1u);
}

TEST(FacadeHardening, RelationIdsBeyondCapacityAnswerEmpty) {
  RelationIndexOptions opt;
  opt.baseline_max_objects = 8;
  opt.baseline_max_labels = 8;
  opt.min_c0 = 16;
  for (RelationBackend b : AllRelationBackends()) {
    auto rel = MakeRelationIndex(b, opt);
    SCOPED_TRACE(rel->backend_name());
    ASSERT_TRUE(rel->AddPair(1, 2));
    ASSERT_TRUE(rel->AddPair(3, 2));
    const uint32_t huge = std::numeric_limits<uint32_t>::max();
    for (uint32_t bogus : {uint32_t{8}, uint32_t{100000}, huge}) {
      // For fixed-capacity backends these are beyond capacity; for the
      // dynamic backends they are merely absent. Either way: total answers.
      EXPECT_FALSE(rel->Related(bogus, 2)) << bogus;
      EXPECT_FALSE(rel->Related(1, bogus)) << bogus;
      EXPECT_TRUE(rel->LabelsOf(bogus).empty()) << bogus;
      EXPECT_TRUE(rel->ObjectsOf(bogus).empty()) << bogus;
      EXPECT_EQ(rel->CountLabelsOf(bogus), 0u) << bogus;
      EXPECT_EQ(rel->CountObjectsOf(bogus), 0u) << bogus;
      EXPECT_FALSE(rel->RemovePair(bogus, bogus));
    }
    EXPECT_EQ(rel->num_pairs(), 2u);
    // Bulk batches drop unrepresentable pairs instead of aborting. The
    // deletion-only backend has fixed capacities; the baseline grows on
    // demand but cannot represent UINT32_MAX (it would need capacity 2^32);
    // the fast tier reserves the top two id values as hash sentinels; the
    // Theorem 2/3 structures accept any uint32 id.
    bool capped = b == RelationBackend::kBaseline ||
                  b == RelationBackend::kDeletionOnly ||
                  b == RelationBackend::kFast;
    uint64_t added = rel->AddPairsBulk({{2, 2}, {huge, 1}, {4, 4}});
    if (capped) {
      EXPECT_EQ(added, 2u);
      EXPECT_EQ(rel->num_pairs(), 4u);
    } else {
      EXPECT_EQ(added, 3u);
      EXPECT_TRUE(rel->Related(huge, 1));
    }
    EXPECT_TRUE(rel->Related(2, 2));
    EXPECT_TRUE(rel->Related(4, 4));
    rel->CheckInvariants();
  }
}

TEST(FacadeHardening, BaselineRelationGrowsCapacityOnDemand) {
  RelationIndexOptions opt;
  opt.baseline_max_objects = 4;
  opt.baseline_max_labels = 4;
  auto rel = MakeRelationIndex(RelationBackend::kBaseline, opt);
  ASSERT_TRUE(rel->AddPair(1, 2));
  // Ids beyond both initial capacities grow the structure (doubling rebuild)
  // instead of being screened out.
  EXPECT_TRUE(rel->AddPair(100, 200));
  EXPECT_TRUE(rel->Related(100, 200));
  EXPECT_EQ(rel->CountLabelsOf(100), 1u);
  EXPECT_EQ(rel->LabelsOf(100), std::vector<uint32_t>{200});
  // Queries alone never grow: absent ids answer empty.
  EXPECT_FALSE(rel->Related(5000, 1));
  EXPECT_TRUE(rel->LabelsOf(5000).empty());
  EXPECT_FALSE(rel->RemovePair(5000, 1));
  // The bulk path grows too (warm relation: per-pair inserts).
  EXPECT_EQ(rel->AddPairsBulk({{1000, 1}, {2, 900}}), 2u);
  EXPECT_TRUE(rel->Related(1000, 1));
  EXPECT_TRUE(rel->Related(2, 900));
  // Pairs inserted before a growth rebuild survive it.
  EXPECT_TRUE(rel->Related(1, 2));
  EXPECT_EQ(rel->num_pairs(), 4u);
  rel->CheckInvariants();
}

TEST(FacadeHardening, DeletionOnlyBackendServesMixedChurn) {
  auto rel = MakeRelationIndex(RelationBackend::kDeletionOnly, {});
  // Empty-relation queries (the default-constructed static core has a zero
  // id universe; nothing may abort).
  EXPECT_EQ(rel->num_pairs(), 0u);
  EXPECT_FALSE(rel->Related(0, 0));
  EXPECT_TRUE(rel->LabelsOf(0).empty());
  EXPECT_EQ(rel->CountLabelsOf(7), 0u);
  EXPECT_EQ(rel->CountObjectsOf(7), 0u);
  EXPECT_FALSE(rel->RemovePair(3, 3));
  // Insert / delete / re-insert across rebuilds and a shrinking universe.
  EXPECT_TRUE(rel->AddPair(5, 9));
  EXPECT_TRUE(rel->AddPair(2, 1));
  EXPECT_FALSE(rel->AddPair(5, 9));
  EXPECT_EQ(rel->AddPairsBulk({{5, 9}, {6, 1}, {6, 1}, {7, 2}}), 2u);
  EXPECT_EQ(rel->num_pairs(), 4u);
  EXPECT_TRUE(rel->RemovePair(7, 2));  // drops the largest object id
  EXPECT_EQ(rel->CountLabelsOf(7), 0u);
  EXPECT_TRUE(rel->RemovePair(5, 9));  // purge may shrink num_labels
  EXPECT_EQ(rel->num_pairs(), 2u);
  EXPECT_TRUE(rel->Related(2, 1));
  EXPECT_TRUE(rel->Related(6, 1));
  EXPECT_EQ(rel->CountObjectsOf(1), 2u);
  EXPECT_TRUE(rel->AddPair(5, 9));  // universe grows back
  EXPECT_TRUE(rel->Related(5, 9));
  rel->CheckInvariants();
}

}  // namespace
}  // namespace dyndex
