// Durability plumbing of the serving facades: ShardedIndex / ShardedRelation
// bound to a MemEnv directory, at K = 1 (the single-core case, state in
// shard-0/) and at K > 1 — batch logging, checkpointing, crash-and-reopen
// recovery, the group-commit window, the loud-refusal paths (mismatched
// backend, mismatched shard count, corrupt snapshot, vanished shard state,
// the single-core top-level layout), and the write order that keeps every
// fsync outside the exclusive section. Recovery folds the log tail into one
// state and builds it once; the Fold* tests pin that fold to what a
// batch-by-batch replay would have served.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "persist/env.h"
#include "persist/snapshot.h"
#include "persist/status.h"
#include "persist/wal.h"
#include "serve/dynamic_index.h"
#include "serve/persistence.h"
#include "serve/relation_index.h"
#include "serve/sharded_index.h"
#include "serve/sharded_relation.h"

namespace dyndex {
namespace {

using persist::MemEnv;

std::vector<Symbol> Doc(int tag, int len) {
  std::vector<Symbol> doc;
  doc.reserve(len);
  for (int i = 0; i < len; ++i) {
    doc.push_back(kMinSymbol + static_cast<Symbol>((tag * 31 + i * 7) % 13));
  }
  return doc;
}

/// Asserts that `facade` serves exactly the documents in `model`
/// (id -> symbols), checking membership, content, and the doc count.
template <typename Facade>
void ExpectServes(Facade& facade,
                  const std::map<DocId, std::vector<Symbol>>& model) {
  EXPECT_EQ(facade.num_docs(), model.size());
  for (const auto& [id, symbols] : model) {
    std::vector<Symbol> got;
    ASSERT_TRUE(facade.Extract(id, 0, symbols.size(), &got)) << "id=" << id;
    EXPECT_EQ(got, symbols) << "id=" << id;
  }
}

/// Appends raw frames past the facade's last logged batch: a frame whose
/// CRC holds but whose payload no decoder accepts (then a well-formed one
/// behind it), or a well-formed frame that skips a sequence number. Either
/// way the tail is inconsistent, not torn, so recovery must refuse it.
void AppendBadTail(MemEnv& env, uint64_t last_seq, bool gap,
                   const std::string& good_payload) {
  std::unique_ptr<persist::WalWriter> wal;
  ASSERT_TRUE(
      persist::WalWriter::OpenForAppend(&env, "db/shard-0/WAL", &wal).ok());
  if (gap) {
    ASSERT_TRUE(wal->Append(last_seq + 2, good_payload).ok());
  } else {
    ASSERT_TRUE(wal->Append(last_seq + 1, std::string("\x63\0\0\0\0", 5)).ok());
    ASSERT_TRUE(wal->Append(last_seq + 2, good_payload).ok());
  }
  ASSERT_TRUE(wal->Sync().ok());
}

class IndexDurabilityTest : public ::testing::TestWithParam<Backend> {};

TEST_P(IndexDurabilityTest, RoundTripThroughCrash) {
  MemEnv env;
  std::map<DocId, std::vector<Symbol>> model;
  {
    ShardedIndex index(1, GetParam());
    ASSERT_TRUE(index.OpenDurable(&env, "db").ok());
    EXPECT_TRUE(index.durable());
    for (int batch = 0; batch < 3; ++batch) {
      std::vector<std::vector<Symbol>> docs;
      for (int d = 0; d < 4; ++d) docs.push_back(Doc(batch * 4 + d, 6 + d));
      std::vector<DocId> ids = index.InsertBatch(docs);
      ASSERT_EQ(ids.size(), docs.size());
      for (size_t d = 0; d < docs.size(); ++d) model[ids[d]] = docs[d];
    }
    std::vector<DocId> dead = {model.begin()->first,
                               std::next(model.begin(), 5)->first};
    EXPECT_EQ(index.EraseBatch(dead), 2u);
    for (DocId id : dead) model.erase(id);
    // No CloseDurable: the facade just vanishes, as in a crash. Every batch
    // was synced (default group-commit window of 1), so nothing may be lost.
  }
  ShardedIndex reopened(1, GetParam());
  RecoveryStats stats;
  ASSERT_TRUE(reopened.OpenDurable(&env, "db", {}, &stats).ok());
  EXPECT_FALSE(stats.snapshot_loaded);
  EXPECT_EQ(stats.replayed_batches, 4u);  // 3 inserts + 1 erase
  EXPECT_EQ(stats.dropped_wal_bytes, 0u);
  EXPECT_EQ(reopened.epochs()[0], 4u);
  ExpectServes(reopened, model);
  // The recovered facade keeps logging: a post-recovery batch must survive
  // the next reopen too.
  std::vector<DocId> extra = reopened.InsertBatch({Doc(99, 9)});
  ASSERT_EQ(extra.size(), 1u);
  model[extra[0]] = Doc(99, 9);
  ASSERT_TRUE(reopened.CloseDurable().ok());
  EXPECT_FALSE(reopened.durable());

  ShardedIndex again(1, GetParam());
  ASSERT_TRUE(again.OpenDurable(&env, "db", {}, &stats).ok());
  EXPECT_EQ(stats.replayed_batches, 5u);
  ExpectServes(again, model);
}

TEST_P(IndexDurabilityTest, CheckpointCutsTheReplayTail) {
  MemEnv env;
  std::map<DocId, std::vector<Symbol>> model;
  {
    ShardedIndex index(1, GetParam());
    ASSERT_TRUE(index.OpenDurable(&env, "db").ok());
    for (int batch = 0; batch < 4; ++batch) {
      std::vector<DocId> ids = index.InsertBatch({Doc(batch, 8)});
      model[ids[0]] = Doc(batch, 8);
      if (batch == 2) {
        ASSERT_TRUE(index.Checkpoint().ok());
      }
    }
  }
  ShardedIndex reopened(1, GetParam());
  RecoveryStats stats;
  ASSERT_TRUE(reopened.OpenDurable(&env, "db", {}, &stats).ok());
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(stats.snapshot_seq, 3u);     // checkpoint after the third batch
  EXPECT_EQ(stats.replayed_batches, 1u)  // only the fourth replays
      << "checkpoint did not reset the WAL";
  ExpectServes(reopened, model);
  // Ids minted after recovery must not collide with snapshot-restored ids.
  std::vector<DocId> fresh = reopened.InsertBatch({Doc(50, 5)});
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(model.count(fresh[0]), 0u);
}

TEST_P(IndexDurabilityTest, GroupCommitWindowLosesOnlyTheUnsyncedTail) {
  MemEnv env;
  DurableOptions opt;
  opt.sync_every_batches = 3;
  {
    ShardedIndex index(1, GetParam());
    ASSERT_TRUE(index.OpenDurable(&env, "db", opt).ok());
    for (int batch = 0; batch < 5; ++batch) {
      index.InsertBatch({Doc(batch, 8)});
    }
    // Batches 1-3 hit the window and synced; 4-5 sit in the page cache.
    env.SimulateCrash();
  }
  ShardedIndex reopened(1, GetParam());
  RecoveryStats stats;
  ASSERT_TRUE(reopened.OpenDurable(&env, "db", opt, &stats).ok());
  EXPECT_EQ(stats.replayed_batches, 3u);
  EXPECT_EQ(reopened.num_docs(), 3u);
}

TEST_P(IndexDurabilityTest, SyncWalNarrowsTheLossWindowToZero) {
  MemEnv env;
  DurableOptions opt;
  opt.sync_every_batches = 100;  // effectively manual
  {
    ShardedIndex index(1, GetParam());
    ASSERT_TRUE(index.OpenDurable(&env, "db", opt).ok());
    index.InsertBatch({Doc(0, 8), Doc(1, 8)});
    ASSERT_TRUE(index.SyncWal().ok());
    env.SimulateCrash();
  }
  ShardedIndex reopened(1, GetParam());
  ASSERT_TRUE(reopened.OpenDurable(&env, "db", opt).ok());
  EXPECT_EQ(reopened.num_docs(), 2u);
}

TEST_P(IndexDurabilityTest, FoldDropsDocumentsErasedWithinTheTail) {
  MemEnv env;
  std::map<DocId, std::vector<Symbol>> model;
  std::vector<DocId> ids;
  {
    ShardedIndex index(1, GetParam());
    ASSERT_TRUE(index.OpenDurable(&env, "db").ok());
    std::vector<std::vector<Symbol>> docs = {Doc(1, 9), Doc(2, 7), Doc(3, 8)};
    ids = index.InsertBatch(docs);
    ASSERT_EQ(ids.size(), docs.size());
    for (size_t d = 0; d < docs.size(); ++d) model[ids[d]] = docs[d];
    EXPECT_EQ(index.EraseBatch({ids[1]}), 1u);
    model.erase(ids[1]);
    std::vector<DocId> more = index.InsertBatch({Doc(4, 6)});
    model[more[0]] = Doc(4, 6);
    EXPECT_EQ(index.EraseBatch({more[0], ids[2]}), 2u);
    model.erase(more[0]);
    model.erase(ids[2]);
  }
  ShardedIndex reopened(1, GetParam());
  RecoveryStats stats;
  ASSERT_TRUE(reopened.OpenDurable(&env, "db", {}, &stats).ok());
  EXPECT_EQ(stats.replayed_batches, 4u);
  EXPECT_EQ(reopened.epochs()[0], 4u);
  ExpectServes(reopened, model);
  std::vector<Symbol> got;
  EXPECT_FALSE(reopened.Extract(ids[1], 0, 1, &got));
  reopened.unsynchronized_shard(0).CheckInvariants();
}

TEST_P(IndexDurabilityTest, FoldErasesSnapshotDocumentsAndIgnoresUnknownIds) {
  MemEnv env;
  std::map<DocId, std::vector<Symbol>> model;
  std::vector<DocId> ids;
  {
    ShardedIndex index(1, GetParam());
    ASSERT_TRUE(index.OpenDurable(&env, "db").ok());
    std::vector<std::vector<Symbol>> docs = {Doc(5, 9), Doc(6, 7), Doc(7, 8)};
    ids = index.InsertBatch(docs);
    for (size_t d = 0; d < docs.size(); ++d) model[ids[d]] = docs[d];
    ASSERT_TRUE(index.Checkpoint().ok());
    // A snapshot document erased in the tail, beside an id never minted;
    // then the same document again, now unknown as well.
    EXPECT_EQ(index.EraseBatch({ids[0], 987654}), 1u);
    model.erase(ids[0]);
    EXPECT_EQ(index.EraseBatch({ids[0]}), 0u);
    std::vector<DocId> more = index.InsertBatch({Doc(8, 5)});
    model[more[0]] = Doc(8, 5);
  }
  ShardedIndex reopened(1, GetParam());
  RecoveryStats stats;
  ASSERT_TRUE(reopened.OpenDurable(&env, "db", {}, &stats).ok());
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(stats.replayed_batches, 3u);
  EXPECT_EQ(reopened.epochs()[0], 3u);
  ExpectServes(reopened, model);
  std::vector<DocId> fresh = reopened.InsertBatch({Doc(9, 5)});
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(model.count(fresh[0]), 0u);
  EXPECT_NE(fresh[0], ids[0]);  // an erased id is never minted again
}

TEST_P(IndexDurabilityTest, FoldMintsNoIdForARejectedDocument) {
  MemEnv env;
  // The twin sees the same batches and never crashes: it is what the
  // pre-crash facade would have done next.
  ShardedIndex twin(1, GetParam());
  std::map<DocId, std::vector<Symbol>> model;
  {
    ShardedIndex index(1, GetParam());
    ASSERT_TRUE(index.OpenDurable(&env, "db").ok());
    // Rejected by every backend: an empty document, a symbol below
    // kMinSymbol, a reserved symbol. Symbol 300 exceeds only the baseline's
    // default alphabet, so the backends disagree on that one.
    std::vector<std::vector<Symbol>> batch = {
        Doc(1, 6), {}, {kMinSymbol, 0}, Doc(2, 5),
        {kMinSymbol, kMaxPatternSymbol}, {kMinSymbol, 300}, Doc(3, 4)};
    std::vector<DocId> ids = index.InsertBatch(batch);
    ASSERT_EQ(ids, twin.InsertBatch(batch));
    for (size_t d = 0; d < batch.size(); ++d) {
      if (ids[d] != kInvalidDocId) model[ids[d]] = batch[d];
    }
    EXPECT_EQ(ids[1], kInvalidDocId);
    EXPECT_EQ(ids[2], kInvalidDocId);
    EXPECT_EQ(ids[4], kInvalidDocId);
    EXPECT_EQ(index.EraseBatch({ids[0]}), 1u);
    EXPECT_EQ(twin.EraseBatch({ids[0]}), 1u);
    model.erase(ids[0]);
  }
  ShardedIndex reopened(1, GetParam());
  RecoveryStats stats;
  ASSERT_TRUE(reopened.OpenDurable(&env, "db", {}, &stats).ok());
  EXPECT_EQ(stats.replayed_batches, 2u);
  ExpectServes(reopened, model);
  std::vector<std::vector<Symbol>> next = {Doc(9, 6), {}, Doc(10, 3)};
  EXPECT_EQ(reopened.InsertBatch(next), twin.InsertBatch(next));
}

TEST_P(IndexDurabilityTest, CorruptMidTailFrameIsLoudAndServesNothing) {
  for (bool gap : {false, true}) {
    SCOPED_TRACE(gap ? "sequence gap" : "undecodable payload");
    MemEnv env;
    {
      ShardedIndex index(1, GetParam());
      ASSERT_TRUE(index.OpenDurable(&env, "db").ok());
      index.InsertBatch({Doc(1, 8), Doc(2, 8)});
      index.InsertBatch({Doc(3, 8)});
    }
    AppendBadTail(env, /*last_seq=*/2, gap,
                  serve_persist::EncodeInsertBatch({Doc(4, 8)}));
    ShardedIndex reopened(1, GetParam());
    persist::Status s = reopened.OpenDurable(&env, "db");
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_FALSE(reopened.durable());
    EXPECT_EQ(reopened.num_docs(), 0u);
    EXPECT_EQ(reopened.epochs()[0], 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, IndexDurabilityTest,
                         ::testing::Values(Backend::kT1, Backend::kT2,
                                           Backend::kT3, Backend::kBaseline),
                         [](const auto& info) {
                           return BackendName(info.param);
                         });

TEST(IndexDurabilityRefusalTest, BackendMismatchIsLoud) {
  MemEnv env;
  {
    ShardedIndex index(1, Backend::kT1);
    ASSERT_TRUE(index.OpenDurable(&env, "db").ok());
    index.InsertBatch({Doc(0, 8)});
    ASSERT_TRUE(index.Checkpoint().ok());
  }
  ShardedIndex other(1, Backend::kBaseline);
  persist::Status s = other.OpenDurable(&env, "db");
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_FALSE(other.durable());
}

TEST(IndexDurabilityRefusalTest, CorruptSnapshotIsLoudNotEmpty) {
  MemEnv env;
  {
    ShardedIndex index(1, Backend::kT1);
    ASSERT_TRUE(index.OpenDurable(&env, "db").ok());
    index.InsertBatch({Doc(0, 64)});
    ASSERT_TRUE(index.Checkpoint().ok());
  }
  ASSERT_TRUE(env.CorruptByte("db/shard-0/SNAPSHOT", 40, 0x08).ok());
  ShardedIndex reopened(1, Backend::kT1);
  persist::Status s = reopened.OpenDurable(&env, "db");
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(reopened.num_docs(), 0u);
  EXPECT_FALSE(reopened.durable());
}

TEST(IndexDurabilityRefusalTest, RelationWalInAnIndexDirIsLoud) {
  MemEnv env;
  {
    ShardedRelation relation(1, RelationBackend::kBaseline);
    ASSERT_TRUE(relation.OpenDurable(&env, "rel").ok());
    relation.AddPairsBatch({{1, 2}});
    ShardedIndex index(1, Backend::kT1);
    ASSERT_TRUE(index.OpenDurable(&env, "db").ok());
  }
  // The index directory's manifest checks out; its shard log is a
  // relation's.
  ASSERT_TRUE(env.RenameFile("rel/shard-0/WAL", "db/shard-0/WAL").ok());
  ShardedIndex index(1, Backend::kT1);
  persist::Status s = index.OpenDurable(&env, "db");
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

/// Writes a single-core durable directory — SNAPSHOT and / or WAL at the
/// top of `dir`, no MANIFEST — with the persist API alone: a snapshot of
/// `snapshot_payload` in `section` and a one-frame log of `wal_payload`.
void WriteSingleCoreLayout(MemEnv& env, const std::string& dir,
                           bool with_snapshot, bool with_wal,
                           serve_persist::StateKind kind, const char* backend,
                           const char* section,
                           const std::string& snapshot_payload,
                           const std::string& wal_payload) {
  ASSERT_TRUE(env.CreateDir(dir).ok());
  if (with_snapshot) {
    serve_persist::SnapshotMeta meta;
    meta.kind = kind;
    meta.backend = backend;
    meta.next_id = 1;
    std::vector<persist::SnapshotSection> sections = {
        {serve_persist::kMetaSection, serve_persist::EncodeMeta(meta)},
        {section, snapshot_payload}};
    ASSERT_TRUE(
        persist::WriteSnapshotFile(&env, dir + "/SNAPSHOT", sections).ok());
  }
  if (with_wal) {
    std::unique_ptr<persist::WalWriter> wal;
    ASSERT_TRUE(persist::WalWriter::Create(&env, dir + "/WAL", &wal).ok());
    ASSERT_TRUE(wal->Append(1, wal_payload).ok());
    ASSERT_TRUE(wal->Sync().ok());
  }
}

TEST(IndexDurabilityRefusalTest, SingleCoreLayoutIsRefusedNotServedEmpty) {
  for (auto [with_snapshot, with_wal] : {std::pair{true, true},
                                         std::pair{true, false},
                                         std::pair{false, true}}) {
    SCOPED_TRACE(std::string(with_snapshot ? "SNAPSHOT " : "") +
                 (with_wal ? "WAL" : ""));
    MemEnv env;
    WriteSingleCoreLayout(
        env, "db", with_snapshot, with_wal, serve_persist::StateKind::kIndex,
        BackendName(Backend::kT1), serve_persist::kDocsSection,
        serve_persist::EncodeDocs({Document{0, Doc(0, 8)}}),
        serve_persist::EncodeInsertBatch({Doc(1, 8)}));
    ShardedIndex index(1, Backend::kT1);
    persist::Status s = index.OpenDurable(&env, "db");
    EXPECT_FALSE(s.ok()) << "served as empty: num_docs " << index.num_docs();
    EXPECT_NE(s.ToString().find("single-core layout"), std::string::npos)
        << s.ToString();
    EXPECT_FALSE(index.durable());
    EXPECT_FALSE(env.FileExists("db/MANIFEST"));
  }
}

class RelationDurabilityTest
    : public ::testing::TestWithParam<RelationBackend> {};

TEST_P(RelationDurabilityTest, RoundTripThroughCrash) {
  MemEnv env;
  RelationPairs live;
  {
    ShardedRelation relation(1, GetParam());
    ASSERT_TRUE(relation.OpenDurable(&env, "db").ok());
    EXPECT_EQ(relation.AddPairsBatch({{1, 10}, {1, 11}, {2, 10}, {3, 12}}),
              4u);
    EXPECT_EQ(relation.RemovePairsBatch({{1, 11}, {9, 9}}), 1u);
    EXPECT_EQ(relation.AddPairsBatch({{4, 13}}), 1u);
    live = {{1, 10}, {2, 10}, {3, 12}, {4, 13}};
  }
  ShardedRelation reopened(1, GetParam());
  RecoveryStats stats;
  ASSERT_TRUE(reopened.OpenDurable(&env, "db", {}, &stats).ok());
  EXPECT_EQ(stats.replayed_batches, 3u);
  EXPECT_EQ(reopened.num_pairs(), live.size());
  for (const auto& [object, label] : live) {
    EXPECT_TRUE(reopened.Related(object, label))
        << object << " -> " << label;
  }
  EXPECT_FALSE(reopened.Related(1, 11));
  EXPECT_EQ(reopened.LabelsOf(1), std::vector<uint32_t>{10});
}

TEST_P(RelationDurabilityTest, CheckpointCompactsRemovals) {
  MemEnv env;
  {
    ShardedRelation relation(1, GetParam());
    ASSERT_TRUE(relation.OpenDurable(&env, "db").ok());
    relation.AddPairsBatch({{1, 10}, {2, 20}, {3, 30}});
    relation.RemovePairsBatch({{2, 20}});
    ASSERT_TRUE(relation.Checkpoint().ok());
    relation.AddPairsBatch({{5, 50}});
  }
  ShardedRelation reopened(1, GetParam());
  RecoveryStats stats;
  ASSERT_TRUE(reopened.OpenDurable(&env, "db", {}, &stats).ok());
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(stats.snapshot_seq, 2u);
  EXPECT_EQ(stats.replayed_batches, 1u);
  EXPECT_EQ(reopened.num_pairs(), 3u);
  EXPECT_TRUE(reopened.Related(1, 10));
  EXPECT_FALSE(reopened.Related(2, 20));
  EXPECT_TRUE(reopened.Related(5, 50));
}

TEST_P(RelationDurabilityTest, FoldKeepsTheLastOperationOnEachPair) {
  MemEnv env;
  {
    ShardedRelation relation(1, GetParam());
    ASSERT_TRUE(relation.OpenDurable(&env, "db").ok());
    EXPECT_EQ(relation.AddPairsBatch({{1, 10}, {2, 20}}), 2u);
    // Add -> remove -> add of (1, 10); a remove of an absent pair beside it.
    EXPECT_EQ(relation.RemovePairsBatch({{1, 10}, {7, 7}}), 1u);
    EXPECT_EQ(relation.AddPairsBatch({{1, 10}}), 1u);
    // Remove -> add of (2, 20), duplicated within the batch.
    EXPECT_EQ(relation.RemovePairsBatch({{2, 20}}), 1u);
    EXPECT_EQ(relation.AddPairsBatch({{2, 20}, {2, 20}, {3, 30}}), 2u);
    // Add -> remove of (3, 30).
    EXPECT_EQ(relation.RemovePairsBatch({{3, 30}}), 1u);
  }
  ShardedRelation reopened(1, GetParam());
  RecoveryStats stats;
  ASSERT_TRUE(reopened.OpenDurable(&env, "db", {}, &stats).ok());
  EXPECT_EQ(stats.replayed_batches, 6u);
  EXPECT_EQ(reopened.epochs()[0], 6u);
  EXPECT_EQ(reopened.num_pairs(), 2u);
  EXPECT_TRUE(reopened.Related(1, 10));
  EXPECT_TRUE(reopened.Related(2, 20));
  EXPECT_FALSE(reopened.Related(3, 30));
  EXPECT_FALSE(reopened.Related(7, 7));
  reopened.unsynchronized_shard(0).CheckInvariants();
}

TEST_P(RelationDurabilityTest, FoldRemovesAndReaddsSnapshotPairs) {
  MemEnv env;
  {
    ShardedRelation relation(1, GetParam());
    ASSERT_TRUE(relation.OpenDurable(&env, "db").ok());
    relation.AddPairsBatch({{1, 10}, {2, 20}, {3, 30}});
    ASSERT_TRUE(relation.Checkpoint().ok());
    EXPECT_EQ(relation.RemovePairsBatch({{1, 10}, {2, 20}, {8, 8}}), 2u);
    EXPECT_EQ(relation.AddPairsBatch({{2, 20}, {4, 40}}), 2u);
  }
  ShardedRelation reopened(1, GetParam());
  RecoveryStats stats;
  ASSERT_TRUE(reopened.OpenDurable(&env, "db", {}, &stats).ok());
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(stats.replayed_batches, 2u);
  EXPECT_EQ(reopened.epochs()[0], 2u);
  EXPECT_EQ(reopened.num_pairs(), 3u);
  EXPECT_FALSE(reopened.Related(1, 10));
  EXPECT_TRUE(reopened.Related(2, 20));
  EXPECT_TRUE(reopened.Related(3, 30));
  EXPECT_TRUE(reopened.Related(4, 40));
  EXPECT_FALSE(reopened.Related(8, 8));
}

TEST_P(RelationDurabilityTest, FoldScreensUnrepresentablePairs) {
  MemEnv env;
  // Beyond the deletion-only shell's default id caps; the other backends
  // represent it. Recovery must agree with the facade either way.
  const uint32_t far = (1u << 20) + 5;
  const RelationPairs probes = {{far, 3}, {3, far}, {4, 4}, {far, 9}};
  std::vector<bool> before;
  uint64_t pairs_before = 0;
  {
    ShardedRelation relation(1, GetParam());
    ASSERT_TRUE(relation.OpenDurable(&env, "db").ok());
    relation.AddPairsBatch({{far, 3}, {3, far}, {4, 4}});
    relation.RemovePairsBatch({{far, 3}, {far, 9}});
    relation.AddPairsBatch({{far, 9}, {far, 3}});
    for (const auto& [o, a] : probes) before.push_back(relation.Related(o, a));
    pairs_before = relation.num_pairs();
  }
  ShardedRelation reopened(1, GetParam());
  ASSERT_TRUE(reopened.OpenDurable(&env, "db").ok());
  EXPECT_EQ(reopened.num_pairs(), pairs_before);
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(reopened.Related(probes[i].first, probes[i].second), before[i])
        << probes[i].first << " -> " << probes[i].second;
  }
}

TEST_P(RelationDurabilityTest, CorruptMidTailFrameIsLoudAndServesNothing) {
  for (bool gap : {false, true}) {
    SCOPED_TRACE(gap ? "sequence gap" : "undecodable payload");
    MemEnv env;
    {
      ShardedRelation relation(1, GetParam());
      ASSERT_TRUE(relation.OpenDurable(&env, "db").ok());
      relation.AddPairsBatch({{1, 10}, {2, 20}});
      relation.RemovePairsBatch({{2, 20}});
    }
    AppendBadTail(env, /*last_seq=*/2, gap,
                  serve_persist::EncodePairsBatch(
                      serve_persist::WalOp::kAddPairs, {{5, 50}}));
    ShardedRelation reopened(1, GetParam());
    persist::Status s = reopened.OpenDurable(&env, "db");
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_FALSE(reopened.durable());
    EXPECT_EQ(reopened.num_pairs(), 0u);
    EXPECT_EQ(reopened.epochs()[0], 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, RelationDurabilityTest,
                         ::testing::Values(RelationBackend::kTheorem2,
                                           RelationBackend::kBaseline,
                                           RelationBackend::kGraph,
                                           RelationBackend::kDeletionOnly,
                                           RelationBackend::kFast),
                         [](const auto& info) {
                           return RelationBackendName(info.param);
                         });

TEST(ShardedIndexDurabilityTest, RoundTripThroughCrash) {
  MemEnv env;
  std::map<DocId, std::vector<Symbol>> model;
  {
    ShardedIndex index(3, Backend::kT1);
    ASSERT_TRUE(index.OpenDurable(&env, "db").ok());
    EXPECT_TRUE(index.durable());
    for (int batch = 0; batch < 3; ++batch) {
      std::vector<std::vector<Symbol>> docs;
      for (int d = 0; d < 5; ++d) docs.push_back(Doc(batch * 5 + d, 6));
      std::vector<DocId> ids = index.InsertBatch(docs);
      for (size_t d = 0; d < docs.size(); ++d) model[ids[d]] = docs[d];
    }
    std::vector<DocId> dead = {model.begin()->first,
                               std::next(model.begin(), 7)->first};
    EXPECT_EQ(index.EraseBatch(dead), 2u);
    for (DocId id : dead) model.erase(id);
  }
  ShardedIndex reopened(3, Backend::kT1);
  RecoveryStats stats;
  ASSERT_TRUE(reopened.OpenDurable(&env, "db", {}, &stats).ok());
  EXPECT_FALSE(stats.snapshot_loaded);
  EXPECT_GE(stats.replayed_batches, 3u);  // per-shard sub-batches, summed
  ExpectServes(reopened, model);
  reopened.CheckInvariants();
  // Round-robin placement resumes without colliding with recovered ids.
  std::vector<std::vector<Symbol>> fresh_docs = {Doc(90, 6), Doc(91, 6),
                                                 Doc(92, 6)};
  std::vector<DocId> fresh = reopened.InsertBatch(fresh_docs);
  ASSERT_EQ(fresh.size(), fresh_docs.size());
  for (size_t d = 0; d < fresh.size(); ++d) {
    ASSERT_NE(fresh[d], kInvalidDocId);
    EXPECT_EQ(model.count(fresh[d]), 0u);
    model[fresh[d]] = fresh_docs[d];
  }
  ExpectServes(reopened, model);
}

TEST(ShardedIndexDurabilityTest, CheckpointAllShardsAndReopen) {
  MemEnv env;
  std::map<DocId, std::vector<Symbol>> model;
  {
    ShardedIndex index(2, Backend::kBaseline);
    ASSERT_TRUE(index.OpenDurable(&env, "db").ok());
    std::vector<std::vector<Symbol>> docs;
    for (int d = 0; d < 6; ++d) docs.push_back(Doc(d, 7));
    std::vector<DocId> ids = index.InsertBatch(docs);
    for (size_t d = 0; d < docs.size(); ++d) model[ids[d]] = docs[d];
    ASSERT_TRUE(index.Checkpoint().ok());
    std::vector<DocId> more = index.InsertBatch({Doc(40, 7)});
    model[more[0]] = Doc(40, 7);
    ASSERT_TRUE(index.CloseDurable().ok());
  }
  ShardedIndex reopened(2, Backend::kBaseline);
  RecoveryStats stats;
  ASSERT_TRUE(reopened.OpenDurable(&env, "db", {}, &stats).ok());
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(stats.replayed_batches, 1u);  // one shard got the straggler
  ExpectServes(reopened, model);
}

TEST(ShardedIndexDurabilityTest, ShardCountMismatchIsLoud) {
  MemEnv env;
  {
    ShardedIndex index(3, Backend::kT1);
    ASSERT_TRUE(index.OpenDurable(&env, "db").ok());
    index.InsertBatch({Doc(0, 6)});
  }
  ShardedIndex wrong(4, Backend::kT1);
  persist::Status s = wrong.OpenDurable(&env, "db");
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_FALSE(wrong.durable());
}

TEST(ShardedIndexDurabilityTest, BackendMismatchIsLoud) {
  MemEnv env;
  {
    ShardedIndex index(2, Backend::kT1);
    ASSERT_TRUE(index.OpenDurable(&env, "db").ok());
  }
  ShardedIndex wrong(2, Backend::kBaseline);
  persist::Status s = wrong.OpenDurable(&env, "db");
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(ShardedIndexDurabilityTest, VanishedShardIsLoudNotPartial) {
  MemEnv env;
  {
    ShardedIndex index(3, Backend::kT1);
    ASSERT_TRUE(index.OpenDurable(&env, "db").ok());
    index.InsertBatch({Doc(0, 6), Doc(1, 6), Doc(2, 6)});
  }
  ASSERT_TRUE(env.DeleteFile("db/shard-1/WAL").ok());
  ShardedIndex reopened(3, Backend::kT1);
  persist::Status s = reopened.OpenDurable(&env, "db");
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_FALSE(reopened.durable());
}

TEST(ShardedRelationDurabilityTest, RoundTripThroughCrash) {
  MemEnv env;
  RelationPairs live;
  {
    ShardedRelation relation(3, RelationBackend::kTheorem2);
    ASSERT_TRUE(relation.OpenDurable(&env, "db").ok());
    RelationPairs pairs;
    for (uint32_t i = 0; i < 24; ++i) pairs.push_back({i, 100 + i % 5});
    EXPECT_EQ(relation.AddPairsBatch(pairs), pairs.size());
    RelationPairs dead = {{0, 100}, {7, 102}};
    EXPECT_EQ(relation.RemovePairsBatch(dead), 2u);
    for (const auto& p : pairs) {
      if (p != dead[0] && p != dead[1]) live.push_back(p);
    }
    ASSERT_TRUE(relation.Checkpoint().ok());
    EXPECT_EQ(relation.AddPairsBatch({{50, 500}}), 1u);
    live.push_back({50, 500});
  }
  ShardedRelation reopened(3, RelationBackend::kTheorem2);
  RecoveryStats stats;
  ASSERT_TRUE(reopened.OpenDurable(&env, "db", {}, &stats).ok());
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(reopened.num_pairs(), live.size());
  for (const auto& [object, label] : live) {
    EXPECT_TRUE(reopened.Related(object, label))
        << object << " -> " << label;
  }
  EXPECT_FALSE(reopened.Related(0, 100));
  reopened.CheckInvariants();
}

TEST(ShardedRelationDurabilityTest, ShardCountMismatchIsLoud) {
  MemEnv env;
  {
    ShardedRelation relation(2, RelationBackend::kBaseline);
    ASSERT_TRUE(relation.OpenDurable(&env, "db").ok());
    relation.AddPairsBatch({{1, 2}});
  }
  ShardedRelation wrong(3, RelationBackend::kBaseline);
  persist::Status s = wrong.OpenDurable(&env, "db");
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(ShardedRelationDurabilityTest, IndexManifestRefusedByRelation) {
  MemEnv env;
  {
    ShardedIndex index(2, Backend::kT1);
    ASSERT_TRUE(index.OpenDurable(&env, "db").ok());
  }
  ShardedRelation relation(2, RelationBackend::kTheorem2);
  persist::Status s = relation.OpenDurable(&env, "db");
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(ShardedRelationDurabilityTest, SingleCoreLayoutIsRefusedNotServedEmpty) {
  for (auto [with_snapshot, with_wal] : {std::pair{true, true},
                                         std::pair{true, false},
                                         std::pair{false, true}}) {
    SCOPED_TRACE(std::string(with_snapshot ? "SNAPSHOT " : "") +
                 (with_wal ? "WAL" : ""));
    MemEnv env;
    WriteSingleCoreLayout(
        env, "db", with_snapshot, with_wal,
        serve_persist::StateKind::kRelation,
        RelationBackendName(RelationBackend::kTheorem2),
        serve_persist::kPairsSection,
        serve_persist::EncodePairs({{1, 10}, {2, 20}}),
        serve_persist::EncodePairsBatch(serve_persist::WalOp::kAddPairs,
                                        {{3, 30}}));
    ShardedRelation relation(1, RelationBackend::kTheorem2);
    persist::Status s = relation.OpenDurable(&env, "db");
    EXPECT_FALSE(s.ok()) << "served as empty: num_pairs "
                         << relation.num_pairs();
    EXPECT_NE(s.ToString().find("single-core layout"), std::string::npos)
        << s.ToString();
    EXPECT_FALSE(relation.durable());
    EXPECT_FALSE(env.FileExists("db/MANIFEST"));
  }
}

/// A MemEnv whose WAL files park in Sync() while the gate is armed, so a
/// test can hold a writer inside its fsync for as long as it likes and look
/// at what readers see meanwhile. Every other file, and every sync while
/// the gate is open, goes straight through.
class GatedSyncEnv final : public persist::Env {
 public:
  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
  }
  /// Blocks until `n` WAL syncs are parked at the gate.
  void WaitParked(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return parked_ >= n; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = false;
    cv_.notify_all();
  }

  persist::Status NewWritableFile(
      const std::string& path,
      std::unique_ptr<persist::WritableFile>* out) override {
    DYNDEX_RETURN_IF_ERROR(mem_.NewWritableFile(path, out));
    Gate(path, out);
    return persist::Status::Ok();
  }
  persist::Status NewAppendableFile(
      const std::string& path,
      std::unique_ptr<persist::WritableFile>* out) override {
    DYNDEX_RETURN_IF_ERROR(mem_.NewAppendableFile(path, out));
    Gate(path, out);
    return persist::Status::Ok();
  }
  persist::Status NewRandomAccessFile(
      const std::string& path,
      std::unique_ptr<persist::RandomAccessFile>* out) override {
    return mem_.NewRandomAccessFile(path, out);
  }
  bool FileExists(const std::string& path) override {
    return mem_.FileExists(path);
  }
  persist::Status GetFileSize(const std::string& path,
                              uint64_t* size) override {
    return mem_.GetFileSize(path, size);
  }
  persist::Status RenameFile(const std::string& from,
                             const std::string& to) override {
    return mem_.RenameFile(from, to);
  }
  persist::Status DeleteFile(const std::string& path) override {
    return mem_.DeleteFile(path);
  }
  persist::Status CreateDir(const std::string& path) override {
    return mem_.CreateDir(path);
  }

 private:
  class GatedFile final : public persist::WritableFile {
   public:
    GatedFile(GatedSyncEnv* env, std::unique_ptr<persist::WritableFile> file)
        : env_(env), file_(std::move(file)) {}
    persist::Status Append(std::string_view data) override {
      return file_->Append(data);
    }
    persist::Status Sync() override {
      env_->Park();
      return file_->Sync();
    }
    persist::Status Close() override { return file_->Close(); }

   private:
    GatedSyncEnv* env_;
    std::unique_ptr<persist::WritableFile> file_;
  };

  void Gate(const std::string& path,
            std::unique_ptr<persist::WritableFile>* out) {
    const std::string wal = std::string("/") + serve_persist::kWalFileName;
    if (path.size() >= wal.size() &&
        path.compare(path.size() - wal.size(), wal.size(), wal) == 0) {
      *out = std::make_unique<GatedFile>(this, std::move(*out));
    }
  }
  void Park() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!armed_) return;
    ++parked_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return !armed_; });
  }

  MemEnv mem_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  int parked_ = 0;
};

/// True when no shard is inside an exclusive section (every seqlock word
/// even).
bool AllQuiescent(const ShardSeqs& seqs) {
  for (uint64_t seq : seqs) {
    if (seq % 2 != 0) return false;
  }
  return true;
}

class NoReaderWaitsOutAnFsyncTest : public ::testing::TestWithParam<uint32_t> {
};

// A durable batch is parked inside its WAL fsync on every shard it touched.
// The exclusive sections must already have ended (all sequences even), and
// a reader of the same shards must finish and see the batch's epoch; the
// writer's call must still be waiting for its fsync. The gate makes this
// deterministic: the writer cannot leave Sync() until the test releases it.
TEST_P(NoReaderWaitsOutAnFsyncTest, Index) {
  const uint32_t k = GetParam();
  GatedSyncEnv env;
  ShardedIndex index(k, Backend::kT1);
  ASSERT_TRUE(index.OpenDurable(&env, "db").ok());
  const std::vector<Symbol> pattern = Doc(7, 5);
  std::vector<std::vector<Symbol>> batch(k, pattern);  // one doc per shard
  ASSERT_EQ(index.InsertBatch(batch).size(), k);

  env.Arm();
  std::atomic<bool> returned{false};
  std::thread writer([&] {
    index.InsertBatch(batch);
    returned.store(true);
  });
  env.WaitParked(static_cast<int>(k));
  const bool quiescent = AllQuiescent(index.seqs());
  EXPECT_TRUE(quiescent) << "the WAL fsync runs inside the exclusive section";
  if (quiescent) {  // otherwise a reader would block until the release
    ShardEpochs eps;
    EXPECT_EQ(index.Count(pattern, &eps), 2u * k);
    EXPECT_EQ(eps, ShardEpochs(k, 2));
    for (uint32_t s = 0; s < k; ++s) {
      uint64_t epoch = 0;
      EXPECT_EQ(index.DocLenOf(k + s, &epoch), pattern.size());
      EXPECT_EQ(epoch, 2u);
    }
    EXPECT_FALSE(returned.load()) << "returned before its fsync finished";
  }
  env.Release();
  writer.join();
  EXPECT_TRUE(returned.load());
  ASSERT_TRUE(index.CloseDurable().ok());
}

TEST_P(NoReaderWaitsOutAnFsyncTest, Relation) {
  const uint32_t k = GetParam();
  GatedSyncEnv env;
  ShardedRelation relation(k, RelationBackend::kTheorem2);
  ASSERT_TRUE(relation.OpenDurable(&env, "db").ok());
  // One object per shard.
  std::vector<uint32_t> objects(k);
  std::vector<bool> found(k, false);
  for (uint32_t o = 0, seen = 0; seen < k; ++o) {
    const uint32_t s = relation.shard_of_object(o);
    if (found[s]) continue;
    found[s] = true;
    objects[s] = o;
    ++seen;
  }
  RelationPairs first, second;
  for (uint32_t o : objects) {
    first.push_back({o, 1});
    second.push_back({o, 2});
  }
  ASSERT_EQ(relation.AddPairsBatch(first), k);

  env.Arm();
  std::atomic<bool> returned{false};
  std::thread writer([&] {
    relation.AddPairsBatch(second);
    returned.store(true);
  });
  env.WaitParked(static_cast<int>(k));
  const bool quiescent = AllQuiescent(relation.seqs());
  EXPECT_TRUE(quiescent) << "the WAL fsync runs inside the exclusive section";
  if (quiescent) {  // otherwise a reader would block until the release
    for (uint32_t s = 0; s < k; ++s) {
      uint64_t epoch = 0;
      EXPECT_TRUE(relation.Related(objects[s], 2, &epoch));
      EXPECT_EQ(epoch, 2u);
    }
    ShardEpochs eps;
    EXPECT_EQ(relation.num_pairs(&eps), 2u * k);
    EXPECT_EQ(eps, ShardEpochs(k, 2));
    EXPECT_FALSE(returned.load()) << "returned before its fsync finished";
  }
  env.Release();
  writer.join();
  EXPECT_TRUE(returned.load());
  ASSERT_TRUE(relation.CloseDurable().ok());
}

INSTANTIATE_TEST_SUITE_P(Shards, NoReaderWaitsOutAnFsyncTest,
                         ::testing::Values(1u, 2u),
                         [](const auto& info) {
                           std::string name = "K";
                           name += std::to_string(info.param);
                           return name;
                         });

}  // namespace
}  // namespace dyndex
