// Differential recovery fuzzer: the fault-injection proof of the durability
// tentpole. Each seed drives a durable facade through random churn (insert /
// erase batches, random checkpoints, random group-commit window), then kills
// the "machine" at a random point — clean power cut, torn tail, truncated
// log, or a bit flip in the WAL or the snapshot — and recovers into a fresh
// facade.
//
// The verdict, per seed, must be one of exactly two things:
//   * recovery succeeds and the recovered state is byte-for-byte the
//     reference model at some batch prefix (reported, not guessed: the
//     prefix is snapshot_seq + replayed_batches), or
//   * recovery fails LOUDLY (checksum / format error) and serves nothing.
// A recovered facade that answers queries differently from every recorded
// prefix is the one forbidden outcome — silent wrong answers.
//
// 450 seeded kill points (300 document-index, 150 relation) run in tier 1
// and under ASan in CI; the crash-loop job repeats them under TSan as well.

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "persist/env.h"
#include "persist/status.h"
#include "serve/dynamic_index.h"
#include "serve/persistence.h"
#include "serve/relation_index.h"
#include "serve/sharded_index.h"
#include "serve/sharded_relation.h"
#include "util/rng.h"

namespace dyndex {
namespace {

using persist::MemEnv;

using DocModel = std::map<DocId, std::vector<Symbol>>;
using PairModel = std::set<std::pair<uint32_t, uint32_t>>;

enum KillMode : uint32_t {
  kPowerCut = 0,     // synced prefix + random torn tail
  kTruncateWal = 1,  // media loses a suffix of the log
  kFlipWalBit = 2,   // rot in the log
  kFlipSnapBit = 3,  // rot in the snapshot
  kNumKillModes = 4,
};

/// Crashes the process (drop unsynced buffers) and then applies the chosen
/// media fault. Returns true when the fault may legitimately make recovery
/// fail loudly (structural damage), false when recovery must succeed.
bool Kill(MemEnv& env, Rng& rng, KillMode mode) {
  if (mode == kPowerCut) {
    env.SimulateCrash(rng.Below(48));
    return false;  // a pure power cut never damages synced bytes
  }
  env.SimulateCrash();
  uint64_t wal_size = 0, snap_size = 0;
  const bool has_wal = env.GetFileSize("db/shard-0/WAL", &wal_size).ok();
  const bool has_snap = env.GetFileSize("db/shard-0/SNAPSHOT", &snap_size).ok();
  switch (mode) {
    case kTruncateWal:
      if (!has_wal || wal_size == 0) return false;
      EXPECT_TRUE(env.TruncateFile("db/shard-0/WAL", rng.Below(wal_size)).ok());
      return true;  // may cut the 8-byte log header mid-way
    case kFlipWalBit:
      if (!has_wal || wal_size == 0) return false;
      EXPECT_TRUE(env.CorruptByte("db/shard-0/WAL", rng.Below(wal_size),
                                  static_cast<uint8_t>(1u << rng.Below(8)))
                      .ok());
      return true;  // may hit the header magic
    case kFlipSnapBit:
      if (!has_snap || snap_size == 0) return false;  // no snapshot yet
      EXPECT_TRUE(env.CorruptByte("db/shard-0/SNAPSHOT", rng.Below(snap_size),
                                  static_cast<uint8_t>(1u << rng.Below(8)))
                      .ok());
      return true;  // every snapshot flip must be loud
    default:
      return false;
  }
}

std::vector<Symbol> RandomDoc(Rng& rng) {
  std::vector<Symbol> doc(3 + rng.Below(6));
  for (Symbol& s : doc) {
    s = kMinSymbol + static_cast<Symbol>(rng.Below(12));
  }
  return doc;
}

void ExpectIndexMatches(ShardedIndex& index, const DocModel& model) {
  ASSERT_EQ(index.num_docs(), model.size());
  for (const auto& [id, symbols] : model) {
    std::vector<Symbol> got;
    ASSERT_TRUE(index.Extract(id, 0, symbols.size(), &got)) << "id=" << id;
    ASSERT_EQ(got, symbols) << "id=" << id;
  }
}

void RunIndexSeed(uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Rng rng(seed);
  MemEnv env;
  const Backend backend =
      seed % 2 == 0 ? Backend::kT1 : Backend::kBaseline;
  DurableOptions opt;
  opt.sync_every_batches = rng.Chance(0.3) ? 2 : 1;

  // Drive the churn, recording the reference model after every batch:
  // prefix[k] is the exact logical state after the first k batches.
  DocModel model;
  std::vector<DocModel> prefix = {model};
  const uint32_t batches = 6 + rng.Below(4);
  {
    ShardedIndex index(1, backend);
    ASSERT_TRUE(index.OpenDurable(&env, "db", opt).ok());
    for (uint32_t b = 0; b < batches; ++b) {
      if (!model.empty() && rng.Chance(0.35)) {
        std::vector<DocId> dead;
        const uint32_t n = 1 + rng.Below(2);
        for (uint32_t i = 0; i < n && !model.empty(); ++i) {
          auto victim = std::next(model.begin(), rng.Below(model.size()));
          dead.push_back(victim->first);
          model.erase(victim);
        }
        ASSERT_EQ(index.EraseBatch(dead), dead.size());
      } else {
        std::vector<std::vector<Symbol>> docs(1 + rng.Below(3));
        for (auto& doc : docs) doc = RandomDoc(rng);
        std::vector<DocId> ids = index.InsertBatch(docs);
        ASSERT_EQ(ids.size(), docs.size());
        for (size_t d = 0; d < docs.size(); ++d) model[ids[d]] = docs[d];
      }
      prefix.push_back(model);
      if (rng.Chance(0.25)) {
        ASSERT_TRUE(index.Checkpoint().ok());
      }
    }
    // The facade is dropped without CloseDurable — this *is* the crash.
  }
  const KillMode mode = static_cast<KillMode>(rng.Below(kNumKillModes));
  const bool may_fail_loudly = Kill(env, rng, mode);

  ShardedIndex recovered(1, backend);
  RecoveryStats stats;
  persist::Status s = recovered.OpenDurable(&env, "db", opt, &stats);
  if (s.ok()) {
    const uint64_t p = stats.snapshot_seq + stats.replayed_batches;
    ASSERT_LT(p, prefix.size()) << "recovered past the last batch";
    ExpectIndexMatches(recovered, prefix[p]);
    if (mode == kPowerCut && opt.sync_every_batches == 1) {
      // Every batch was fsync'd before the power cut: zero loss allowed.
      ASSERT_EQ(p, batches);
    }
  } else {
    ASSERT_TRUE(may_fail_loudly)
        << "mode " << mode << " must recover, got: " << s.ToString();
    ASSERT_TRUE(s.IsCorruption()) << s.ToString();
    ASSERT_EQ(recovered.num_docs(), 0u) << "loud failure must serve nothing";
  }
}

void ExpectRelationMatches(ShardedRelation& relation, const PairModel& model,
                           const PairModel& universe) {
  ASSERT_EQ(relation.num_pairs(), model.size());
  for (const auto& [object, label] : universe) {
    ASSERT_EQ(relation.Related(object, label),
              model.count({object, label}) != 0)
        << object << " -> " << label;
  }
}

void RunRelationSeed(uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Rng rng(seed);
  MemEnv env;
  const RelationBackend backend = seed % 3 == 0 ? RelationBackend::kTheorem2
                                  : seed % 3 == 1
                                      ? RelationBackend::kGraph
                                      : RelationBackend::kFast;
  DurableOptions opt;
  opt.sync_every_batches = rng.Chance(0.3) ? 2 : 1;

  PairModel model;
  PairModel universe;  // every pair this seed ever touched
  std::vector<PairModel> prefix = {model};
  const uint32_t batches = 6 + rng.Below(4);
  {
    ShardedRelation relation(1, backend);
    ASSERT_TRUE(relation.OpenDurable(&env, "db", opt).ok());
    for (uint32_t b = 0; b < batches; ++b) {
      bool logged = true;
      if (!model.empty() && rng.Chance(0.35)) {
        RelationPairs dead;
        const uint32_t n = 1 + rng.Below(3);
        for (uint32_t i = 0; i < n && !model.empty(); ++i) {
          auto victim = std::next(model.begin(), rng.Below(model.size()));
          dead.push_back(*victim);
          model.erase(victim);
        }
        ASSERT_EQ(relation.RemovePairsBatch(dead), dead.size());
      } else {
        RelationPairs fresh;
        const uint32_t n = 1 + rng.Below(4);
        for (uint32_t i = 0; i < n; ++i) {
          std::pair<uint32_t, uint32_t> p = {rng.Below(24), rng.Below(16)};
          if (model.insert(p).second) fresh.push_back(p);
          universe.insert(p);
        }
        // A batch whose pairs were all duplicates is empty; it touches no
        // shard (no frame, no epoch bump), so it is no prefix either.
        ASSERT_EQ(relation.AddPairsBatch(fresh), fresh.size());
        logged = !fresh.empty();
      }
      if (logged) prefix.push_back(model);
      if (rng.Chance(0.25)) {
        ASSERT_TRUE(relation.Checkpoint().ok());
      }
    }
  }
  const KillMode mode = static_cast<KillMode>(rng.Below(kNumKillModes));
  const bool may_fail_loudly = Kill(env, rng, mode);

  ShardedRelation recovered(1, backend);
  RecoveryStats stats;
  persist::Status s = recovered.OpenDurable(&env, "db", opt, &stats);
  if (s.ok()) {
    const uint64_t p = stats.snapshot_seq + stats.replayed_batches;
    ASSERT_LT(p, prefix.size()) << "recovered past the last batch";
    ExpectRelationMatches(recovered, prefix[p], universe);
    if (mode == kPowerCut && opt.sync_every_batches == 1) {
      ASSERT_EQ(p, prefix.size() - 1);
    }
  } else {
    ASSERT_TRUE(may_fail_loudly)
        << "mode " << mode << " must recover, got: " << s.ToString();
    ASSERT_TRUE(s.IsCorruption()) << s.ToString();
    ASSERT_EQ(recovered.num_pairs(), 0u) << "loud failure must serve nothing";
  }
}

TEST(PersistRecoveryFuzzTest, IndexKillPointsBank0) {
  for (uint64_t seed = 0; seed < 150; ++seed) RunIndexSeed(seed);
}

TEST(PersistRecoveryFuzzTest, IndexKillPointsBank1) {
  for (uint64_t seed = 150; seed < 300; ++seed) RunIndexSeed(seed);
}

TEST(PersistRecoveryFuzzTest, RelationKillPoints) {
  for (uint64_t seed = 1000; seed < 1150; ++seed) RunRelationSeed(seed);
}

}  // namespace
}  // namespace dyndex
