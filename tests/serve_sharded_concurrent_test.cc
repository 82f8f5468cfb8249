// Concurrent serving: N reader threads hammer fanned-out and single-shard
// queries on a ShardedIndex / ShardedRelation while one writer applies
// batches whose per-shard sub-batches run in parallel on the scatter-join
// pool. Every scenario runs at K = 3 (odd: uneven splits and id mapping)
// and at K = 1, the single-core facade, where the epoch vector has one
// entry and equals the number of applied batches.
//
// Linearizability is checked per *epoch vector*: the whole write schedule is
// generated up front and split per shard exactly the way the sharded facade
// splits it, so shard s's state after its e-th touched batch is known before
// any thread starts. A fanned-out query reports one epoch per shard; its
// answer must equal the sum/merge of the per-shard expectations at exactly
// those epochs. Single-shard queries are checked against the owning shard's
// scalar epoch. Failures collect into a mutex-guarded list (gtest assertions
// stay on the main thread).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen/text_gen.h"
#include "serve/sharded_index.h"
#include "serve/sharded_relation.h"
#include "tests/model_checker.h"
#include "util/rng.h"

namespace dyndex {
namespace {

constexpr int kReaders = 4;
constexpr uint32_t kSigma = 4;
constexpr uint32_t kNumImmortal = 6;
constexpr uint32_t kNumPatterns = 6;

class FailureLog {
 public:
  void Add(std::string msg) {
    std::lock_guard<std::mutex> lock(mu_);
    if (failures_.size() < 20) failures_.push_back(std::move(msg));
  }
  std::vector<std::string> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return failures_;
  }

 private:
  std::mutex mu_;
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------------
// Documents

struct Batch {
  bool is_insert = false;
  std::vector<uint32_t> docs;  // insert: indices into Script::contents
  std::vector<DocId> erases;   // erase: predicted global ids
};

struct Script {
  uint32_t num_shards = 1;
  std::vector<std::vector<Symbol>> contents;  // global id -> symbols (dense
                                              // sequential minting)
  std::vector<Batch> batches;
  std::vector<std::vector<Symbol>> patterns;
  // expected[s][e][p]: sorted global-id occurrences of patterns[p] within
  // shard s at shard-epoch e (a shard's epoch moves only when a batch
  // touches it).
  std::vector<std::vector<std::vector<std::vector<Occurrence>>>> expected;
  // Shard-epoch at which each immortal doc (global ids 0..kNumImmortal-1)
  // becomes visible in its shard.
  std::vector<uint64_t> immortal_epoch;
};

Script MakeScript(uint32_t num_shards, uint64_t seed, int num_batches) {
  Script s;
  s.num_shards = num_shards;
  Rng rng(seed);
  auto gen_doc = [&](uint64_t max_len) {
    s.contents.push_back(UniformText(rng, rng.Range(1, max_len), kSigma));
    return static_cast<uint32_t>(s.contents.size() - 1);
  };
  Batch first;
  first.is_insert = true;
  for (uint32_t i = 0; i < kNumImmortal; ++i) first.docs.push_back(gen_doc(50));
  s.batches.push_back(std::move(first));
  std::vector<DocId> mortal_live;
  for (int b = 1; b < num_batches; ++b) {
    Batch batch;
    if (b % 2 == 1 || mortal_live.size() < 2) {
      batch.is_insert = true;
      uint32_t k = static_cast<uint32_t>(rng.Range(1, 4));
      for (uint32_t i = 0; i < k; ++i) {
        batch.docs.push_back(gen_doc(rng.Below(8) == 0 ? 200 : 60));
        mortal_live.push_back(batch.docs.back());
      }
    } else {
      uint32_t k = static_cast<uint32_t>(rng.Range(1, 2));
      for (uint32_t i = 0; i < k && !mortal_live.empty(); ++i) {
        uint64_t pick = rng.Below(mortal_live.size());
        batch.erases.push_back(mortal_live[pick]);
        mortal_live.erase(mortal_live.begin() + static_cast<int64_t>(pick));
      }
    }
    s.batches.push_back(std::move(batch));
  }
  for (uint32_t p = 0; p < kNumPatterns; ++p) {
    s.patterns.push_back(
        SamplePattern(rng, s.contents, rng.Range(1, 4), kSigma));
  }
  // Replay the schedule split per shard, exactly as ShardedIndex splits it:
  // doc j (global insertion order) -> shard j % num_shards; erase of global id
  // g -> shard g % num_shards; a shard's epoch moves only on touched batches.
  std::vector<ReferenceModel> models(num_shards);
  s.expected.resize(num_shards);
  s.immortal_epoch.assign(kNumImmortal, 0);
  auto snapshot = [&](uint32_t shard) {
    std::vector<std::vector<Occurrence>> at_epoch(kNumPatterns);
    for (uint32_t p = 0; p < kNumPatterns; ++p) {
      at_epoch[p] = models[shard].Find(s.patterns[p]);
    }
    s.expected[shard].push_back(std::move(at_epoch));
  };
  for (uint32_t shard = 0; shard < num_shards; ++shard) snapshot(shard);
  DocId next_id = 0;
  for (const Batch& batch : s.batches) {
    std::vector<bool> touched(num_shards, false);
    for (uint32_t doc : batch.docs) {
      uint32_t shard = static_cast<uint32_t>(next_id % num_shards);
      models[shard].Insert(next_id, s.contents[doc]);
      if (next_id < kNumImmortal) {
        s.immortal_epoch[next_id] = s.expected[shard].size();  // next epoch
      }
      ++next_id;
      touched[shard] = true;
    }
    for (DocId id : batch.erases) {
      uint32_t shard = static_cast<uint32_t>(id % num_shards);
      models[shard].Erase(id);
      touched[shard] = true;
    }
    for (uint32_t shard = 0; shard < num_shards; ++shard) {
      if (touched[shard]) snapshot(shard);
    }
  }
  return s;
}

void DocReaderLoop(const ShardedIndex& index, const Script& script,
                   uint64_t seed, const std::atomic<bool>& done,
                   FailureLog* failures, uint64_t* queries_run) {
  const uint32_t num_shards = script.num_shards;
  Rng rng(seed);
  uint64_t n = 0;
  while (!done.load(std::memory_order_acquire)) {
    uint32_t p = static_cast<uint32_t>(rng.Below(kNumPatterns));
    switch (rng.Below(3)) {
      case 0: {
        ShardEpochs eps;
        auto got = index.Locate(script.patterns[p], &eps);
        std::sort(got.begin(), got.end());
        std::vector<Occurrence> want;
        for (uint32_t shard = 0; shard < num_shards; ++shard) {
          const auto& at = script.expected[shard][eps[shard]][p];
          want.insert(want.end(), at.begin(), at.end());
        }
        std::sort(want.begin(), want.end());
        if (got != want) {
          failures->Add("Locate mismatch: pattern " + std::to_string(p) +
                        ": got " + std::to_string(got.size()) + " occs, want " +
                        std::to_string(want.size()));
        }
        break;
      }
      case 1: {
        ShardEpochs eps;
        uint64_t got = index.Count(script.patterns[p], &eps);
        uint64_t want = 0;
        for (uint32_t shard = 0; shard < num_shards; ++shard) {
          want += script.expected[shard][eps[shard]][p].size();
        }
        if (got != want) {
          failures->Add("Count mismatch: pattern " + std::to_string(p) +
                        ": got " + std::to_string(got) + ", want " +
                        std::to_string(want));
        }
        break;
      }
      default: {
        DocId id = rng.Below(kNumImmortal);
        const auto& want = script.contents[id];
        std::vector<Symbol> got;
        uint64_t epoch = 0;
        bool present = index.Extract(id, 0, want.size(), &got, &epoch);
        if (epoch >= script.immortal_epoch[id]) {
          if (!present) {
            failures->Add("Extract: immortal doc " + std::to_string(id) +
                          " absent at shard epoch " + std::to_string(epoch));
          } else if (got != want) {
            failures->Add("Extract mismatch: doc " + std::to_string(id));
          }
        }
        break;
      }
    }
    ++n;
  }
  *queries_run = n;
}

void RunShardedDocScenario(uint32_t num_shards, Backend backend,
                           RebuildMode mode, uint64_t seed, int num_batches) {
  Script script = MakeScript(num_shards, seed, num_batches);
  DynamicIndexOptions opt;
  opt.min_c0 = 64;
  opt.tau = 4;
  opt.mode = mode;
  ShardedIndex index(num_shards, backend, opt);
  FailureLog failures;
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  std::vector<uint64_t> query_counts(kReaders, 0);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back(DocReaderLoop, std::cref(index), std::cref(script),
                         seed * 1000 + r, std::cref(done), &failures,
                         &query_counts[r]);
  }
  DocId next_id = 0;
  for (const Batch& batch : script.batches) {
    if (batch.is_insert) {
      std::vector<std::vector<Symbol>> docs;
      for (uint32_t doc : batch.docs) docs.push_back(script.contents[doc]);
      std::vector<DocId> ids = index.InsertBatch(std::move(docs));
      for (uint64_t i = 0; i < ids.size(); ++i) {
        if (ids[i] != next_id + i) {
          failures.Add("unexpected id " + std::to_string(ids[i]) + " want " +
                       std::to_string(next_id + i));
        }
      }
      next_id += ids.size();
    } else {
      uint64_t erased = index.EraseBatch(batch.erases);
      if (erased != batch.erases.size()) {
        failures.Add("EraseBatch erased " + std::to_string(erased) + " of " +
                     std::to_string(batch.erases.size()));
      }
    }
    index.Poll();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  for (const std::string& f : failures.Take()) ADD_FAILURE() << f;
  uint64_t total_queries = 0;
  for (uint64_t c : query_counts) total_queries += c;
  EXPECT_GT(total_queries, 0u);
  // Quiesce; the final per-shard epochs must match the touched-batch counts
  // and the final answers the full merged expectation.
  index.Flush();
  ShardEpochs final_epochs = index.epochs();
  for (uint32_t shard = 0; shard < num_shards; ++shard) {
    ASSERT_EQ(final_epochs[shard] + 1, script.expected[shard].size())
        << "shard " << shard;
  }
  for (uint32_t p = 0; p < kNumPatterns; ++p) {
    auto got = index.Locate(script.patterns[p]);
    std::sort(got.begin(), got.end());
    std::vector<Occurrence> want;
    for (uint32_t shard = 0; shard < num_shards; ++shard) {
      const auto& at = script.expected[shard].back()[p];
      want.insert(want.end(), at.begin(), at.end());
    }
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "pattern " << p;
  }
  index.CheckInvariants();
}

TEST(ServeShardedConcurrent, ReadersDuringParallelThreadedWrites) {
  RunShardedDocScenario(3, Backend::kT2, RebuildMode::kThreaded, 52, 80);
}

TEST(ServeShardedConcurrent, ReadersDuringParallelSynchronousWrites) {
  RunShardedDocScenario(3, Backend::kT2, RebuildMode::kSynchronous, 53, 80);
}

TEST(ServeShardedConcurrent, ReadersOverShardedBaseline) {
  RunShardedDocScenario(3, Backend::kBaseline, RebuildMode::kSynchronous, 54,
                        60);
}

// K = 1: readers against Transformation 2 with real builder threads, so
// queries overlap lock/build/swap/replay at every stage.
TEST(ServeShardedConcurrent, OneShardReadersDuringThreadedRebuilds) {
  RunShardedDocScenario(1, Backend::kT2, RebuildMode::kThreaded, 42, 90);
}

TEST(ServeShardedConcurrent, OneShardReadersDuringSynchronousRebuilds) {
  RunShardedDocScenario(1, Backend::kT2, RebuildMode::kSynchronous, 43, 90);
}

TEST(ServeShardedConcurrent, OneShardReadersOverTransformation1) {
  RunShardedDocScenario(1, Backend::kT1, RebuildMode::kSynchronous, 44, 70);
}

TEST(ServeShardedConcurrent, OneShardReadersOverBaseline) {
  RunShardedDocScenario(1, Backend::kBaseline, RebuildMode::kSynchronous, 45,
                        70);
}

// A second threaded-T2 run with a different seed: more erase pressure on the
// deletion-replay path (deletions racing in-flight builds).
TEST(ServeShardedConcurrent, OneShardThreadedRebuildsSecondSeed) {
  RunShardedDocScenario(1, Backend::kT2, RebuildMode::kThreaded, 1337, 110);
}

// ---------------------------------------------------------------------------
// Relations

using PairSet = std::set<std::pair<uint32_t, uint32_t>>;

constexpr uint32_t kObjects = 48;
constexpr uint32_t kLabels = 40;
constexpr uint32_t kProbes = 10;

struct RelBatch {
  bool is_add = false;
  RelationPairs pairs;
  uint64_t expected_applied = 0;  // #new on add, #removed on remove
};

// The full write schedule plus everything readers need, all computed before
// any thread starts; immutable afterwards.
struct RelScript {
  uint32_t num_shards = 1;
  std::vector<RelBatch> batches;
  std::vector<std::pair<uint32_t, uint32_t>> probe_pairs;
  std::vector<uint32_t> probe_objects;
  std::vector<uint32_t> probe_labels;
  // snapshots[s][e]: shard s's pair set at shard-epoch e.
  std::vector<std::vector<PairSet>> snapshots;
};

RelScript MakeRelScript(const ShardedRelation& rel, uint64_t seed,
                        int num_batches) {
  RelScript s;
  s.num_shards = rel.num_shards();
  Rng rng(seed);
  for (uint32_t i = 0; i < kProbes; ++i) {
    s.probe_pairs.push_back({static_cast<uint32_t>(rng.Below(kObjects)),
                             static_cast<uint32_t>(rng.Below(kLabels))});
    s.probe_objects.push_back(static_cast<uint32_t>(rng.Below(kObjects)));
    s.probe_labels.push_back(static_cast<uint32_t>(rng.Below(kLabels)));
  }
  std::vector<PairSet> models(s.num_shards);
  PairSet all;
  s.snapshots.assign(s.num_shards, {PairSet{}});  // epoch 0: empty
  for (int b = 0; b < num_batches; ++b) {
    RelBatch batch;
    // Batch 0 is a large cold-start add (the bulk promotion path); later
    // batches alternate adds and removes with overlap against live pairs,
    // and a remove occasionally misses.
    batch.is_add = b == 0 || b % 3 != 0;
    std::vector<bool> touched(s.num_shards, false);
    if (batch.is_add) {
      uint64_t n = b == 0 ? 300 : rng.Below(30) + 1;
      for (uint64_t i = 0; i < n; ++i) {
        uint32_t o = static_cast<uint32_t>(rng.Below(kObjects));
        uint32_t a = static_cast<uint32_t>(rng.Below(kLabels));
        batch.pairs.push_back({o, a});
        uint32_t shard = rel.shard_of_object(o);
        models[shard].insert({o, a});
        batch.expected_applied += all.insert({o, a}).second ? 1 : 0;
        touched[shard] = true;
      }
    } else {
      uint64_t n = rng.Below(20) + 1;
      for (uint64_t i = 0; i < n && !all.empty(); ++i) {
        std::pair<uint32_t, uint32_t> p;
        if (rng.Below(4) == 0) {
          p = {static_cast<uint32_t>(rng.Below(kObjects)),
               static_cast<uint32_t>(rng.Below(kLabels))};
        } else {
          auto it = all.begin();
          std::advance(it, static_cast<int64_t>(rng.Below(all.size())));
          p = *it;
        }
        batch.pairs.push_back(p);
        uint32_t shard = rel.shard_of_object(p.first);
        models[shard].erase(p);
        batch.expected_applied += all.erase(p);
        touched[shard] = true;
      }
    }
    for (uint32_t shard = 0; shard < s.num_shards; ++shard) {
      if (touched[shard]) s.snapshots[shard].push_back(models[shard]);
    }
    s.batches.push_back(std::move(batch));
  }
  return s;
}

std::vector<uint32_t> LabelsIn(const PairSet& set, uint32_t o) {
  std::vector<uint32_t> out;
  for (auto it = set.lower_bound({o, 0}); it != set.end() && it->first == o;
       ++it) {
    out.push_back(it->second);
  }
  return out;
}

/// Sorted objects related to `a` across every shard, each shard at its
/// entry of `eps`.
std::vector<uint32_t> ObjectsIn(const RelScript& script, const ShardEpochs& eps,
                                uint32_t a) {
  std::vector<uint32_t> out;
  for (uint32_t shard = 0; shard < script.num_shards; ++shard) {
    for (const auto& [oo, aa] : script.snapshots[shard][eps[shard]]) {
      if (aa == a) out.push_back(oo);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void RelReaderLoop(const ShardedRelation& rel, const RelScript& script,
                   uint64_t seed, const std::atomic<bool>& done,
                   FailureLog* failures, uint64_t* queries_run) {
  Rng rng(seed);
  uint64_t n = 0;
  while (!done.load(std::memory_order_acquire)) {
    uint32_t p = static_cast<uint32_t>(rng.Below(kProbes));
    uint64_t epoch = 0;
    ShardEpochs eps;
    switch (rng.Below(4)) {
      case 0: {
        // Object-keyed: one shard, scalar epoch.
        auto [o, a] = script.probe_pairs[p];
        bool got = rel.Related(o, a, &epoch);
        bool want =
            script.snapshots[rel.shard_of_object(o)][epoch].count({o, a}) > 0;
        if (got != want) {
          failures->Add("Related mismatch: probe " + std::to_string(p) +
                        " at shard epoch " + std::to_string(epoch));
        }
        break;
      }
      case 1: {
        uint32_t o = script.probe_objects[p];
        const auto& shard_sets = script.snapshots[rel.shard_of_object(o)];
        std::vector<uint32_t> got = rel.LabelsOf(o, &epoch);
        std::sort(got.begin(), got.end());
        std::vector<uint32_t> want = LabelsIn(shard_sets[epoch], o);
        if (got != want) {
          failures->Add("LabelsOf mismatch: o=" + std::to_string(o) +
                        " at shard epoch " + std::to_string(epoch) +
                        ": got " + std::to_string(got.size()) +
                        " labels, want " + std::to_string(want.size()));
        }
        if (rel.CountLabelsOf(o, &epoch) !=
            LabelsIn(shard_sets[epoch], o).size()) {
          failures->Add("CountLabelsOf mismatch: o=" + std::to_string(o) +
                        " at shard epoch " + std::to_string(epoch));
        }
        break;
      }
      case 2: {
        // Label-keyed: fan-out, epoch vector.
        uint32_t a = script.probe_labels[p];
        std::vector<uint32_t> got = rel.ObjectsOf(a, &eps);
        std::sort(got.begin(), got.end());
        if (got != ObjectsIn(script, eps, a)) {
          failures->Add("ObjectsOf mismatch: a=" + std::to_string(a));
        }
        uint64_t count = rel.CountObjectsOf(a, &eps);
        uint64_t want = ObjectsIn(script, eps, a).size();
        if (count != want) {
          failures->Add("CountObjectsOf mismatch: a=" + std::to_string(a) +
                        ": got " + std::to_string(count) + ", want " +
                        std::to_string(want));
        }
        break;
      }
      default: {
        uint64_t got = rel.num_pairs(&eps);
        uint64_t want = 0;
        for (uint32_t shard = 0; shard < script.num_shards; ++shard) {
          want += script.snapshots[shard][eps[shard]].size();
        }
        if (got != want) {
          failures->Add("num_pairs mismatch: got " + std::to_string(got) +
                        ", want " + std::to_string(want));
        }
        break;
      }
    }
    ++n;
  }
  *queries_run = n;
}

void RunShardedRelationScenario(uint32_t num_shards, RelationBackend backend,
                                uint64_t min_c0, uint64_t seed,
                                int num_batches) {
  RelationIndexOptions opt;
  opt.min_c0 = min_c0;  // frequent merges/purges while readers are live
  opt.tau = 3;
  opt.baseline_max_objects = kObjects;
  opt.baseline_max_labels = kLabels;
  ShardedRelation rel(num_shards, backend, opt);
  RelScript script = MakeRelScript(rel, seed, num_batches);
  FailureLog failures;
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  std::vector<uint64_t> query_counts(kReaders, 0);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back(RelReaderLoop, std::cref(rel), std::cref(script),
                         seed * 1000 + r, std::cref(done), &failures,
                         &query_counts[r]);
  }
  // Writer: apply the script, checking the predicted counts; yield a little
  // so readers overlap with many distinct epochs.
  for (const RelBatch& batch : script.batches) {
    uint64_t applied = batch.is_add ? rel.AddPairsBatch(batch.pairs)
                                    : rel.RemovePairsBatch(batch.pairs);
    if (applied != batch.expected_applied) {
      failures.Add(std::string(batch.is_add ? "Add" : "Remove") +
                   "PairsBatch applied " + std::to_string(applied) +
                   ", want " + std::to_string(batch.expected_applied));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  for (const std::string& f : failures.Take()) ADD_FAILURE() << f;
  uint64_t total_queries = 0;
  for (uint64_t c : query_counts) total_queries += c;
  EXPECT_GT(total_queries, 0u);
  // Quiesced final state == merged final snapshots.
  ShardEpochs final_epochs = rel.epochs();
  uint64_t want_pairs = 0;
  for (uint32_t shard = 0; shard < num_shards; ++shard) {
    ASSERT_EQ(final_epochs[shard] + 1, script.snapshots[shard].size())
        << "shard " << shard;
    want_pairs += script.snapshots[shard].back().size();
  }
  if (num_shards == 1) {
    ASSERT_EQ(final_epochs[0], script.batches.size());
  }
  ASSERT_EQ(rel.num_pairs(), want_pairs);
  for (uint32_t o : script.probe_objects) {
    std::vector<uint32_t> got = rel.LabelsOf(o);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got,
              LabelsIn(script.snapshots[rel.shard_of_object(o)].back(), o))
        << "probe object " << o;
  }
  rel.CheckInvariants();
}

TEST(ServeShardedConcurrent, RelationReadersDuringParallelWrites) {
  RunShardedRelationScenario(3, RelationBackend::kTheorem2, 16, 99, 70);
}

TEST(ServeShardedConcurrent, OneShardRelationReadersOverTheorem2) {
  RunShardedRelationScenario(1, RelationBackend::kTheorem2, 32, 71, 120);
}

TEST(ServeShardedConcurrent, OneShardRelationReadersOverBaseline) {
  RunShardedRelationScenario(1, RelationBackend::kBaseline, 32, 72, 90);
}

TEST(ServeShardedConcurrent, OneShardRelationReadersOverGraphView) {
  RunShardedRelationScenario(1, RelationBackend::kGraph, 32, 73, 120);
}

// The speed tier republishes adjacency-set reps and directory tables far
// more often than the succinct backends publish anything, so this leans on
// the single-pointer/retire discipline hardest (optimistic readers race the
// pointer churn; TSan runs this under lock-assisted validation).
TEST(ServeShardedConcurrent, OneShardRelationReadersOverFastTier) {
  RunShardedRelationScenario(1, RelationBackend::kFast, 32, 74, 150);
}

// A second Theorem 2 run with a different seed: more remove pressure crossing
// purge/rebuild boundaries under live readers.
TEST(ServeShardedConcurrent, OneShardRelationTheorem2SecondSeed) {
  RunShardedRelationScenario(1, RelationBackend::kTheorem2, 32, 1729, 150);
}

}  // namespace
}  // namespace dyndex
