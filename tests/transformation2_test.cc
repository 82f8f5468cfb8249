// Model tests of Transformation 2 (worst-case updates): synchronous mode is
// deterministic; threaded mode exercises real background builds with racing
// deletions replayed at swap time.
#include "core/transformation2.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "gen/text_gen.h"
#include "text/fm_index.h"
#include "text/packed_sa_index.h"
#include "util/rng.h"

namespace dyndex {
namespace {

std::vector<Occurrence> NaiveFind(
    const std::map<DocId, std::vector<Symbol>>& model,
    const std::vector<Symbol>& p) {
  std::vector<Occurrence> out;
  for (const auto& [id, doc] : model) {
    if (doc.size() < p.size()) continue;
    for (uint64_t i = 0; i + p.size() <= doc.size(); ++i) {
      if (std::equal(p.begin(), p.end(),
                     doc.begin() + static_cast<int64_t>(i))) {
        out.push_back({id, i});
      }
    }
  }
  return out;
}

T2Options SmallT2(RebuildMode mode, bool counting = false) {
  T2Options opt;
  opt.min_c0 = 64;
  opt.tau = 4;
  opt.counting = counting;
  opt.mode = mode;
  return opt;
}

template <typename Coll>
void RunChurn(Coll& coll, uint64_t seed, int steps, uint32_t sigma,
              uint64_t max_doc_len, bool check_queries_every_step) {
  std::map<DocId, std::vector<Symbol>> model;
  Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    uint64_t op = rng.Below(10);
    if (op < 5 || model.empty()) {
      auto doc = UniformText(rng, rng.Range(1, max_doc_len), sigma);
      DocId id = coll.Insert(doc);
      model.emplace(id, std::move(doc));
    } else if (op < 7) {
      auto it = model.begin();
      std::advance(it, static_cast<int64_t>(rng.Below(model.size())));
      ASSERT_TRUE(coll.Erase(it->first));
      model.erase(it);
    } else if (op < 9 || check_queries_every_step) {
      std::vector<std::vector<Symbol>> live;
      for (const auto& [id, d] : model) live.push_back(d);
      auto p = SamplePattern(rng, live, rng.Range(1, 6), sigma);
      auto got = coll.Find(p);
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, NaiveFind(model, p)) << "step " << step;
      ASSERT_EQ(coll.Count(p), NaiveFind(model, p).size()) << "step " << step;
    } else if (!model.empty()) {
      auto it = model.begin();
      std::advance(it, static_cast<int64_t>(rng.Below(model.size())));
      const auto& doc = it->second;
      uint64_t from = rng.Below(doc.size());
      uint64_t len = rng.Below(doc.size() - from + 1);
      auto begin = doc.begin() + static_cast<int64_t>(from);
      std::vector<Symbol> expect(begin, begin + static_cast<int64_t>(len));
      ASSERT_EQ(coll.Extract(it->first, from, len), expect);
    }
    if (step % 100 == 99) coll.CheckInvariants();
  }
  coll.ForceAllPending();
  coll.CheckInvariants();
  ASSERT_EQ(coll.num_docs(), model.size());
  // Exhaustive final check.
  std::vector<std::vector<Symbol>> live;
  for (const auto& [id, d] : model) live.push_back(d);
  Rng qrng(seed + 1);
  for (int q = 0; q < 30 && !model.empty(); ++q) {
    auto p = SamplePattern(qrng, live, qrng.Range(1, 5), sigma);
    auto got = coll.Find(p);
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, NaiveFind(model, p));
  }
}

TEST(T2Sync, ChurnModelFm) {
  DynamicCollectionT2<FmIndex> coll(SmallT2(RebuildMode::kSynchronous));
  RunChurn(coll, 2001, 700, 4, 100, false);
}

TEST(T2Sync, ChurnModelFmCounting) {
  DynamicCollectionT2<FmIndex> coll(SmallT2(RebuildMode::kSynchronous, true));
  RunChurn(coll, 2002, 500, 6, 80, false);
}

TEST(T2Sync, ChurnModelPacked) {
  DynamicCollectionT2<PackedSaIndex> coll(SmallT2(RebuildMode::kSynchronous));
  RunChurn(coll, 2003, 600, 4, 100, false);
}

TEST(T2Threaded, ChurnModelFm) {
  DynamicCollectionT2<FmIndex> coll(SmallT2(RebuildMode::kThreaded));
  RunChurn(coll, 2004, 700, 4, 100, false);
}

TEST(T2Threaded, ChurnModelQueriesEveryStep) {
  // Query correctness must hold *while* background builds are in flight.
  DynamicCollectionT2<FmIndex> coll(SmallT2(RebuildMode::kThreaded));
  RunChurn(coll, 2005, 300, 4, 60, true);
}

TEST(T2Sync, OversizedDocBecomesTopCollection) {
  DynamicCollectionT2<FmIndex> coll(SmallT2(RebuildMode::kSynchronous));
  Rng rng(2006);
  // Prime the collection.
  std::map<DocId, std::vector<Symbol>> model;
  for (int i = 0; i < 50; ++i) {
    auto d = UniformText(rng, 30, 4);
    model.emplace(coll.Insert(d), d);
  }
  auto big = UniformText(rng, 4000, 4);
  DocId id = coll.Insert(big);
  model.emplace(id, big);
  EXPECT_GE(coll.num_tops(), 1u);
  std::vector<std::vector<Symbol>> live;
  for (const auto& [i, d] : model) live.push_back(d);
  for (int q = 0; q < 20; ++q) {
    auto p = SamplePattern(rng, live, 4, 4);
    auto got = coll.Find(p);
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, NaiveFind(model, p));
  }
  // Deleting the oversized doc must eventually drop its top collection.
  coll.Erase(id);
  model.erase(id);
  auto p = SamplePattern(rng, {big}, 6, 4);
  auto got = coll.Find(p);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, NaiveFind(model, p));
}

TEST(T2Sync, HeavyDeletionTriggersPurges) {
  DynamicCollectionT2<FmIndex> coll(SmallT2(RebuildMode::kSynchronous));
  Rng rng(2007);
  std::vector<DocId> ids;
  std::map<DocId, std::vector<Symbol>> model;
  for (int i = 0; i < 400; ++i) {
    auto d = UniformText(rng, 40, 4);
    DocId id = coll.Insert(d);
    ids.push_back(id);
    model.emplace(id, d);
  }
  // Delete 90%.
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i % 10 == 0) continue;
    ASSERT_TRUE(coll.Erase(ids[i]));
    model.erase(ids[i]);
  }
  coll.ForceAllPending();
  coll.CheckInvariants();
  std::vector<std::vector<Symbol>> live;
  for (const auto& [i, d] : model) live.push_back(d);
  for (int q = 0; q < 20; ++q) {
    auto p = SamplePattern(rng, live, 3, 4);
    auto got = coll.Find(p);
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, NaiveFind(model, p));
  }
}

TEST(T2Threaded, DeletionsDuringBackgroundBuildAreReplayed) {
  DynamicCollectionT2<FmIndex> coll(SmallT2(RebuildMode::kThreaded));
  Rng rng(2008);
  std::map<DocId, std::vector<Symbol>> model;
  // Fill beyond C0 so a background build starts, then delete immediately.
  std::vector<DocId> ids;
  for (int i = 0; i < 120; ++i) {
    auto d = UniformText(rng, 20, 4);
    DocId id = coll.Insert(d);
    ids.push_back(id);
    model.emplace(id, d);
  }
  // Erase a batch without waiting for pending builds.
  for (int i = 0; i < 60; ++i) {
    coll.Erase(ids[i]);
    model.erase(ids[i]);
  }
  coll.ForceAllPending();
  coll.CheckInvariants();
  ASSERT_EQ(coll.num_docs(), model.size());
  std::vector<std::vector<Symbol>> live;
  for (const auto& [i, d] : model) live.push_back(d);
  for (int q = 0; q < 20; ++q) {
    auto p = SamplePattern(rng, live, 3, 4);
    auto got = coll.Find(p);
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, NaiveFind(model, p));
  }
}

// Steady churn: one insert and one erase per step keeps the live size inside
// (n_f/2, 2 n_f), so no global rebuild resets the top list and only the
// purge tick's merge bounds it. Without the merge the tops pile up (17 after
// 4000 steps of this loop).
void RunSteadyChurn(RebuildMode mode, uint64_t seed) {
  DynamicCollectionT2<FmIndex> coll(SmallT2(mode));
  Rng rng(seed);
  std::map<DocId, std::vector<Symbol>> model;
  std::vector<std::vector<Symbol>> batch;
  for (int i = 0; i < 200; ++i) {
    batch.push_back(UniformText(rng, rng.Range(10, 60), 4));
  }
  const std::vector<DocId> ids = coll.InsertBulk(batch);
  for (size_t i = 0; i < ids.size(); ++i) model.emplace(ids[i], batch[i]);
  const uint64_t nf = coll.live_symbols();  // the bulk load sets n_f to it
  auto step = [&] {
    auto doc = UniformText(rng, rng.Range(10, 60), 4);
    model.emplace(coll.Insert(doc), doc);
    auto it = model.begin();
    std::advance(it, static_cast<int64_t>(rng.Below(model.size())));
    EXPECT_TRUE(coll.Erase(it->first));
    model.erase(it);
  };
  for (int s = 0; s < 600; ++s) {
    step();
    const uint64_t live = coll.live_symbols();
    ASSERT_GT(2 * live, nf) << "step " << s;
    ASSERT_LT(live, 2 * nf) << "step " << s;
  }
  // A top the largest level spilled after the last purge tick waits for the
  // next one, so settle with a few more steps before the bound is checked.
  coll.ForceAllPending();
  for (int s = 0; s < 32 && coll.num_tops() > 2; ++s) {
    step();
    coll.ForceAllPending();
  }
  EXPECT_LE(coll.num_tops(), 2u);
  coll.CheckInvariants();
  ASSERT_EQ(coll.num_docs(), model.size());
  std::vector<std::vector<Symbol>> live;
  for (const auto& [id, d] : model) live.push_back(d);
  for (int q = 0; q < 30; ++q) {
    auto p = SamplePattern(rng, live, rng.Range(1, 6), 4);
    auto got = coll.Find(p);
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, NaiveFind(model, p));
  }
}

TEST(T2Sync, SteadyChurnKeepsAtMostTwoTops) {
  RunSteadyChurn(RebuildMode::kSynchronous, 3001);
}

TEST(T2Threaded, SteadyChurnKeepsAtMostTwoTops) {
  RunSteadyChurn(RebuildMode::kThreaded, 3002);
}

TEST(T2Threaded, ErasuresDuringMultiTopMergeAreReplayed) {
  // tau = 64: the cold base is one top (n_f = its size) and every later
  // document of n_f/64 symbols or more is a top of its own. Erasing a base
  // document ticks the purge, which merges the base top (the deadest) with
  // the three smallest one-document tops, keeping the fourth. The erasures
  // that follow hit every merged slot, and one unmerged slot, while that
  // build runs; each must be replayed on the merged top at the swap. A round
  // whose build finished before the erasures is retried on a fresh
  // collection.
  constexpr uint64_t kBaseDocs = 128;
  constexpr uint64_t kBaseLen = 512;
  constexpr uint64_t kTopLen = 1100;  // >= n_f / tau = 1024
  constexpr int kSmallTops = 4;
  int in_flight_rounds = 0;
  for (int round = 0; round < 8 && in_flight_rounds == 0; ++round) {
    T2Options opt = SmallT2(RebuildMode::kThreaded);
    opt.tau = 64;
    DynamicCollectionT2<FmIndex> coll(opt);
    Rng rng(3100 + static_cast<uint64_t>(round));
    std::map<DocId, std::vector<Symbol>> model;
    std::vector<std::vector<Symbol>> base;
    for (uint64_t i = 0; i < kBaseDocs; ++i) {
      base.push_back(UniformText(rng, kBaseLen, 4));
    }
    const std::vector<DocId> base_ids = coll.InsertBulk(base);
    for (size_t i = 0; i < base_ids.size(); ++i) {
      model.emplace(base_ids[i], base[i]);
    }
    std::vector<DocId> top_ids;
    for (int t = 0; t < kSmallTops; ++t) {
      auto doc = UniformText(rng, kTopLen, 4);
      top_ids.push_back(coll.Insert(doc));
      model.emplace(top_ids.back(), doc);
    }
    ASSERT_EQ(coll.num_tops(), 1u + kSmallTops);
    ASSERT_EQ(coll.num_pending(), 0u);

    std::vector<std::vector<Symbol>> erased;
    auto erase = [&](DocId id) {
      erased.push_back(model.at(id));
      ASSERT_TRUE(coll.Erase(id));
      model.erase(id);
    };
    erase(base_ids[0]);  // the tick: one merge of four tops starts
    ASSERT_EQ(coll.num_pending(), 1u);
    erase(base_ids[1]);
    for (DocId id : top_ids) erase(id);
    // Still in flight: every merged slot is still occupied.
    const bool in_flight =
        coll.num_pending() == 1 && coll.num_tops() == 1u + kSmallTops;
    in_flight_rounds += in_flight;
    coll.CheckInvariants();  // the merge set while the build runs

    coll.ForceAllPending();
    coll.CheckInvariants();
    EXPECT_LE(coll.num_tops(), 2u);
    ASSERT_EQ(coll.num_docs(), model.size());
    for (DocId id : top_ids) EXPECT_FALSE(coll.Contains(id));
    std::vector<std::vector<Symbol>> live;
    for (const auto& [id, d] : model) live.push_back(d);
    for (int q = 0; q < 20; ++q) {
      // Long patterns from erased documents: a deletion lost at the swap
      // would bring its document back.
      auto p = SamplePattern(rng, q % 2 == 0 ? erased : live, 12, 4);
      auto got = coll.Find(p);
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, NaiveFind(model, p)) << "round " << round;
      ASSERT_EQ(coll.Count(p), got.size());
    }
  }
  EXPECT_GT(in_flight_rounds, 0) << "every merge finished before the erasures";
}

TEST(T2Sync, EraseUnknownAndDoubleErase) {
  DynamicCollectionT2<FmIndex> coll(SmallT2(RebuildMode::kSynchronous));
  EXPECT_FALSE(coll.Erase(999));
  DocId id = coll.Insert({2, 3, 4});
  EXPECT_TRUE(coll.Erase(id));
  EXPECT_FALSE(coll.Erase(id));
  EXPECT_EQ(coll.num_docs(), 0u);
}

}  // namespace
}  // namespace dyndex
