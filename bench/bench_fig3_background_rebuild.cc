// Figure 3 (E7): the background-rebuild lifecycle of Transformation 2 —
// lock C_j as L_j, serve the new document from Temp_{j+1}, build N_{j+1} in
// the background, swap.
//
// We verify the figure's operational promise: queries stay answerable (and
// fast) *while* a merge is in flight, because the locked old copies remain
// query targets until the swap.
#include <benchmark/benchmark.h>

#include <chrono>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/transformation2.h"
#include "gen/text_gen.h"
#include "text/fm_index.h"

namespace dyndex {
namespace {

using bench::GetCorpus;
using bench::MakePatterns;

// Query latency with an in-flight background build vs. settled state.
void BM_Fig3_QueryDuringRebuild(benchmark::State& state) {
  T2Options opt;
  opt.mode = RebuildMode::kThreaded;
  DynamicCollectionT2<FmIndex> coll(opt);
  Rng rng(15);
  std::vector<std::vector<Symbol>> docs;
  for (uint64_t total = 0; total < (1 << 17);) {
    docs.push_back(MarkovText(rng, 512, 16));
    total += docs.back().size();
  }
  for (const auto& d : docs) coll.Insert(d);
  auto patterns = MakePatterns(GetCorpus(1 << 16, 16), 6, 32);

  uint64_t during = 0, total_queries = 0;
  size_t i = 0;
  for (auto _ : state) {
    // Keep feeding inserts so background builds are regularly in flight;
    // measure a query right after each insert.
    coll.Insert(MarkovText(rng, 512, 16));
    bool pending = coll.num_pending() > 0;
    benchmark::DoNotOptimize(coll.Count(patterns[i++ % patterns.size()]));
    during += pending;
    ++total_queries;
  }
  coll.ForceAllPending();
  state.counters["fraction_with_pending_build"] =
      static_cast<double>(during) / static_cast<double>(total_queries);
}
BENCHMARK(BM_Fig3_QueryDuringRebuild)->Unit(benchmark::kMicrosecond);

// Settled-state comparison point for the benchmark above.
void BM_Fig3_QuerySettled(benchmark::State& state) {
  T2Options opt;
  opt.mode = RebuildMode::kThreaded;
  static std::unique_ptr<DynamicCollectionT2<FmIndex>> coll = [&] {
    auto c = std::make_unique<DynamicCollectionT2<FmIndex>>(opt);
    Rng rng(15);
    for (uint64_t total = 0; total < (1 << 17);) {
      auto d = MarkovText(rng, 512, 16);
      total += d.size();
      c->Insert(std::move(d));
    }
    c->ForceAllPending();
    return c;
  }();
  auto patterns = MakePatterns(GetCorpus(1 << 16, 16), 6, 32);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(coll->Count(patterns[i++ % patterns.size()]));
  }
}
BENCHMARK(BM_Fig3_QuerySettled)->Unit(benchmark::kMicrosecond);

// Query cost under steady churn. One insert and one erase per query hold
// the live size near n_f, so no global rebuild resets the top list and
// every query visits each top; the purge tick's merge is what bounds them.
// Only the Count is timed; `tops` is the mean top count the queries saw.
void BM_Fig3_QuerySteadyChurn(benchmark::State& state) {
  T2Options opt;
  opt.mode = RebuildMode::kThreaded;
  DynamicCollectionT2<FmIndex> coll(opt);
  Rng rng(17);
  std::vector<std::vector<Symbol>> docs;
  for (uint64_t total = 0; total < (1 << 17);) {
    docs.push_back(MarkovText(rng, 512, 16));
    total += docs.back().size();
  }
  std::vector<DocId> ids = coll.InsertBulk(std::move(docs));  // settled
  auto churn = [&] {
    ids.push_back(coll.Insert(MarkovText(rng, 512, 16)));
    const size_t victim = rng.Below(ids.size());
    coll.Erase(ids[victim]);
    ids[victim] = ids.back();
    ids.pop_back();
  };
  for (int i = 0; i < 512; ++i) churn();  // reach the steady top count
  auto patterns = MakePatterns(GetCorpus(1 << 16, 16), 6, 32);

  uint64_t tops = 0;
  size_t i = 0;
  for (auto _ : state) {
    churn();
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(coll.Count(patterns[i++ % patterns.size()]));
    state.SetIterationTime(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count());
    tops += coll.num_tops();
  }
  coll.ForceAllPending();
  state.counters["tops"] =
      static_cast<double>(tops) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_Fig3_QuerySteadyChurn)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

// Correctness-of-lifecycle micro-check as a benchmark: deletions racing the
// background build are replayed at swap (the Figure 3(c) hand-off).
void BM_Fig3_ChurnWithRacingDeletes(benchmark::State& state) {
  T2Options opt;
  opt.mode = RebuildMode::kThreaded;
  DynamicCollectionT2<FmIndex> coll(opt);
  Rng rng(16);
  std::vector<DocId> ids;
  for (auto _ : state) {
    for (int k = 0; k < 32; ++k) {
      ids.push_back(coll.Insert(MarkovText(rng, 512, 16)));
      if (ids.size() > 64) {
        size_t victim = rng.Below(ids.size());
        coll.Erase(ids[victim]);
        ids.erase(ids.begin() + static_cast<int64_t>(victim));
      }
    }
  }
  coll.ForceAllPending();
  state.counters["docs"] = static_cast<double>(coll.num_docs());
}
BENCHMARK(BM_Fig3_ChurnWithRacingDeletes)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dyndex

BENCHMARK_MAIN();
