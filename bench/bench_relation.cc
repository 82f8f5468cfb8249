// Relation serving benchmarks: bulk vs pairwise construction of the
// Theorem 2 dynamic relation (the cold-start path AddPairsBulk routes into
// one sub-collection build), and concurrent reader throughput over a
// single-core ShardedRelation (K = 1) on the shared epoch core — the
// relation-side analogue of bench_serve_concurrent.
//
// The headline row pair: RelationBuild/pairwise vs RelationBuild/bulk at
// 2^20 (~1e6) pairs. Pairwise insertion pays the merge cascade over and over
// (every C0 overflow exports and rebuilds a prefix of levels); bulk places
// the whole batch with exactly one static build.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "gen/relation_gen.h"
#include "serve/relation_index.h"
#include "serve/sharded_relation.h"
#include "util/rng.h"

namespace dyndex {
namespace {

constexpr uint32_t kObjects = 1 << 14;
constexpr uint32_t kLabels = 1 << 13;
constexpr uint64_t kQueriesPerReader = 2048;

const RelationPairs& GetPairs(uint64_t count) {
  static auto* cache = new std::map<uint64_t, RelationPairs>();
  auto it = cache->find(count);
  if (it == cache->end()) {
    Rng rng(91);
    it = cache->emplace(count, GenPairs(rng, count, kObjects, kLabels, 0.8))
             .first;
  }
  return it->second;
}

void BM_RelationBuild_Pairwise(benchmark::State& state) {
  const RelationPairs& pairs = GetPairs(static_cast<uint64_t>(state.range(0)));
  for (auto _ : state) {
    DynamicRelation rel;
    for (auto [o, a] : pairs) rel.AddPair(o, a);
    benchmark::DoNotOptimize(rel.num_pairs());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_RelationBuild_Bulk(benchmark::State& state) {
  const RelationPairs& pairs = GetPairs(static_cast<uint64_t>(state.range(0)));
  for (auto _ : state) {
    DynamicRelation rel;
    rel.AddPairsBulk(pairs);
    benchmark::DoNotOptimize(rel.num_pairs());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}

// Iterations(1) on the 2^20 pairwise row: one build is already seconds-long,
// and the fixed seed makes a single measurement stable enough to diff.
BENCHMARK(BM_RelationBuild_Pairwise)
    ->Arg(1 << 17)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RelationBuild_Pairwise)
    ->Arg(1 << 20)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RelationBuild_Bulk)
    ->Arg(1 << 17)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

void BM_RelationBuild_BaselineBulk(benchmark::State& state) {
  const RelationPairs& raw = GetPairs(static_cast<uint64_t>(state.range(0)));
  for (auto _ : state) {
    BaselineRelation rel(kObjects, kLabels);
    rel.AddPairsBulk(raw);
    benchmark::DoNotOptimize(rel.num_pairs());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_RelationBuild_BaselineBulk)
    ->Arg(1 << 17)
    ->Unit(benchmark::kMillisecond);

/// Prebuilt concurrent relation + query stream, shared across iterations.
struct RelServeFixture {
  std::unique_ptr<ShardedRelation> rel;
  RelationPairs churn;  // writer add/remove pool
};

RelServeFixture* GetServeFixture() {
  static RelServeFixture* fixture = [] {
    auto* f = new RelServeFixture();
    RelationIndexOptions opt;
    f->rel =
        std::make_unique<ShardedRelation>(1, RelationBackend::kTheorem2, opt);
    f->rel->AddPairsBatch(GetPairs(1 << 17));
    Rng rng(92);
    f->churn = GenPairs(rng, 4096, kObjects, kLabels, 0.8);
    return f;
  }();
  return fixture;
}

void RelReaderWork(const ShardedRelation& rel, uint64_t seed,
                   uint64_t queries) {
  Rng rng(seed);
  for (uint64_t q = 0; q < queries; ++q) {
    uint32_t o = static_cast<uint32_t>(rng.Below(kObjects));
    uint32_t a = static_cast<uint32_t>(rng.Below(kLabels));
    switch (rng.Below(3)) {
      case 0:
        benchmark::DoNotOptimize(rel.Related(o, a));
        break;
      case 1:
        benchmark::DoNotOptimize(rel.CountLabelsOf(o));
        break;
      default:
        benchmark::DoNotOptimize(rel.CountObjectsOf(a));
        break;
    }
  }
}

/// Writer loop: balanced add/remove batches so the relation size stays flat
/// while C0 and the purge machinery keep churning under the exclusive lock.
void RelWriterWork(RelServeFixture* f, const std::atomic<bool>& stop) {
  uint64_t n = 0;
  while (!stop.load(std::memory_order_acquire)) {
    RelationPairs batch(f->churn.begin() + (n % 128) * 32,
                        f->churn.begin() + (n % 128) * 32 + 32);
    f->rel->AddPairsBatch(batch);
    f->rel->RemovePairsBatch(batch);
    ++n;
  }
}

void BM_RelationConcurrentReads(benchmark::State& state) {
  RelServeFixture* f = GetServeFixture();
  const int readers = static_cast<int>(state.range(0));
  const bool with_writer = state.range(1) != 0;
  uint64_t round = 0;
  for (auto _ : state) {
    std::atomic<bool> stop{false};
    std::thread writer;
    if (with_writer) {
      writer = std::thread(RelWriterWork, f, std::cref(stop));
    }
    std::vector<std::thread> pool;
    for (int r = 0; r < readers; ++r) {
      pool.emplace_back(RelReaderWork, std::cref(*f->rel), round * 131 + r,
                        kQueriesPerReader);
    }
    for (auto& t : pool) t.join();
    stop.store(true, std::memory_order_release);
    if (writer.joinable()) writer.join();
    ++round;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * readers *
                          static_cast<int64_t>(kQueriesPerReader));
  state.counters["readers"] = readers;
  state.counters["writer"] = with_writer ? 1 : 0;
}

BENCHMARK(BM_RelationConcurrentReads)
    ->ArgNames({"readers", "writer"})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({8, 0})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Args({8, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dyndex

BENCHMARK_MAIN();
