// Theorem 3 (E10): dynamic directed graphs as binary relations.
//
// Power-law digraph; neighbor enumeration, reverse neighbors, adjacency,
// degree counting, and edge churn on the compressed dynamic graph.
#include <benchmark/benchmark.h>

#include <thread>
#include <vector>

#include "gen/relation_gen.h"
#include "relation/dynamic_graph.h"
#include "serve/relation_index.h"
#include "serve/sharded_relation.h"
#include "util/rng.h"

namespace dyndex {
namespace {

constexpr uint32_t kNodes = 4096;
constexpr uint64_t kEdges = 1 << 17;

DynamicGraph* GetGraph() {
  static std::unique_ptr<DynamicGraph> g = [] {
    auto graph = std::make_unique<DynamicGraph>();
    Rng rng(31);
    for (auto [u, v] : GenEdges(rng, kEdges, kNodes, /*zipf=*/0.8)) {
      graph->AddEdge(u, v);
    }
    return graph;
  }();
  return g.get();
}

void BM_Thm3_OutNeighbors(benchmark::State& state) {
  auto* g = GetGraph();
  Rng rng(32);
  uint64_t reported = 0;
  for (auto _ : state) {
    uint32_t u = static_cast<uint32_t>(rng.Below(kNodes));
    g->ForEachOutNeighbor(u, [&](uint32_t) { ++reported; });
  }
  state.counters["neighbors_per_query"] =
      static_cast<double>(reported) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_Thm3_OutNeighbors);

void BM_Thm3_InNeighbors(benchmark::State& state) {
  auto* g = GetGraph();
  Rng rng(33);
  uint64_t reported = 0;
  for (auto _ : state) {
    uint32_t v = static_cast<uint32_t>(rng.Below(kNodes));
    g->ForEachInNeighbor(v, [&](uint32_t) { ++reported; });
  }
  state.counters["neighbors_per_query"] =
      static_cast<double>(reported) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_Thm3_InNeighbors);

void BM_Thm3_Adjacency(benchmark::State& state) {
  auto* g = GetGraph();
  Rng rng(34);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        g->HasEdge(static_cast<uint32_t>(rng.Below(kNodes)),
                   static_cast<uint32_t>(rng.Below(kNodes))));
  }
}
BENCHMARK(BM_Thm3_Adjacency);

void BM_Thm3_Degrees(benchmark::State& state) {
  auto* g = GetGraph();
  Rng rng(35);
  for (auto _ : state) {
    uint32_t u = static_cast<uint32_t>(rng.Below(kNodes));
    benchmark::DoNotOptimize(g->OutDegree(u));
    benchmark::DoNotOptimize(g->InDegree(u));
  }
}
BENCHMARK(BM_Thm3_Degrees);

void BM_Thm3_EdgeChurn(benchmark::State& state) {
  auto* g = GetGraph();
  Rng rng(36);
  for (auto _ : state) {
    uint32_t u = static_cast<uint32_t>(rng.Below(kNodes));
    uint32_t v = static_cast<uint32_t>(rng.Below(kNodes));
    if (g->AddEdge(u, v)) g->RemoveEdge(u, v);
  }
}
BENCHMARK(BM_Thm3_EdgeChurn);

// Bulk edge loading (Coimbra et al.: batched construction is where dynamic
// succinct graphs win or lose) vs pairwise AddEdge.
void BM_Thm3_Build_Pairwise(benchmark::State& state) {
  Rng rng(31);
  auto edges = GenEdges(rng, kEdges, kNodes, /*zipf=*/0.8);
  for (auto _ : state) {
    DynamicGraph g;
    for (auto [u, v] : edges) g.AddEdge(u, v);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kEdges));
}
void BM_Thm3_Build_Bulk(benchmark::State& state) {
  Rng rng(31);
  auto edges = GenEdges(rng, kEdges, kNodes, /*zipf=*/0.8);
  for (auto _ : state) {
    DynamicGraph g;
    g.AddEdgesBulk(edges);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kEdges));
}
BENCHMARK(BM_Thm3_Build_Pairwise)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Thm3_Build_Bulk)->Unit(benchmark::kMillisecond);

// Concurrent neighbor queries over the graph view of a single-core
// ShardedRelation (K = 1, the shared epoch core), scaling reader threads.
void BM_Thm3_ConcurrentNeighbors(benchmark::State& state) {
  static ShardedRelation* shared = [] {
    auto* r = new ShardedRelation(1, RelationBackend::kGraph);
    Rng rng(31);
    r->AddPairsBatch(GenEdges(rng, kEdges, kNodes, /*zipf=*/0.8));
    return r;
  }();
  const int readers = static_cast<int>(state.range(0));
  constexpr uint64_t kQueries = 2048;
  uint64_t round = 0;
  for (auto _ : state) {
    std::vector<std::thread> pool;
    for (int r = 0; r < readers; ++r) {
      pool.emplace_back([seed = round * 131 + r] {
        Rng rng(seed);
        for (uint64_t q = 0; q < kQueries; ++q) {
          benchmark::DoNotOptimize(shared->Neighbors(
              static_cast<uint32_t>(rng.Below(kNodes))));
        }
      });
    }
    for (auto& t : pool) t.join();
    ++round;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * readers *
                          static_cast<int64_t>(kQueries));
  state.counters["readers"] = readers;
}
BENCHMARK(BM_Thm3_ConcurrentNeighbors)
    ->ArgName("readers")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_Thm3_Space(benchmark::State& state) {
  auto* g = GetGraph();
  for (auto _ : state) benchmark::DoNotOptimize(g->num_edges());
  state.counters["bytes_per_edge"] =
      static_cast<double>(g->SpaceBytes()) /
      static_cast<double>(g->num_edges());
}
BENCHMARK(BM_Thm3_Space);

}  // namespace
}  // namespace dyndex

BENCHMARK_MAIN();
