// Head-to-head backend frontier: every RelationBackend measured over the
// same workloads, so backend choice is a measured space-vs-speed tradeoff
// instead of a default. One binary emits the whole frontier table in the
// standard BENCH_*.json format:
//
//  * FrontierBuildBulk/<backend>/<edges>  -- cold bulk build of a Zipf graph
//    at 2^17 and 2^20 edges, with space_bytes / bytes_per_edge counters (the
//    space axis of the frontier, reported honestly for every backend).
//  * FrontierUpdateMix/<backend>          -- the update-heavy mix: a warm
//    structure replaying a seeded add/remove churn stream (the same
//    gen/relation_gen.h GenChurnStream the differential fuzzer replays).
//  * FrontierChurnMix/<backend>/<regime>  -- social-network-shaped churn
//    (Zipf 0.99 label popularity) in write_heavy and read_heavy regimes,
//    queries interleaved with updates.
//  * FrontierRelated|Neighbors|Reverse/<backend>/<edges> -- point and
//    O(result) queries against warm fixtures at both graph sizes; Reverse
//    goes through each backend's reverse machinery (the fast tier's mirrored
//    index vs the succinct structures' native rank/select).
//  * FrontierConcurrentReaders/<backend>  -- 4 optimistic lock-free readers
//    vs one paced churn writer over a single-core ShardedRelation, with the
//    full optimistic_stats()/pacing_stats() counter set per backend: the
//    fast tier republishes pointers far more often than the succinct
//    backends, so validated/retries/fallbacks must stay sane alongside raw
//    throughput.
//
// Rows are registered per backend name (RegisterBenchmark) so the JSON and
// the README frontier table read directly, without decoding arg indexes.
//
// Fixed seeds end to end: rows are diffable run-to-run and against the
// committed bench/baselines/ snapshot.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen/relation_gen.h"
#include "serve/relation_index.h"
#include "serve/sharded_relation.h"
#include "util/rng.h"

namespace dyndex {
namespace {

constexpr uint32_t kNodes = 1 << 17;       // graph id universe
constexpr uint64_t kEdgesSmall = 1 << 17;  // avg degree 1
constexpr uint64_t kEdgesLarge = 1 << 20;  // avg degree 8
constexpr double kGraphZipf = 0.8;

// Churn universe shaped like a social graph: avg forward degree 16 (reverse
// 32), so adjacency sets sit in each backend's steady-state representation
// (hash mode for the fast tier, multi-level wavelet structures for the
// succinct ones) instead of the near-empty cold edge.
constexpr uint32_t kChurnObjects = 1 << 12;
constexpr uint32_t kChurnLabels = 1 << 11;
constexpr uint64_t kChurnBaseEdges = 1 << 16;
constexpr uint64_t kMixOps = 2048;

constexpr uint64_t kQueriesPerRow = 1024;
constexpr int kBenchReaders = 4;
constexpr uint64_t kQueriesPerReader = 2048;

const std::vector<RelationBackend>& AllBackends() {
  static const auto* backends = new std::vector<RelationBackend>{
      RelationBackend::kFast, RelationBackend::kTheorem2,
      RelationBackend::kBaseline, RelationBackend::kGraph,
      RelationBackend::kDeletionOnly};
  return *backends;
}

RelationIndexOptions FrontierOptions() {
  RelationIndexOptions opt;
  // Size the baseline's initial capacities to the id universe so every
  // backend pays construction once instead of doubling rebuilds mid-bench.
  opt.baseline_max_objects = kNodes;
  opt.baseline_max_labels = kNodes;
  return opt;
}

const RelationPairs& GraphEdges(uint64_t count) {
  static auto* cache = new std::map<uint64_t, RelationPairs>();
  auto it = cache->find(count);
  if (it == cache->end()) {
    Rng rng(417);
    it = cache->emplace(count, GenEdges(rng, count, kNodes, kGraphZipf)).first;
  }
  return it->second;
}

// --- cold bulk build + the space axis --------------------------------------

void RunBuildBulk(benchmark::State& state, RelationBackend backend,
                  uint64_t edges) {
  const RelationPairs& pairs = GraphEdges(edges);
  uint64_t space = 0;
  uint64_t live = 0;
  for (auto _ : state) {
    auto rel = MakeRelationIndex(backend, FrontierOptions());
    benchmark::DoNotOptimize(rel->AddPairsBulk(pairs));
    space = rel->SpaceBytes();
    live = rel->num_pairs();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pairs.size()));
  state.counters["edges"] = static_cast<double>(live);
  state.counters["space_bytes"] = static_cast<double>(space);
  state.counters["bytes_per_edge"] =
      live == 0 ? 0 : static_cast<double>(space) / static_cast<double>(live);
}

// --- churn mixes over the shared stream generator ---------------------------

struct MixFixture {
  std::unique_ptr<RelationIndex> rel;
  std::vector<ChurnEvent> stream;
};

void ReplayStream(RelationIndex* rel, const std::vector<ChurnEvent>& stream) {
  for (const ChurnEvent& ev : stream) {
    switch (ev.op) {
      case ChurnOp::kAdd:
        benchmark::DoNotOptimize(rel->AddPair(ev.object, ev.label));
        break;
      case ChurnOp::kRemove:
        benchmark::DoNotOptimize(rel->RemovePair(ev.object, ev.label));
        break;
      case ChurnOp::kRelated:
        benchmark::DoNotOptimize(rel->Related(ev.object, ev.label));
        break;
      case ChurnOp::kLabelsOf: {
        std::vector<uint32_t> v = rel->LabelsOf(ev.object);
        benchmark::DoNotOptimize(v.data());
        break;
      }
      case ChurnOp::kObjectsOf: {
        std::vector<uint32_t> v = rel->ObjectsOf(ev.label);
        benchmark::DoNotOptimize(v.data());
        break;
      }
    }
  }
}

/// Warm fixture + stream, cached per (backend, regime). The stream is
/// replayed once before timing: replay N applied to the same start state is
/// idempotent in its end state, so every timed replay does identical work.
MixFixture* GetMixFixture(RelationBackend backend, const char* regime,
                          double add_fraction, double remove_fraction,
                          double zipf) {
  static auto* cache = new std::map<std::pair<int, std::string>,
                                    std::unique_ptr<MixFixture>>();
  auto key = std::make_pair(static_cast<int>(backend), std::string(regime));
  auto it = cache->find(key);
  if (it != cache->end()) return it->second.get();
  auto f = std::make_unique<MixFixture>();
  f->rel = MakeRelationIndex(backend, FrontierOptions());
  Rng rng(523);
  f->rel->AddPairsBulk(
      GenPairs(rng, kChurnBaseEdges, kChurnObjects, kChurnLabels, zipf));
  ChurnStreamOptions copt;
  copt.num_ops = kMixOps;
  copt.num_objects = kChurnObjects;
  copt.num_labels = kChurnLabels;
  copt.zipf_theta = zipf;
  copt.add_fraction = add_fraction;
  copt.remove_fraction = remove_fraction;
  f->stream = GenChurnStream(rng, copt);
  ReplayStream(f->rel.get(), f->stream);  // settle into the steady state
  MixFixture* out = f.get();
  (*cache)[key] = std::move(f);
  return out;
}

void RunMix(benchmark::State& state, RelationBackend backend,
            const char* regime, double add_fraction, double remove_fraction,
            double zipf) {
  MixFixture* f =
      GetMixFixture(backend, regime, add_fraction, remove_fraction, zipf);
  for (auto _ : state) {
    ReplayStream(f->rel.get(), f->stream);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f->stream.size()));
  state.counters["space_bytes"] = static_cast<double>(f->rel->SpaceBytes());
}

// --- warm query rows --------------------------------------------------------

RelationIndex* GetGraphFixture(RelationBackend backend, uint64_t edges) {
  static auto* cache =
      new std::map<std::pair<int, uint64_t>, std::unique_ptr<RelationIndex>>();
  auto key = std::make_pair(static_cast<int>(backend), edges);
  auto it = cache->find(key);
  if (it == cache->end()) {
    auto rel = MakeRelationIndex(backend, FrontierOptions());
    rel->AddPairsBulk(GraphEdges(edges));
    it = cache->emplace(key, std::move(rel)).first;
  }
  return it->second.get();
}

enum class QueryKind { kRelated, kNeighbors, kReverse };

void RunQueries(benchmark::State& state, RelationBackend backend,
                uint64_t edges, QueryKind kind) {
  RelationIndex* rel = GetGraphFixture(backend, edges);
  // Query arguments sampled from live edges: sources/targets with real
  // adjacency, so O(result) rows measure result delivery, not miss probes.
  const RelationPairs& pairs = GraphEdges(edges);
  Rng rng(771);
  std::vector<std::pair<uint32_t, uint32_t>> sample;
  sample.reserve(kQueriesPerRow);
  for (uint64_t i = 0; i < kQueriesPerRow; ++i) {
    sample.push_back(pairs[rng.Below(pairs.size())]);
  }
  uint64_t results = 0;
  for (auto _ : state) {
    for (const auto& [u, v] : sample) {
      switch (kind) {
        case QueryKind::kRelated:
          benchmark::DoNotOptimize(rel->Related(u, v));
          ++results;
          break;
        case QueryKind::kNeighbors: {
          std::vector<uint32_t> out = rel->LabelsOf(u);
          benchmark::DoNotOptimize(out.data());
          results += out.size();
          break;
        }
        case QueryKind::kReverse: {
          std::vector<uint32_t> out = rel->ObjectsOf(v);
          benchmark::DoNotOptimize(out.data());
          results += out.size();
          break;
        }
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kQueriesPerRow));
  state.counters["results_per_query"] =
      state.iterations() == 0
          ? 0
          : static_cast<double>(results) /
                static_cast<double>(state.iterations() * kQueriesPerRow);
  state.counters["space_bytes"] = static_cast<double>(rel->SpaceBytes());
}

// --- concurrent readers vs a paced writer -----------------------------------

struct ConcurrentFixture {
  std::unique_ptr<ShardedRelation> rel;
  RelationPairs churn;
};

ConcurrentFixture* GetConcurrentFixture(RelationBackend backend) {
  static auto* cache =
      new std::map<int, std::unique_ptr<ConcurrentFixture>>();
  auto it = cache->find(static_cast<int>(backend));
  if (it != cache->end()) return it->second.get();
  auto f = std::make_unique<ConcurrentFixture>();
  f->rel = std::make_unique<ShardedRelation>(1, backend, FrontierOptions());
  f->rel->AddPairsBatch(GraphEdges(kEdgesSmall));
  Rng rng(529);
  f->churn = GenPairs(rng, 4096, kNodes, kNodes, kGraphZipf);
  ConcurrentFixture* out = f.get();
  (*cache)[static_cast<int>(backend)] = std::move(f);
  return out;
}

void RunConcurrentReaders(benchmark::State& state, RelationBackend backend) {
  ConcurrentFixture* f = GetConcurrentFixture(backend);
  // The standard serving configuration: optimistic lock-free reads, write
  // pacing in the unconditional write-rate-limiter mode (stall_threshold 0).
  OptimisticPolicy policy;
  policy.max_attempts = 3;
  f->rel->set_optimistic_policy(policy);
  PacingPolicy pacing;
  pacing.min_even_window_us = 2000;
  pacing.max_delay_us = 4000;
  pacing.stall_threshold = 0;
  f->rel->set_pacing_policy(pacing);
  const OptimisticStats before = f->rel->optimistic_stats();
  const PacingStats pace_before = f->rel->pacing_stats();
  uint64_t round = 0;
  uint64_t writer_batches = 0;
  for (auto _ : state) {
    std::atomic<bool> stop{false};
    uint64_t batches = 0;
    std::thread writer([&] {
      uint64_t n = 0;
      while (!stop.load(std::memory_order_acquire)) {
        RelationPairs batch(f->churn.begin() + (n % 128) * 32,
                            f->churn.begin() + (n % 128) * 32 + 32);
        f->rel->AddPairsBatch(batch);
        f->rel->RemovePairsBatch(batch);
        ++n;
        ++batches;
      }
    });
    std::vector<std::thread> pool;
    for (int r = 0; r < kBenchReaders; ++r) {
      pool.emplace_back([f, seed = round * 131 + r] {
        Rng rng(seed);
        for (uint64_t q = 0; q < kQueriesPerReader; ++q) {
          uint32_t u = static_cast<uint32_t>(rng.Below(kNodes));
          uint32_t v = static_cast<uint32_t>(rng.Below(kNodes));
          switch (rng.Below(3)) {
            case 0:
              benchmark::DoNotOptimize(f->rel->Related(u, v));
              break;
            case 1:
              benchmark::DoNotOptimize(f->rel->CountLabelsOf(u));
              break;
            default:
              benchmark::DoNotOptimize(f->rel->CountObjectsOf(v));
              break;
          }
        }
      });
    }
    for (auto& t : pool) t.join();
    stop.store(true, std::memory_order_release);
    writer.join();
    writer_batches += batches;
    ++round;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kBenchReaders *
                          static_cast<int64_t>(kQueriesPerReader));
  state.counters["writer_batches"] = static_cast<double>(writer_batches);
  // Full read-path outcome + pacing counter set (see bench_serve_sharded):
  // the fast tier's pointer churn must show up as validations, not as a
  // fallback avalanche.
  const OptimisticStats after = f->rel->optimistic_stats();
  const PacingStats pace_after = f->rel->pacing_stats();
  state.counters["validated"] =
      static_cast<double>(after.validated - before.validated);
  state.counters["retries"] =
      static_cast<double>(after.retries - before.retries);
  state.counters["fallbacks"] =
      static_cast<double>(after.fallbacks - before.fallbacks);
  state.counters["capture_exhausted"] = static_cast<double>(
      after.capture_exhausted - before.capture_exhausted);
  state.counters["retries_exhausted"] = static_cast<double>(
      after.retries_exhausted - before.retries_exhausted);
  state.counters["locked_reads"] =
      static_cast<double>(after.locked_reads - before.locked_reads);
  state.counters["pace_waits"] =
      static_cast<double>(pace_after.waits - pace_before.waits);
  state.counters["pace_wait_us"] =
      static_cast<double>(pace_after.wait_us - pace_before.wait_us);
}

void RegisterAll() {
  for (RelationBackend backend : AllBackends()) {
    const std::string name = RelationBackendName(backend);
    const bool rebuild_per_insert = backend == RelationBackend::kDeletionOnly;
    for (uint64_t edges : {kEdgesSmall, kEdgesLarge}) {
      auto* build = benchmark::RegisterBenchmark(
          ("FrontierBuildBulk/" + name + "/" + std::to_string(edges)).c_str(),
          RunBuildBulk, backend, edges);
      build->Unit(benchmark::kMillisecond);
      // One cold build at 2^20 is tens of ms to seconds depending on the
      // backend; the fixed seed makes a single measurement diffable.
      if (edges == kEdgesLarge) build->Iterations(1);
    }
    auto* update = benchmark::RegisterBenchmark(
        ("FrontierUpdateMix/" + name).c_str(), RunMix, backend, "update",
        /*add_fraction=*/0.55, /*remove_fraction=*/0.45, /*zipf=*/0.8);
    update->Unit(benchmark::kMillisecond);
    // Every point insert rebuilds the deletion-only structure: seconds per
    // replay — measure one.
    if (rebuild_per_insert) update->Iterations(1);
    auto* write_heavy = benchmark::RegisterBenchmark(
        ("FrontierChurnMix/" + name + "/write_heavy").c_str(), RunMix, backend,
        "write_heavy", 0.45, 0.35, 0.99);
    write_heavy->Unit(benchmark::kMillisecond);
    if (rebuild_per_insert) write_heavy->Iterations(1);
    auto* read_heavy = benchmark::RegisterBenchmark(
        ("FrontierChurnMix/" + name + "/read_heavy").c_str(), RunMix, backend,
        "read_heavy", 0.10, 0.05, 0.99);
    read_heavy->Unit(benchmark::kMillisecond);
    if (rebuild_per_insert) read_heavy->Iterations(1);
    for (uint64_t edges : {kEdgesSmall, kEdgesLarge}) {
      const std::string suffix = "/" + name + "/" + std::to_string(edges);
      benchmark::RegisterBenchmark(("FrontierRelated" + suffix).c_str(),
                                   RunQueries, backend, edges,
                                   QueryKind::kRelated)
          ->Unit(benchmark::kMicrosecond);
      benchmark::RegisterBenchmark(("FrontierNeighbors" + suffix).c_str(),
                                   RunQueries, backend, edges,
                                   QueryKind::kNeighbors)
          ->Unit(benchmark::kMicrosecond);
      benchmark::RegisterBenchmark(("FrontierReverse" + suffix).c_str(),
                                   RunQueries, backend, edges,
                                   QueryKind::kReverse)
          ->Unit(benchmark::kMicrosecond);
    }
    benchmark::RegisterBenchmark(
        ("FrontierConcurrentReaders/" + name).c_str(), RunConcurrentReaders,
        backend)
        ->UseRealTime()
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace
}  // namespace dyndex

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  dyndex::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
