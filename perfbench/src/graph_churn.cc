// graph_churn: a Theorem 2 relation used as a directed graph, on two shards
// of ShardedRelation served durably, so Reverse and InDegree fan out on the
// pool and write batches split. Power-law initial edges; the writers replay
// GenChurnStream stretches as add and remove batches.
//
// Threads: one closed-loop reader, the writer (this thread) and the pool's
// one worker.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gen/relation_gen.h"
#include "harness.h"
#include "persist/env.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "relation/dynamic_relation.h"
#include "serve/persistence.h"
#include "serve/relation_index.h"
#include "serve/sharded_relation.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using dyndex::RelationPairs;
using dyndex::Rng;
using dyndex::ShardedRelation;

constexpr uint32_t kShards = 2;
constexpr double kZipf = 0.9;  // in-degree skew of initial and added edges

struct GraphParams {
  uint32_t vertices;
  uint64_t initial_edges;
  uint32_t write_events;      // churn events per write
  uint32_t ingest_writes;
  double serve_writes_per_s;
  uint32_t check_samples;     // end-of-phase vertices and edges
  uint32_t setup_reps;        // setup repetitions
  uint32_t recover_reps;      // recover repetitions
  uint32_t ladder_requests;
  double quiet_read_s;
};

GraphParams ParamsFor(const RunConfig& cfg) {
  if (cfg.smoke) return {1u << 10, 1u << 13, 64, 10, 10.0, 16, 1, 1, 32, 0.3};
  return {1u << 16, 1u << 19, 4096, 120, 10.0, 64, 5, 13, 512, 2.0};
}

/// One scheduled write: a stretch of the churn stream, applied as an
/// AddEdgesBatch of its adds, then a RemoveEdgesBatch of its removes. Every
/// write carries the same mix, so write latency has one mode.
struct PairWrite {
  RelationPairs adds;
  RelationPairs removes;
  uint64_t ops() const { return adds.size() + removes.size(); }
};

struct GraphInputs {
  RelationPairs initial;
  std::vector<PairWrite> ingest;
  std::vector<PairWrite> serve;
};

uint64_t Key(uint32_t u, uint32_t v) { return (uint64_t{u} << 32) | v; }

std::vector<PairWrite> ChurnWrites(Rng& rng, const GraphParams& p,
                                   uint64_t writes) {
  dyndex::ChurnStreamOptions opt;
  opt.num_ops = writes * p.write_events;
  opt.num_objects = p.vertices;
  opt.num_labels = p.vertices;
  opt.zipf_theta = kZipf;
  opt.add_fraction = 0.5;
  opt.remove_fraction = 0.5;
  const std::vector<dyndex::ChurnEvent> events =
      dyndex::GenChurnStream(rng, opt);
  std::vector<PairWrite> out(writes);
  for (uint64_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    PairWrite& w = out[i / p.write_events];
    (e.op == dyndex::ChurnOp::kAdd ? w.adds : w.removes)
        .emplace_back(e.object, e.label);
  }
  return out;
}

GraphInputs MakeGraphInputs(const GraphParams& p, const RunConfig& cfg) {
  GraphInputs in;
  Rng rng(cfg.seed * 0x9E3779B97F4A7C15ull + 0x6EA9);
  in.initial = dyndex::GenEdges(rng, p.initial_edges, p.vertices, kZipf);
  in.ingest = ChurnWrites(rng, p, p.ingest_writes);
  in.serve =
      ChurnWrites(rng, p, ScheduledWrites(cfg.seconds, p.serve_writes_per_s));
  return in;
}

/// Drops from `sorted` (ascending) every key in `keys` (ascending, unique),
/// keeping the rest in order.
void DropSorted(std::vector<uint64_t>* sorted,
                const std::vector<uint64_t>& keys) {
  size_t j = 0;
  sorted->erase(std::remove_if(sorted->begin(), sorted->end(),
                               [&](uint64_t x) {
                                 while (j < keys.size() && keys[j] < x) ++j;
                                 return j < keys.size() && keys[j] == x;
                               }),
                sorted->end());
}

/// Merges `keys` (ascending, none in `sorted`) into `sorted` in place.
void MergeSorted(std::vector<uint64_t>* sorted,
                 const std::vector<uint64_t>& keys) {
  size_t i = sorted->size(), j = keys.size();
  sorted->resize(i + j);
  for (size_t k = sorted->size(); j > 0;) {
    (*sorted)[--k] = i > 0 && (*sorted)[i - 1] > keys[j - 1]
                         ? (*sorted)[--i]
                         : keys[--j];
  }
}

uint64_t Flip(uint64_t key) { return (key << 32) | (key >> 32); }

/// The benchmark's own account of which edges are live: every live edge as
/// a sorted (u, v) key and as a sorted (v, u) key. Flat arrays (8 B per key)
/// keep the model a small share of the process's memory; a node-based set
/// costs about 40 B per edge, twice the index's own.
class GraphModel {
 public:
  GraphModel() = default;
  /// Reserves room for every edge the scripts of `in` can make live, so
  /// that the arrays never move once the program runs.
  explicit GraphModel(const GraphInputs& in) {
    uint64_t most = in.initial.size();
    for (const auto* script : {&in.ingest, &in.serve}) {
      for (const PairWrite& w : *script) most += w.adds.size();
    }
    out_.reserve(most);
    in_.reserve(most);
  }

  /// Returns how many of the pairs were new.
  uint64_t Add(const RelationPairs& pairs) {
    return Apply(pairs, /*present=*/false, MergeSorted);
  }
  /// Returns how many of the pairs were present.
  uint64_t Remove(const RelationPairs& pairs) {
    return Apply(pairs, /*present=*/true, DropSorted);
  }
  bool Has(uint32_t u, uint32_t v) const {
    return std::binary_search(out_.begin(), out_.end(), Key(u, v));
  }
  uint64_t size() const { return out_.size(); }
  /// Live edges as sorted (u, v) keys, and as sorted (v, u) keys.
  const std::vector<uint64_t>& out() const { return out_; }
  const std::vector<uint64_t>& in() const { return in_; }

 private:
  using Op = void (*)(std::vector<uint64_t>*, const std::vector<uint64_t>&);

  /// Applies `op` to both arrays with the distinct pairs whose presence is
  /// `present`; returns how many there were.
  uint64_t Apply(const RelationPairs& pairs, bool present, Op op) {
    std::vector<uint64_t> keys;
    for (auto [u, v] : pairs) {
      if (Has(u, v) == present) keys.push_back(Key(u, v));
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    op(&out_, keys);
    for (uint64_t& k : keys) k = Flip(k);
    std::sort(keys.begin(), keys.end());
    op(&in_, keys);
    return keys.size();
  }

  std::vector<uint64_t> out_, in_;
};

/// The second halves of the keys in `sorted` whose first half is `x`.
std::vector<uint32_t> Row(const std::vector<uint64_t>& sorted, uint32_t x) {
  auto lo = std::lower_bound(sorted.begin(), sorted.end(), Key(x, 0));
  auto hi = std::lower_bound(lo, sorted.end(), Key(x + 1, 0));
  if (x == UINT32_MAX) hi = sorted.end();
  std::vector<uint32_t> out;
  for (auto it = lo; it != hi; ++it) out.push_back(static_cast<uint32_t>(*it));
  return out;
}

/// End-of-phase check: edge count, sorted Neighbors / Reverse and both
/// degrees of sampled vertices, and HasEdge of sampled present and absent
/// edges, all exactly as the model says.
void CheckGraphState(const ShardedRelation& g, const GraphModel& m,
                     const GraphParams& p, uint64_t seed, Tally* t) {
  t->Check(g.num_edges() == m.size());
  const std::vector<uint64_t>& out = m.out();
  const std::vector<uint64_t>& in = m.in();
  Rng rng(seed);
  for (uint32_t k = 0; k < p.check_samples; ++k) {
    const uint32_t u = static_cast<uint32_t>(rng.Below(p.vertices));
    std::vector<uint32_t> got = g.Neighbors(u);
    std::sort(got.begin(), got.end());
    const std::vector<uint32_t> want_out = Row(out, u);
    t->Check(got == want_out);
    t->Check(g.OutDegree(u) == want_out.size());
    const uint32_t v = static_cast<uint32_t>(rng.Below(p.vertices));
    got = g.Reverse(v);
    std::sort(got.begin(), got.end());
    const std::vector<uint32_t> want_in = Row(in, v);
    t->Check(got == want_in);
    t->Check(g.InDegree(v) == want_in.size());
    if (!out.empty()) {
      const uint64_t e = out[rng.Below(out.size())];
      t->Check(g.HasEdge(static_cast<uint32_t>(e >> 32),
                         static_cast<uint32_t>(e)));
    }
    const uint32_t a = static_cast<uint32_t>(rng.Below(p.vertices));
    const uint32_t b = static_cast<uint32_t>(rng.Below(p.vertices));
    t->Check(g.HasEdge(a, b) == m.Has(a, b));
  }
}

/// Applies one scripted write through the facade (recording span `name`
/// around each call) and checks the new-pair and removed counts against the
/// model. Returns the time the two facade calls took.
uint64_t ApplyWrite(ShardedRelation& g, const PairWrite& w, GraphModel* m,
                    Tally* t, SpanBuffer* sb, const char* name,
                    uint64_t request) {
  uint64_t added = 0, removed = 0;
  const uint64_t ns =
      TimeCall(sb, name, request, 0, [&] { added = g.AddEdgesBatch(w.adds); }) +
      TimeCall(sb, name, request, 0,
               [&] { removed = g.RemoveEdgesBatch(w.removes); });
  // One op per pair; a wrong count fails as many ops as it is off.
  auto tally = [t](uint64_t got, uint64_t want, uint64_t n) {
    t->attempted += n;
    t->failed += std::min<uint64_t>(got > want ? got - want : want - got, n);
  };
  tally(added, m->Add(w.adds), w.adds.size());
  tally(removed, m->Remove(w.removes), w.removes.size());
  return ns;
}

/// What the serve-phase reader may observe beside the writer: edges the
/// serve script never touches keep their state from the phase start;
/// degrees lie between the untouched count and that plus the touched edges.
struct ServeView {
  uint32_t vertices = 0;
  std::vector<uint64_t> out, in;  // sorted keys at the phase start
  std::vector<uint64_t> touched;  // sorted (u, v) keys the script changes
  std::vector<uint32_t> out_lo, out_hi, in_lo, in_hi;

  bool Touched(uint64_t key) const {
    return std::binary_search(touched.begin(), touched.end(), key);
  }
};

/// Built from the inputs alone, before the program's first call, so that
/// it sits inside the resident-set baseline: a model of its own is stepped
/// through the initial edges and the ingest script to the serve phase's
/// start state.
ServeView MakeServeView(const GraphInputs& in, uint32_t vertices) {
  ServeView v;
  {
    GraphModel m;
    m.Add(in.initial);
    for (const PairWrite& w : in.ingest) {
      m.Add(w.adds);
      m.Remove(w.removes);
    }
    v.out = m.out();
    v.in = m.in();
  }
  v.vertices = vertices;
  for (const PairWrite& w : in.serve) {
    for (auto [x, y] : w.adds) v.touched.push_back(Key(x, y));
    for (auto [x, y] : w.removes) v.touched.push_back(Key(x, y));
  }
  std::sort(v.touched.begin(), v.touched.end());
  v.touched.erase(std::unique(v.touched.begin(), v.touched.end()),
                  v.touched.end());
  v.out_lo.assign(vertices, 0);
  v.in_lo.assign(vertices, 0);
  for (uint64_t e : v.out) {
    if (v.Touched(e)) continue;
    ++v.out_lo[e >> 32];
    ++v.in_lo[static_cast<uint32_t>(e)];
  }
  v.out_hi = v.out_lo;
  v.in_hi = v.in_lo;
  for (uint64_t e : v.touched) {
    ++v.out_hi[e >> 32];
    ++v.in_hi[static_cast<uint32_t>(e)];
  }
  return v;
}

/// A neighbour list is right when every untouched edge it holds was live at
/// the phase start, every untouched edge live then is in it, and it has no
/// duplicates. `flip` reads the list as in-neighbours.
bool RowConsistent(const ServeView& v, uint32_t x, std::vector<uint32_t> got,
                   bool flip) {
  std::sort(got.begin(), got.end());
  if (std::adjacent_find(got.begin(), got.end()) != got.end()) return false;
  auto edge = [&](uint32_t y) { return flip ? Key(y, x) : Key(x, y); };
  const std::vector<uint64_t>& start = flip ? v.in : v.out;
  for (uint32_t y : got) {
    if (!v.Touched(edge(y)) &&
        !std::binary_search(start.begin(), start.end(), Key(x, y))) {
      return false;
    }
  }
  for (uint32_t y : Row(start, x)) {
    if (!v.Touched(edge(y)) &&
        !std::binary_search(got.begin(), got.end(), y)) {
      return false;
    }
  }
  return true;
}

/// The closed-loop reader: HasEdge, Neighbors, Reverse, OutDegree and
/// InDegree in equal shares, vertex ids drawn uniformly.
void GraphReader(const ShardedRelation& g, const ServeView& v, uint64_t seed,
                 uint64_t start_ns, const std::atomic<bool>& stop,
                 SpanBuffer* spans, ReadStats* out) {
  Rng rng(seed);
  SleepUntilNs(start_ns);
  for (uint64_t request = seed << 32;
       !stop.load(std::memory_order_relaxed); ++request) {
    SpanBuffer* sb = request % kReadSpanSample == 0 ? spans : nullptr;
    const uint32_t x = static_cast<uint32_t>(rng.Below(v.vertices));
    uint64_t ns = 0;
    bool ok = true;
    switch (rng.Below(5)) {
      case 0: {
        const uint32_t y = static_cast<uint32_t>(rng.Below(v.vertices));
        bool has = false;
        ns = TimeCall(sb, "facade.has_edge", request, 0,
                      [&] { has = g.HasEdge(x, y); });
        ok = v.Touched(Key(x, y)) ||
             has == std::binary_search(v.out.begin(), v.out.end(), Key(x, y));
        break;
      }
      case 1: {
        std::vector<uint32_t> got;
        ns = TimeCall(sb, "facade.neighbors", request, 0,
                      [&] { got = g.Neighbors(x); });
        ok = RowConsistent(v, x, std::move(got), /*flip=*/false);
        break;
      }
      case 2: {
        std::vector<uint32_t> got;
        ns = TimeCall(sb, "facade.reverse", request, 0,
                      [&] { got = g.Reverse(x); });
        ok = RowConsistent(v, x, std::move(got), /*flip=*/true);
        break;
      }
      case 3: {
        uint64_t d = 0;
        ns = TimeCall(sb, "facade.out_degree", request, 0,
                      [&] { d = g.OutDegree(x); });
        ok = d >= v.out_lo[x] && d <= v.out_hi[x];
        break;
      }
      default: {
        uint64_t d = 0;
        ns = TimeCall(sb, "facade.in_degree", request, 0,
                      [&] { d = g.InDegree(x); });
        ok = d >= v.in_lo[x] && d <= v.in_hi[x];
        break;
      }
    }
    out->Record(start_ns, ns, ok);
  }
}

/// Runs the one reader beside `writer` (see RunReaders).
ReadStats RunGraphReader(const ShardedRelation& g, const ServeView& v,
                         uint64_t seed, uint64_t start_ns, Tracer* tracer,
                         const std::function<void()>& writer,
                         uint64_t* end_ns) {
  return RunReaders(
      1, tracer,
      [&](uint32_t, SpanBuffer* spans, const std::atomic<bool>& stop,
          ReadStats* out) {
        GraphReader(g, v, seed * 16 + 1, start_ns, stop, spans, out);
      },
      writer, end_ns);
}

std::unique_ptr<ShardedRelation> MakeFacade() {
  return std::make_unique<ShardedRelation>(
      kShards, dyndex::RelationBackend::kTheorem2);
}

/// The facade rungs, at quiescence after the serve phase: each sampled
/// request on the facade, then on the shard RelationIndex (or, for the
/// fanned-out Reverse / InDegree, on every shard) with no guard.
void FacadeLadder(ShardedRelation& g, uint32_t vertices, uint32_t requests,
                  uint64_t seed, Tracer* tracer, Report* report) {
  SpanBuffer* sb = tracer->NewBuffer();
  std::vector<double> guard, fanout;
  Rng rng(seed);
  for (uint64_t r = 0; r < requests; ++r) {
    const uint32_t x = static_cast<uint32_t>(rng.Below(vertices));
    const uint32_t y = static_cast<uint32_t>(rng.Below(vertices));
    const uint64_t kind = r % 5;
    dyndex::RelationIndex& owner = g.unsynchronized_shard(g.shard_of_object(x));
    uint64_t parent = 0;
    double facade = 0, below = 0;
    if (kind == 0) {
      facade = TimeCall(sb, "facade.has_edge", r, 0,
                        [&] { g.HasEdge(x, y); }, &parent);
      below = TimeCall(sb, "shard.has_edge", r, parent,
                       [&] { owner.HasEdge(x, y); });
    } else if (kind == 1) {
      facade = TimeCall(sb, "facade.neighbors", r, 0,
                        [&] { g.Neighbors(x); }, &parent);
      below = TimeCall(sb, "shard.neighbors", r, parent,
                       [&] { owner.Neighbors(x); });
    } else if (kind == 2) {
      facade = TimeCall(sb, "facade.out_degree", r, 0,
                        [&] { g.OutDegree(x); }, &parent);
      below = TimeCall(sb, "shard.out_degree", r, parent,
                       [&] { owner.OutDegree(x); });
    } else if (kind == 3) {
      facade = TimeCall(sb, "facade.reverse", r, 0, [&] { g.Reverse(x); },
                        &parent);
      for (uint32_t s = 0; s < kShards; ++s) {
        below += TimeCall(sb, "shard.reverse", r, parent,
                          [&] { g.unsynchronized_shard(s).Reverse(x); });
      }
    } else {
      facade = TimeCall(sb, "facade.in_degree", r, 0,
                        [&] { g.InDegree(x); }, &parent);
      for (uint32_t s = 0; s < kShards; ++s) {
        below += TimeCall(sb, "shard.in_degree", r, parent,
                          [&] { g.unsynchronized_shard(s).InDegree(x); });
      }
    }
    (kind <= 2 ? guard : fanout).push_back(facade - below);
  }
  report->Layer("serve.guard_overhead_us", Median(guard) / 1e3, "us");
  report->Layer("serve.fanout_overhead_us", Median(fanout) / 1e3, "us");
}

uint64_t FileSize(const std::string& path) {
  std::error_code ec;
  const uint64_t n = fs::file_size(path, ec);
  return ec ? 0 : n;
}

}  // namespace

void RunGraphChurn(const RunConfig& cfg, Tracer* tracer, Report* report) {
  const GraphParams p = ParamsFor(cfg);
  const GraphInputs in = MakeGraphInputs(p, cfg);
  dyndex::persist::Env* env = dyndex::persist::GetPosixEnv();
  SpanBuffer* spans = tracer->NewBuffer();
  const ServeView view = MakeServeView(in, p.vertices);
  GraphModel model(in);
  model.Add(in.initial);  // what the setup phase loads
  uint64_t request = 1;
  report->Note("graph_churn: " + std::to_string(p.vertices) + " vertices, " +
               std::to_string(in.initial.size()) + " initial edges, " +
               std::to_string(in.ingest.size()) + " ingest writes, " +
               std::to_string(in.serve.size()) + " serve writes of " +
               std::to_string(p.write_events) + " churn events");
  auto shard_file = [&](const std::string& dir, uint32_t s, const char* f) {
    return dir + "/shard-" + std::to_string(s) + "/" + f;
  };
  EndToEnd e2e;
  e2e.baseline_rss_mib = BaselineRssMiB();

  // --- setup: cold batch load, first Checkpoint ---------------------------
  uint64_t phase_t0 = NowNs();
  Tally& setup = report->phase("setup");
  std::string dir;
  uint64_t added = 0;
  std::unique_ptr<ShardedRelation> g = SetUpDurable<ShardedRelation>(
      p.setup_reps, cfg.workdir + "/graph", MakeFacade,
      [&](ShardedRelation& f) {
        TimeCall(spans, "facade.add_batch", request++, 0,
                 [&] { added = f.AddEdgesBatch(in.initial); });
      },
      [&](ShardedRelation&) {
        setup.attempted += in.initial.size();
        setup.failed += added == model.size() ? 0 : in.initial.size();
      },
      report, &e2e.setup, &dir);
  CheckGraphState(*g, model, p, cfg.seed ^ 0x51, &setup);

  // --- ingest: a lone closed-loop writer, then a Checkpoint ---------------
  report->PhaseDone("setup", phase_t0);
  phase_t0 = NowNs();
  Tally& ingest = report->phase("ingest");
  for (const PairWrite& w : in.ingest) {
    e2e.ingest.Add(w.ops(), ApplyWrite(*g, w, &model, &ingest, spans,
                                       "facade.write", request++));
  }
  const uint64_t ckpt_ns =
      TimeCall(spans, "facade.checkpoint", request++, 0, [&] {
        ExpectOk(g->Checkpoint(), "ingest Checkpoint", report);
      });
  uint64_t snapshot_bytes = 0;
  for (uint32_t s = 0; s < kShards; ++s) {
    snapshot_bytes += FileSize(
        shard_file(dir, s, dyndex::serve_persist::kSnapshotFileName));
  }
  const uint64_t ingest_items = model.size();
  CheckGraphState(*g, model, p, cfg.seed ^ 0x52, &ingest);

  // --- serve: a closed-loop reader beside an open-loop writer -------------
  report->PhaseDone("ingest", phase_t0);
  phase_t0 = NowNs();
  Tally& serve = report->phase("serve");
  serve.Check(model.out() == view.out);  // the view's start state
  e2e.serve_t0 = NowNs() + 2'000'000;
  e2e.reads = RunGraphReader(
      *g, view, cfg.seed, e2e.serve_t0, tracer,
      [&] {
        e2e.writes = RunSchedule(
            e2e.serve_t0, p.serve_writes_per_s, in.serve.size(),
            [&](uint64_t i) {
              ApplyWrite(*g, in.serve[i], &model, &serve, spans,
                         "facade.write", request++);
              // Space from the writer thread, between its own writes (the
              // reader only reads); the median over the phase is reported.
              uint64_t space = 0;
              for (uint32_t s = 0; s < kShards; ++s) {
                space += g->unsynchronized_shard(s).SpaceBytes();
              }
              e2e.bytes_per_item.push_back(
                  static_cast<double>(space) /
                  std::max<uint64_t>(model.size(), 1));
            });
      },
      &e2e.serve_end);
  serve.Add(e2e.reads.tally);
  CheckGraphState(*g, model, p, cfg.seed ^ 0x53, &serve);

  if (tracer->on()) {
    FacadeLadder(*g, p.vertices, p.ladder_requests, cfg.seed ^ 0x1add3e,
                 tracer, report);
    QuietReads(
        1, p.quiet_read_s, tracer,
        [&](uint32_t, SpanBuffer* sb, const std::atomic<bool>& stop,
            ReadStats* out) {
          GraphReader(*g, view, (cfg.seed + 7) * 16 + 1, NowNs(), stop, sb,
                      out);
        },
        report);
  }
  g.reset();

  // --- recover: reopen the directory as the serve phase left it -----------
  report->PhaseDone("serve", phase_t0);
  phase_t0 = NowNs();
  Tally& recover = report->phase("recover");
  const uint32_t probe = static_cast<uint32_t>(
      model.size() == 0 ? 0 : model.out()[0] >> 32);
  const std::vector<uint32_t> probe_want = Row(model.out(), probe);
  dyndex::RecoveryStats stats;
  std::vector<uint32_t> probe_got;
  g = RecoverDurable<ShardedRelation>(
      p.recover_reps, dir, MakeFacade,
      [&](ShardedRelation& f) { probe_got = f.Neighbors(probe); },
      [&](ShardedRelation&) {
        std::sort(probe_got.begin(), probe_got.end());
        recover.Check(probe_got == probe_want);
      },
      report, &e2e.recovery, &stats);
  CheckGraphState(*g, model, p, cfg.seed ^ 0x54, &recover);
  report->PhaseDone("recover", phase_t0);
  ReportEndToEnd(e2e, report);

  if (!tracer->on()) {
    g.reset();
    fs::remove_all(dir);
    return;
  }

  // --- persistence rungs, on the directory the recover phase read ---------
  uint64_t snap_ns = 0, scan_ns = 0;
  for (uint32_t s = 0; s < kShards; ++s) {
    std::vector<dyndex::persist::SnapshotSection> sections;
    snap_ns += TimeCall(spans, "persist.snapshot_read", s, 0, [&] {
      ExpectOk(dyndex::persist::ReadSnapshotFile(
                   env,
                   shard_file(dir, s, dyndex::serve_persist::kSnapshotFileName),
                   &sections),
               "ReadSnapshotFile", report);
    });
    dyndex::persist::WalScanResult scan;
    scan_ns += TimeCall(spans, "persist.wal_scan", s, 0, [&] {
      ExpectOk(dyndex::persist::ScanWal(
                   env, shard_file(dir, s, dyndex::serve_persist::kWalFileName),
                   &scan),
               "ScanWal", report);
    });
  }
  g.reset();
  fs::remove_all(dir);

  // --- write rungs: the ingest script on a non-durable facade and into
  // standalone per-shard WAL writers ----------------------------------------
  Tally& ladder = report->phase("ladder");
  {
    GraphModel vmodel;
    auto f = MakeFacade();
    ladder.Check(f->AddEdgesBatch(in.initial) == vmodel.Add(in.initial));
    BlockRate rate;
    for (uint64_t i = 0; i < in.ingest.size(); ++i) {
      rate.Add(in.ingest[i].ops(),
               ApplyWrite(*f, in.ingest[i], &vmodel, &ladder, spans,
                          "volatile.write", i));
    }
    report->Layer("serve.volatile_ingest_ops_per_s", rate.Median(), "1/s");
  }
  {
    ShardedRelation router(kShards, dyndex::RelationBackend::kTheorem2);
    std::vector<std::unique_ptr<dyndex::persist::WalWriter>> wal(kShards);
    const std::string wal_dir = cfg.workdir + "/ladder-wal";
    fs::create_directories(wal_dir);
    for (uint32_t s = 0; s < kShards; ++s) {
      ExpectOk(dyndex::persist::WalWriter::Create(
                   env, wal_dir + "/WAL-" + std::to_string(s), &wal[s]),
               "WalWriter::Create", report);
    }
    std::vector<double> encode, append, sync;
    uint64_t bytes = 0, wops = 0;
    std::vector<uint64_t> seq(kShards, 0);
    for (uint64_t i = 0; i < in.ingest.size(); ++i) {
      const PairWrite& w = in.ingest[i];
      double enc = 0, app = 0, syn = 0;
      // The facade's two batches, each split by shard.
      for (const bool add : {true, false}) {
        std::vector<RelationPairs> sub(kShards);
        for (auto e : add ? w.adds : w.removes) {
          sub[router.shard_of_object(e.first)].push_back(e);
        }
        for (uint32_t s = 0; s < kShards; ++s) {
          if (sub[s].empty() || wal[s] == nullptr) continue;
          std::string payload;
          enc += TimeCall(spans, "wal.encode", i, 0, [&] {
            payload = dyndex::serve_persist::EncodePairsBatch(
                add ? dyndex::serve_persist::WalOp::kAddPairs
                    : dyndex::serve_persist::WalOp::kRemovePairs,
                sub[s]);
          });
          app += TimeCall(spans, "wal.append", i, 0, [&] {
            ExpectOk(wal[s]->Append(++seq[s], payload), "WalWriter::Append",
                     report);
          });
          syn += TimeCall(spans, "wal.sync", i, 0, [&] {
            ExpectOk(wal[s]->Sync(), "WalWriter::Sync", report);
          });
          bytes += payload.size() + dyndex::persist::kWalFrameHeaderSize;
        }
      }
      encode.push_back(enc);
      append.push_back(app);
      sync.push_back(syn);
      wops += w.ops();
    }
    wal.clear();
    fs::remove_all(wal_dir);
    report->Layer("persist.encode_us", Median(encode) / 1e3, "us");
    report->Layer("persist.wal_append_us", Median(append) / 1e3, "us");
    report->Layer("persist.wal_sync_us", Median(sync) / 1e3, "us");
    report->Layer("persist.wal_bytes_per_op",
                  static_cast<double>(bytes) / std::max<uint64_t>(wops, 1),
                  "B");
  }
  report->Layer("persist.checkpoint_s", ckpt_ns / 1e9, "s");
  report->Layer("persist.snapshot_bytes_per_item",
                static_cast<double>(snapshot_bytes) / ingest_items, "B/item");
  report->Layer("persist.snapshot_read_s", snap_ns / 1e9, "s");
  report->Layer("persist.wal_scan_s", scan_ns / 1e9, "s");
  report->Layer("persist.replayed_batches",
                static_cast<double>(stats.replayed_batches), "count");
}

void GraphLowerLadder(const RunConfig& cfg, Tracer* tracer, Report* report) {
  const GraphParams p = ParamsFor(cfg);
  const GraphInputs in = MakeGraphInputs(p, cfg);
  SpanBuffer* sb = tracer->NewBuffer();
  Tally& ladder = report->phase("ladder");
  GraphModel model;

  // One unsharded DynamicRelation: bulk load, then the ingest script the way
  // a facade shard applies it (bulk adds, pairwise removes).
  dyndex::DynamicRelation rel;
  uint64_t added = 0;
  const uint64_t bulk_ns = TimeCall(
      sb, "relation.bulk_load", 0, 0,
      [&] { added = rel.AddPairsBulk(in.initial); });
  ladder.Check(added == model.Add(in.initial));
  report->Layer("relation.bulk_load_s", bulk_ns / 1e9, "s");
  BlockRate rate;
  for (uint64_t i = 0; i < in.ingest.size(); ++i) {
    const PairWrite& w = in.ingest[i];
    uint64_t added = 0, removed = 0;
    rate.Add(w.ops(), TimeCall(sb, "relation.write", i, 0, [&] {
               added = rel.AddPairsBulk(w.adds);
               for (auto [u, v] : w.removes) removed += rel.RemovePair(u, v);
             }));
    ladder.Check(added == model.Add(w.adds));
    ladder.Check(removed == model.Remove(w.removes));
  }
  report->Layer("relation.ingest_ops_per_s", rate.Median(), "1/s");
  report->Layer("relation.subcollections", rel.num_subcollections(), "count");
  report->Layer("relation.c0_pairs", static_cast<double>(rel.c0_pairs()),
                "count");
  report->Layer("relation.bytes_per_pair",
                static_cast<double>(rel.SpaceBytes()) /
                    std::max<uint64_t>(rel.num_pairs(), 1),
                "B");

  // Read rungs on uniform vertex ids, checked against the model.
  const std::vector<uint64_t>& out = model.out();
  const std::vector<uint64_t>& inv = model.in();
  std::vector<double> related, labels, objects;
  Rng rng(cfg.seed ^ 0x1add3e);
  for (uint64_t r = 0; r < p.ladder_requests; ++r) {
    const uint32_t x = static_cast<uint32_t>(rng.Below(p.vertices));
    const uint32_t y = static_cast<uint32_t>(rng.Below(p.vertices));
    bool has = false;
    related.push_back(TimeCall(sb, "relation.related", r, 0,
                               [&] { has = rel.Related(x, y); }));
    ladder.Check(has == model.Has(x, y));
    std::vector<uint32_t> got;
    labels.push_back(TimeCall(sb, "relation.labels_of", r, 0, [&] {
      rel.ForEachLabelOfObject(x, [&](uint32_t v) { got.push_back(v); });
    }));
    std::sort(got.begin(), got.end());
    ladder.Check(got == Row(out, x));
    got.clear();
    objects.push_back(TimeCall(sb, "relation.objects_of", r, 0, [&] {
      rel.ForEachObjectOfLabel(x, [&](uint32_t u) { got.push_back(u); });
    }));
    std::sort(got.begin(), got.end());
    ladder.Check(got == Row(inv, x));
  }
  report->Layer("relation.related_us", Median(related) / 1e3, "us");
  report->Layer("relation.labels_of_us", Median(labels) / 1e3, "us");
  report->Layer("relation.objects_of_us", Median(objects) / 1e3, "us");
}

}  // namespace perfbench
