// docs_search: a Transformation 2 document index (threaded background
// rebuilds) on one shard, served durably through ShardedIndex, over order-1
// Markov documents of a few hundred symbols each.
//
// Threads: two closed-loop readers, the writer (this thread) and T2's
// background build thread.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/semi_static_index.h"
#include "core/transformation2.h"
#include "gst/suffix_tree.h"
#include "harness.h"
#include "persist/env.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "serve/dynamic_index.h"
#include "serve/persistence.h"
#include "serve/sharded_index.h"
#include "suffix/sais.h"
#include "text/concat_text.h"
#include "text/fm_index.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using dyndex::DocId;
using dyndex::Document;
using dyndex::Occurrence;
using dyndex::Rng;
using dyndex::ShardedIndex;
using dyndex::Symbol;
using T2 = dyndex::DynamicCollectionT2<dyndex::FmIndex>;
using T2Index = dyndex::CollectionIndex<T2>;

constexpr uint32_t kSigma = 64;       // alphabet
constexpr uint32_t kBranch = 4;       // successors per state: H1 <= 2 bits
constexpr uint64_t kChainSeed = 0x5eed0c4a1;
constexpr uint64_t kMinDocLen = 200;  // document lengths, uniform
constexpr uint64_t kMaxDocLen = 600;
constexpr uint64_t kMinPattern = 6;   // pattern lengths, uniform
constexpr uint64_t kMaxPattern = 10;
constexpr uint64_t kExtractLen = 24;  // serve-phase Extract window
constexpr uint32_t kReaders = 2;
constexpr uint64_t kGstSymbols = 4096;  // one C0-sized suffix tree (min_c0)

struct DocsParams {
  uint64_t initial_symbols;
  uint32_t write_docs;        // documents inserted, and erased, per write
  uint32_t ingest_writes;
  double serve_writes_per_s;
  uint32_t check_samples;     // end-of-phase patterns and extracts
  uint32_t pattern_pool;      // serve-phase Count / Locate patterns
  uint32_t setup_reps;        // setup repetitions
  uint32_t recover_reps;      // recover repetitions
  uint32_t ladder_requests;
  double quiet_read_s;
};

/// The full size keeps 3 * 2^16 live symbols: midway between two of T2's
/// global rebuilds (at live >= 2 n_f, with n_f about doubling from min_c0),
/// so every seed sees the same top-collection growth. At 2^19 the live size
/// straddled a rebuild point and the seed decided whether a rebuild had just
/// merged everything into one top (read p50 17 us) or not (65 us).
DocsParams ParamsFor(const RunConfig& cfg) {
  if (cfg.smoke) return {1u << 14, 2, 10, 10.0, 16, 64, 1, 1, 32, 0.3};
  return {3u << 16, 12, 120, 10.0, 48, 2048, 5, 13, 256, 2.0};
}

/// One scheduled write: an InsertBatch of new documents, then an EraseBatch
/// of as many earlier ones. Every write carries the same mix, so write
/// latency has one mode for its percentiles to sit in.
struct DocWrite {
  std::vector<DocId> inserts;  // the ids the model expects (= text index)
  std::vector<DocId> erases;
  uint64_t ops() const { return inserts.size() + erases.size(); }
};

/// Everything a run feeds the program, generated from the seed alone.
struct DocsInputs {
  std::vector<std::vector<Symbol>> texts;  // by id
  uint64_t num_initial = 0;
  std::vector<DocWrite> ingest;
  std::vector<DocWrite> serve;
  std::vector<std::vector<Symbol>> patterns;  // serve reads
};

/// One walk over a fixed order-1 Markov chain, cut into documents later so
/// that patterns recur across documents. The chain (kBranch random
/// successors per symbol) is the same for every seed, so the entropy and
/// the symbol mix do not move with the seed; the walk does.
std::vector<Symbol> MarkovStream(Rng& rng, uint64_t n) {
  Rng chain(kChainSeed);
  std::vector<uint32_t> succ(kSigma * kBranch);
  for (uint32_t& s : succ) s = static_cast<uint32_t>(chain.Below(kSigma));
  std::vector<Symbol> out(n);
  uint32_t state = static_cast<uint32_t>(rng.Below(kSigma));
  for (Symbol& sym : out) {
    sym = dyndex::kMinSymbol + state;
    state = succ[state * kBranch + rng.Below(kBranch)];
  }
  return out;
}

DocsInputs MakeDocsInputs(const DocsParams& p, const RunConfig& cfg) {
  DocsInputs in;
  Rng rng(cfg.seed * 0x9E3779B97F4A7C15ull + 0xD0C5);
  const uint64_t serve_writes =
      ScheduledWrites(cfg.seconds, p.serve_writes_per_s);
  const uint64_t inserted = (p.ingest_writes + serve_writes) * p.write_docs;
  std::vector<uint64_t> lens;
  uint64_t initial = 0;
  while (initial < p.initial_symbols) {
    lens.push_back(rng.Range(kMinDocLen, kMaxDocLen));
    initial += lens.back();
  }
  in.num_initial = lens.size();
  for (uint64_t i = 0; i < inserted; ++i) {
    lens.push_back(rng.Range(kMinDocLen, kMaxDocLen));
  }
  uint64_t total = 0;
  for (uint64_t l : lens) total += l;
  const std::vector<Symbol> stream = MarkovStream(rng, total);
  uint64_t at = 0;
  for (uint64_t l : lens) {
    in.texts.emplace_back(stream.begin() + at, stream.begin() + at + l);
    at += l;
  }

  // Odd initial documents and every later insert may be erased; even
  // initial documents never are.
  std::vector<DocId> erasable;
  for (DocId id = 1; id < in.num_initial; id += 2) erasable.push_back(id);
  DocId next = in.num_initial;
  auto script = [&](uint64_t writes, std::vector<DocWrite>* out) {
    for (uint64_t b = 0; b < writes; ++b) {
      DocWrite w;
      for (uint32_t k = 0; k < p.write_docs; ++k) {
        const uint64_t i = rng.Below(erasable.size());
        w.erases.push_back(erasable[i]);
        erasable[i] = erasable.back();
        erasable.pop_back();
      }
      for (uint32_t k = 0; k < p.write_docs; ++k) {
        w.inserts.push_back(next);
        erasable.push_back(next++);
      }
      out->push_back(std::move(w));
    }
  };
  script(p.ingest_writes, &in.ingest);
  script(serve_writes, &in.serve);

  for (uint32_t k = 0; k < p.pattern_pool; ++k) {
    const auto& d = in.texts[2 * rng.Below((in.num_initial + 1) / 2)];
    const uint64_t len = rng.Range(kMinPattern, kMaxPattern);
    const uint64_t off = rng.Below(d.size() - len + 1);
    in.patterns.emplace_back(d.begin() + off, d.begin() + off + len);
  }
  return in;
}

/// The benchmark's own account of which documents are live.
struct DocsModel {
  explicit DocsModel(const std::vector<std::vector<Symbol>>* t)
      : texts(t), live(t->size(), 0) {}

  void Insert(DocId id) {
    live[id] = 1;
    ++num_docs;
    live_symbols += (*texts)[id].size();
  }
  /// False when the id was not live.
  bool Erase(DocId id) {
    if (!live[id]) return false;
    live[id] = 0;
    --num_docs;
    live_symbols -= (*texts)[id].size();
    return true;
  }
  std::vector<DocId> LiveIds() const {
    std::vector<DocId> ids;
    for (DocId id = 0; id < live.size(); ++id) {
      if (live[id]) ids.push_back(id);
    }
    return ids;
  }

  const std::vector<std::vector<Symbol>>* texts;
  std::vector<uint8_t> live;
  uint64_t num_docs = 0;
  uint64_t live_symbols = 0;
};

/// Finds every occurrence of a fixed pattern set by hashing each window
/// whose length some pattern has and comparing symbols on a hash hit: the
/// answer key, computed without any index.
class PatternScanner {
 public:
  explicit PatternScanner(const std::vector<std::vector<Symbol>>* patterns)
      : patterns_(patterns) {
    for (uint32_t i = 0; i < patterns->size(); ++i) {
      const auto& p = (*patterns)[i];
      by_hash_.emplace(Hash(p.data(), p.size()), i);
      min_len_ = std::min<uint64_t>(min_len_, p.size());
      max_len_ = std::max<uint64_t>(max_len_, p.size());
    }
  }

  /// fn(pattern index, offset) for every occurrence in `text`.
  template <typename Fn>
  void Scan(const std::vector<Symbol>& text, Fn fn) const {
    for (uint64_t i = 0; i < text.size(); ++i) {
      uint64_t h = kSeed;
      const uint64_t top = std::min<uint64_t>(max_len_, text.size() - i);
      for (uint64_t len = 1; len <= top; ++len) {
        h = Mix(h, text[i + len - 1]);
        if (len < min_len_) continue;
        auto range = by_hash_.equal_range(h);
        for (auto it = range.first; it != range.second; ++it) {
          const auto& p = (*patterns_)[it->second];
          if (p.size() == len &&
              std::equal(p.begin(), p.end(), text.begin() + i)) {
            fn(it->second, i);
          }
        }
      }
    }
  }

 private:
  static constexpr uint64_t kSeed = 0xcbf29ce484222325ull;
  static uint64_t Mix(uint64_t h, Symbol s) {
    return (h ^ s) * 0x100000001b3ull;
  }
  static uint64_t Hash(const Symbol* s, uint64_t n) {
    uint64_t h = kSeed;
    for (uint64_t i = 0; i < n; ++i) h = Mix(h, s[i]);
    return h;
  }

  const std::vector<std::vector<Symbol>>* patterns_;
  std::unordered_multimap<uint64_t, uint32_t> by_hash_;
  uint64_t min_len_ = UINT64_MAX;
  uint64_t max_len_ = 0;
};

/// End-of-phase check: totals, Count and sorted Locate of patterns sampled
/// from live documents against a scan of the model, and whole-document
/// Extract of sampled live ids against the stored text.
void CheckDocsState(const ShardedIndex& idx, const DocsModel& m,
                    uint32_t samples, uint64_t seed, Tally* t) {
  t->Check(idx.num_docs() == m.num_docs);
  t->Check(idx.live_symbols() == m.live_symbols);
  const std::vector<DocId> ids = m.LiveIds();
  if (ids.empty()) return;
  Rng rng(seed);
  std::vector<std::vector<Symbol>> pats;
  for (uint32_t k = 0; k < samples; ++k) {
    const auto& d = (*m.texts)[ids[rng.Below(ids.size())]];
    const uint64_t len = rng.Range(kMinPattern, kMaxPattern);
    const uint64_t off = rng.Below(d.size() - len + 1);
    pats.emplace_back(d.begin() + off, d.begin() + off + len);
  }
  PatternScanner scanner(&pats);
  std::vector<std::vector<Occurrence>> want(pats.size());
  for (DocId id : ids) {  // ascending ids, ascending offsets: sorted
    scanner.Scan((*m.texts)[id], [&](uint32_t pi, uint64_t off) {
      want[pi].push_back({id, off});
    });
  }
  for (uint32_t pi = 0; pi < pats.size(); ++pi) {
    t->Check(idx.Count(pats[pi]) == want[pi].size());
    std::vector<Occurrence> got = idx.Locate(pats[pi]);
    std::sort(got.begin(), got.end());
    t->Check(got == want[pi]);
  }
  for (uint32_t k = 0; k < samples; ++k) {
    const DocId id = ids[rng.Below(ids.size())];
    const auto& text = (*m.texts)[id];
    std::vector<Symbol> out;
    t->Check(idx.Extract(id, 0, text.size(), &out) && out == text);
  }
}

/// Applies one scripted write through the facade (recording span `name`
/// around each call) and checks the returned ids and erase count against
/// the model. Returns the time the two facade calls took.
uint64_t ApplyWrite(ShardedIndex& idx, const DocsInputs& in, const DocWrite& w,
                    DocsModel* m, Tally* t, SpanBuffer* sb, const char* name,
                    uint64_t request) {
  std::vector<std::vector<Symbol>> docs;
  for (DocId id : w.inserts) docs.push_back(in.texts[id]);
  std::vector<DocId> ids;
  uint64_t erased = 0;
  const uint64_t ns =
      TimeCall(sb, name, request, 0,
               [&] { ids = idx.InsertBatch(std::move(docs)); }) +
      TimeCall(sb, name, request, 0,
               [&] { erased = idx.EraseBatch(w.erases); });
  for (uint64_t i = 0; i < w.inserts.size(); ++i) {
    t->Check(i < ids.size() && ids[i] == w.inserts[i]);
    m->Insert(w.inserts[i]);
  }
  uint64_t want = 0;
  for (DocId id : w.erases) want += m->Erase(id);
  // One op per erased id; a wrong count fails as many ops as it is off.
  const uint64_t off = erased > want ? erased - want : want - erased;
  t->attempted += w.erases.size();
  t->failed += std::min<uint64_t>(off, w.erases.size());
  return ns;
}

/// What the serve-phase readers may observe, given that the writer runs
/// beside them: bounds per pool pattern and per document.
struct ServeView {
  const DocsInputs* in = nullptr;
  std::vector<uint8_t> stable;  // by id: live throughout the phase
  std::vector<uint8_t> seen;    // by id: live at some time in the phase
  std::vector<uint64_t> lo, hi;  // per pool pattern: Count bounds
  std::vector<DocId> extract_ids;  // live when the phase starts
};

ServeView MakeServeView(const DocsInputs& in, const DocsModel& m) {
  ServeView v;
  v.in = &in;
  v.stable = m.live;
  v.seen = m.live;
  for (const DocWrite& w : in.serve) {
    for (DocId id : w.inserts) v.seen[id] = 1;
    for (DocId id : w.erases) v.stable[id] = 0;
  }
  v.lo.assign(in.patterns.size(), 0);
  v.hi.assign(in.patterns.size(), 0);
  PatternScanner scanner(&in.patterns);
  for (DocId id = 0; id < v.seen.size(); ++id) {
    if (!v.seen[id]) continue;
    const bool stable = v.stable[id];
    scanner.Scan(in.texts[id], [&](uint32_t pi, uint64_t) {
      ++v.hi[pi];
      if (stable) ++v.lo[pi];
    });
  }
  v.extract_ids = m.LiveIds();
  return v;
}

/// One closed-loop reader: Count (half), Locate and Extract (a quarter
/// each), every answer checked against the serve view.
void DocsReader(const ShardedIndex& idx, const ServeView& v, uint64_t seed,
                uint64_t start_ns, const std::atomic<bool>& stop,
                SpanBuffer* spans, ReadStats* out) {
  Rng rng(seed);
  const DocsInputs& in = *v.in;
  std::vector<Symbol> buf;
  SleepUntilNs(start_ns);
  for (uint64_t request = seed << 32;
       !stop.load(std::memory_order_relaxed); ++request) {
    SpanBuffer* sb = request % kReadSpanSample == 0 ? spans : nullptr;
    const uint64_t op = rng.Below(4);
    uint64_t ns = 0;
    bool ok = true;
    if (op <= 1) {
      const uint64_t pi = rng.Below(in.patterns.size());
      uint64_t c = 0;
      ns = TimeCall(sb, "facade.count", request, 0,
                    [&] { c = idx.Count(in.patterns[pi]); });
      ok = c >= v.lo[pi] && c <= v.hi[pi];
    } else if (op == 2) {
      const uint64_t pi = rng.Below(in.patterns.size());
      const auto& p = in.patterns[pi];
      std::vector<Occurrence> occ;
      ns = TimeCall(sb, "facade.locate", request, 0,
                    [&] { occ = idx.Locate(p); });
      ok = occ.size() >= v.lo[pi] && occ.size() <= v.hi[pi];
      for (const Occurrence& o : occ) {
        if (!ok) break;
        ok = o.doc < v.seen.size() && v.seen[o.doc] &&
             o.offset + p.size() <= in.texts[o.doc].size() &&
             std::equal(p.begin(), p.end(), in.texts[o.doc].begin() + o.offset);
      }
    } else {
      const DocId id = v.extract_ids[rng.Below(v.extract_ids.size())];
      const auto& text = in.texts[id];
      const uint64_t from = rng.Below(text.size() - kExtractLen + 1);
      bool found = false;
      ns = TimeCall(sb, "facade.extract", request, 0, [&] {
        found = idx.Extract(id, from, kExtractLen, &buf);
      });
      ok = found ? buf.size() == kExtractLen &&
                       std::equal(buf.begin(), buf.end(), text.begin() + from)
                 : !v.stable[id];
    }
    out->Record(start_ns, ns, ok);
  }
}

/// Runs the kReaders readers beside `writer` (see RunReaders).
ReadStats RunDocsReaders(const ShardedIndex& idx, const ServeView& v,
                         uint64_t seed, uint64_t start_ns, Tracer* tracer,
                         const std::function<void()>& writer,
                         uint64_t* end_ns) {
  return RunReaders(
      kReaders, tracer,
      [&](uint32_t r, SpanBuffer* spans, const std::atomic<bool>& stop,
          ReadStats* out) {
        DocsReader(idx, v, seed * 16 + r + 1, start_ns, stop, spans, out);
      },
      writer, end_ns);
}

T2& T2Of(ShardedIndex& idx) {
  return dynamic_cast<T2Index&>(idx.unsynchronized_shard(0)).collection();
}

dyndex::DynamicIndexOptions IndexOptions() {
  dyndex::DynamicIndexOptions opt;
  opt.mode = dyndex::RebuildMode::kThreaded;
  return opt;
}

std::unique_ptr<ShardedIndex> MakeFacade() {
  return std::make_unique<ShardedIndex>(1, dyndex::Backend::kT2,
                                        IndexOptions());
}

/// The facade rungs, at quiescence after the serve phase: each sampled
/// request on the facade, then on the shard's DynamicIndex with no guard.
void FacadeLadder(ShardedIndex& idx, const ServeView& v, uint32_t requests,
                  Tracer* tracer, Report* report) {
  SpanBuffer* sb = tracer->NewBuffer();
  const DocsInputs& in = *v.in;
  dyndex::DynamicIndex& shard = idx.unsynchronized_shard(0);
  std::vector<double> guard, fanout;
  std::vector<Symbol> buf;
  Rng rng(0x1add3e);
  for (uint64_t r = 0; r < requests; ++r) {
    const auto& p = in.patterns[r % in.patterns.size()];
    uint64_t parent = 0;
    const double facade = TimeCall(sb, "facade.count", r, 0,
                                   [&] { idx.Count(p); }, &parent);
    fanout.push_back(facade - TimeCall(sb, "shard.count", r, parent,
                                       [&] { shard.Count(p); }));
    const DocId id = v.extract_ids[rng.Below(v.extract_ids.size())];
    if (!idx.Contains(id)) continue;
    const uint64_t from = rng.Below(in.texts[id].size() - kExtractLen + 1);
    const uint64_t req = r + (1ull << 32);
    const double outer = TimeCall(
        sb, "facade.extract", req, 0,
        [&] { idx.Extract(id, from, kExtractLen, &buf); }, &parent);
    guard.push_back(outer - TimeCall(sb, "shard.extract", req, parent, [&] {
                      shard.Extract(id, from, kExtractLen);
                    }));
  }
  report->Layer("serve.guard_overhead_us", Median(guard) / 1e3, "us");
  report->Layer("serve.fanout_overhead_us", Median(fanout) / 1e3, "us");
}

}  // namespace

void RunDocsSearch(const RunConfig& cfg, Tracer* tracer, Report* report) {
  const DocsParams p = ParamsFor(cfg);
  const DocsInputs in = MakeDocsInputs(p, cfg);
  dyndex::persist::Env* env = dyndex::persist::GetPosixEnv();
  SpanBuffer* spans = tracer->NewBuffer();
  DocsModel model(&in.texts);
  uint64_t request = 1;
  report->Note("docs_search: " + std::to_string(in.num_initial) +
               " initial documents, " + std::to_string(in.ingest.size()) +
               " ingest writes, " + std::to_string(in.serve.size()) +
               " serve writes, each inserting and erasing " +
               std::to_string(p.write_docs) + " documents");
  EndToEnd e2e;
  e2e.baseline_rss_mib = BaselineRssMiB();

  // --- setup: cold batch load, Flush, first Checkpoint -------------------
  uint64_t phase_t0 = NowNs();
  Tally& setup = report->phase("setup");
  std::string dir;
  std::vector<DocId> ids;
  std::unique_ptr<ShardedIndex> idx = SetUpDurable<ShardedIndex>(
      p.setup_reps, cfg.workdir + "/docs", MakeFacade,
      [&](ShardedIndex& f) {
        std::vector<std::vector<Symbol>> batch(
            in.texts.begin(), in.texts.begin() + in.num_initial);
        TimeCall(spans, "facade.insert_batch", request++, 0,
                 [&] { ids = f.InsertBatch(std::move(batch)); });
        f.Flush();
      },
      [&](ShardedIndex&) {
        for (DocId i = 0; i < in.num_initial; ++i) {
          setup.Check(i < ids.size() && ids[i] == i);
        }
      },
      report, &e2e.setup, &dir);
  for (DocId i = 0; i < in.num_initial; ++i) model.Insert(i);
  CheckDocsState(*idx, model, p.check_samples, cfg.seed ^ 0x51, &setup);

  // --- ingest: a lone closed-loop writer, then a Checkpoint ---------------
  report->PhaseDone("setup", phase_t0);
  phase_t0 = NowNs();
  Tally& ingest = report->phase("ingest");
  for (const DocWrite& w : in.ingest) {
    e2e.ingest.Add(w.ops(), ApplyWrite(*idx, in, w, &model, &ingest, spans,
                                       "facade.write", request++));
  }
  const uint64_t ckpt_ns =
      TimeCall(spans, "facade.checkpoint", request++, 0, [&] {
        ExpectOk(idx->Checkpoint(), "ingest Checkpoint", report);
      });
  const double snapshot_bytes = static_cast<double>(fs::file_size(
      dir + "/shard-0/" + dyndex::serve_persist::kSnapshotFileName));
  const uint64_t ingest_items = model.live_symbols;
  CheckDocsState(*idx, model, p.check_samples, cfg.seed ^ 0x52, &ingest);

  // --- serve: closed-loop readers beside an open-loop writer --------------
  report->PhaseDone("ingest", phase_t0);
  phase_t0 = NowNs();
  Tally& serve = report->phase("serve");
  const ServeView view = MakeServeView(in, model);
  std::vector<uint32_t> tops;  // after each write
  e2e.serve_t0 = NowNs() + 2'000'000;
  e2e.reads = RunDocsReaders(
      *idx, view, cfg.seed, e2e.serve_t0, tracer,
      [&] {
        e2e.writes = RunSchedule(
            e2e.serve_t0, p.serve_writes_per_s, in.serve.size(),
            [&](uint64_t i) {
              ApplyWrite(*idx, in, in.serve[i], &model, &serve, spans,
                         "facade.write", request++);
              // Space from the writer thread, between its own writes
              // (readers only read): one instant's figure swings with C0's
              // fill level, the median over the phase does not.
              e2e.bytes_per_item.push_back(
                  static_cast<double>(T2Of(*idx).Space().total()) /
                  model.live_symbols);
              tops.push_back(T2Of(*idx).num_tops());
            });
      },
      &e2e.serve_end);
  serve.Add(e2e.reads.tally);
  report->Note("T2 top collections during serve: min " +
               std::to_string(Quantile(tops, 0.0)) + ", median " +
               std::to_string(Median(tops)) + ", max " +
               std::to_string(Quantile(tops, 1.0)));
  idx->Flush();
  CheckDocsState(*idx, model, p.check_samples, cfg.seed ^ 0x53, &serve);

  if (tracer->on()) {
    FacadeLadder(*idx, view, p.ladder_requests, tracer, report);
    QuietReads(
        kReaders, p.quiet_read_s, tracer,
        [&](uint32_t r, SpanBuffer* sb, const std::atomic<bool>& stop,
            ReadStats* out) {
          DocsReader(*idx, view, (cfg.seed + 7) * 16 + r + 1, NowNs(), stop,
                     sb, out);
        },
        report);
  }
  idx.reset();

  // --- recover: reopen the directory as the serve phase left it -----------
  report->PhaseDone("serve", phase_t0);
  phase_t0 = NowNs();
  Tally& recover = report->phase("recover");
  const std::vector<std::vector<Symbol>> first_query = {in.patterns[0]};
  uint64_t first_want = 0;
  {
    PatternScanner scanner(&first_query);
    for (DocId id : model.LiveIds()) {
      scanner.Scan(in.texts[id], [&](uint32_t, uint64_t) { ++first_want; });
    }
  }
  dyndex::RecoveryStats stats;
  uint64_t first_got = 0;
  idx = RecoverDurable<ShardedIndex>(
      p.recover_reps, dir, MakeFacade,
      [&](ShardedIndex& f) {
        f.Flush();
        first_got = f.Count(in.patterns[0]);
      },
      [&](ShardedIndex&) { recover.Check(first_got == first_want); }, report,
      &e2e.recovery, &stats);
  CheckDocsState(*idx, model, p.check_samples, cfg.seed ^ 0x54, &recover);
  report->PhaseDone("recover", phase_t0);
  ReportEndToEnd(e2e, report);

  if (!tracer->on()) {
    idx.reset();
    fs::remove_all(dir);
    return;
  }

  // --- persistence rungs, on the directory the recover phase read ---------
  const std::string shard_dir = dir + "/shard-0/";
  std::vector<dyndex::persist::SnapshotSection> sections;
  const uint64_t snap_ns = TimeCall(spans, "persist.snapshot_read", 0, 0, [&] {
    ExpectOk(dyndex::persist::ReadSnapshotFile(
                 env, shard_dir + dyndex::serve_persist::kSnapshotFileName,
                 &sections),
             "ReadSnapshotFile", report);
  });
  dyndex::persist::WalScanResult scan;
  const uint64_t scan_ns = TimeCall(spans, "persist.wal_scan", 0, 0, [&] {
    ExpectOk(dyndex::persist::ScanWal(
                 env, shard_dir + dyndex::serve_persist::kWalFileName, &scan),
             "ScanWal", report);
  });
  idx.reset();
  fs::remove_all(dir);

  // --- write rungs: the ingest script on a non-durable facade and into a
  // standalone WAL writer --------------------------------------------------
  Tally& ladder = report->phase("ladder");
  {
    DocsModel vmodel(&in.texts);
    auto f = MakeFacade();
    f->InsertBatch(std::vector<std::vector<Symbol>>(
        in.texts.begin(), in.texts.begin() + in.num_initial));
    f->Flush();
    for (DocId i = 0; i < in.num_initial; ++i) vmodel.Insert(i);
    BlockRate rate;
    for (uint64_t i = 0; i < in.ingest.size(); ++i) {
      rate.Add(in.ingest[i].ops(),
               ApplyWrite(*f, in, in.ingest[i], &vmodel, &ladder, spans,
                          "volatile.write", i));
    }
    report->Layer("serve.volatile_ingest_ops_per_s", rate.Median(), "1/s");
  }
  {
    const std::string wal_dir = cfg.workdir + "/ladder-wal";
    fs::create_directories(wal_dir);
    std::unique_ptr<dyndex::persist::WalWriter> wal;
    ExpectOk(dyndex::persist::WalWriter::Create(env, wal_dir + "/WAL", &wal),
             "WalWriter::Create", report);
    std::vector<double> encode, append, sync;
    uint64_t bytes = 0, wops = 0;
    uint64_t seq = 0;
    for (uint64_t i = 0; wal != nullptr && i < in.ingest.size(); ++i) {
      const DocWrite& w = in.ingest[i];
      std::vector<std::vector<Symbol>> docs;
      for (DocId id : w.inserts) docs.push_back(in.texts[id]);
      std::string payload[2];
      encode.push_back(TimeCall(spans, "wal.encode", i, 0, [&] {
        payload[0] = dyndex::serve_persist::EncodeInsertBatch(docs);
        payload[1] = dyndex::serve_persist::EncodeEraseBatch(w.erases);
      }));
      double app = 0, syn = 0;
      for (const std::string& frame : payload) {  // the facade's two batches
        app += TimeCall(spans, "wal.append", i, 0, [&] {
          ExpectOk(wal->Append(++seq, frame), "WalWriter::Append", report);
        });
        syn += TimeCall(spans, "wal.sync", i, 0, [&] {
          ExpectOk(wal->Sync(), "WalWriter::Sync", report);
        });
        bytes += frame.size() + dyndex::persist::kWalFrameHeaderSize;
      }
      append.push_back(app);
      sync.push_back(syn);
      wops += w.ops();
    }
    wal.reset();
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
                snapshot_bytes / ingest_items, "B/item");
  report->Layer("persist.snapshot_read_s", snap_ns / 1e9, "s");
  report->Layer("persist.wal_scan_s", scan_ns / 1e9, "s");
  report->Layer("persist.replayed_batches",
                static_cast<double>(stats.replayed_batches), "count");
}

void DocsLowerLadder(const RunConfig& cfg, Tracer* tracer, Report* report) {
  const DocsParams p = ParamsFor(cfg);
  const DocsInputs in = MakeDocsInputs(p, cfg);
  SpanBuffer* sb = tracer->NewBuffer();
  Tally& ladder = report->phase("ladder");
  const dyndex::DynamicIndexOptions iopt = IndexOptions();
  dyndex::T2Options topt;
  topt.mode = iopt.mode;
  topt.min_c0 = iopt.min_c0;
  dyndex::FmIndex::Options fopt;
  fopt.sample_rate = iopt.sample_rate;

  // Cold load document by document (T2 has no bulk path), then the same
  // documents through LoadSnapshot.
  T2 t2(topt, fopt);
  const uint64_t cold_ns = TimeCall(sb, "t2.cold_load", 0, 0, [&] {
    for (DocId i = 0; i < in.num_initial; ++i) {
      ladder.Check(t2.Insert(in.texts[i]) == i);
    }
    t2.ForceAllPending();
  });
  report->Layer("core.cold_load_s", cold_ns / 1e9, "s");
  {
    std::vector<Document> docs(in.num_initial);
    for (DocId i = 0; i < in.num_initial; ++i) docs[i] = {i, in.texts[i]};
    T2 loaded(topt, fopt);
    const uint64_t ns = TimeCall(sb, "t2.load_snapshot", 0, 0, [&] {
      loaded.LoadSnapshot(std::move(docs), in.num_initial);
      loaded.ForceAllPending();
    });
    ladder.Check(loaded.num_docs() == in.num_initial);
    report->Layer("core.load_snapshot_s", ns / 1e9, "s");
  }

  // The ingest script, replayed on the standalone collection.
  DocsModel model(&in.texts);
  for (DocId i = 0; i < in.num_initial; ++i) model.Insert(i);
  BlockRate rate;
  for (uint64_t i = 0; i < in.ingest.size(); ++i) {
    const DocWrite& w = in.ingest[i];
    std::vector<std::vector<Symbol>> docs;
    for (DocId id : w.inserts) docs.push_back(in.texts[id]);
    std::vector<DocId> ids;
    std::vector<uint8_t> erased;
    rate.Add(w.ops(), TimeCall(sb, "t2.write", i, 0, [&] {
               for (auto& d : docs) ids.push_back(t2.Insert(std::move(d)));
               for (DocId id : w.erases) erased.push_back(t2.Erase(id));
             }));
    for (uint64_t k = 0; k < w.inserts.size(); ++k) {
      ladder.Check(ids[k] == w.inserts[k]);
      model.Insert(w.inserts[k]);
    }
    for (uint64_t k = 0; k < w.erases.size(); ++k) {
      ladder.Check(erased[k] == model.Erase(w.erases[k]));
    }
  }
  report->Layer("core.ingest_ops_per_s", rate.Median(), "1/s");
  t2.ForceAllPending();
  const dyndex::SpaceBreakdown space = t2.Space();
  report->Layer("core.tops", t2.num_tops(), "count");
  report->Layer("core.c0_bytes", space.uncompressed, "B");
  report->Layer("core.static_bytes", space.static_indexes, "B");
  report->Layer("core.reporter_bytes", space.reporters, "B");
  report->Layer("core.bookkeeping_bytes", space.bookkeeping, "B");

  // Read rungs: T2 -> one semi-static level over every live document ->
  // its FM-index, on the same requests.
  std::vector<Document> live;
  for (DocId id : model.LiveIds()) live.push_back({id, in.texts[id]});
  dyndex::SemiStaticIndex<dyndex::FmIndex>::Options sopt;
  sopt.index = fopt;
  const dyndex::SemiStaticIndex<dyndex::FmIndex> semi(live, sopt);
  const dyndex::FmIndex& fm = semi.index();
  std::vector<uint64_t> want(in.patterns.size(), 0);
  {
    PatternScanner scanner(&in.patterns);
    for (const Document& d : live) {
      scanner.Scan(d.symbols, [&](uint32_t pi, uint64_t) { ++want[pi]; });
    }
  }
  std::vector<double> count, semi_count, locate, extract, find_per_sym,
      locate_per_occ, extract_per_sym;
  Rng rng(cfg.seed ^ 0x1add3e);
  std::vector<Symbol> buf;
  for (uint64_t r = 0; r < p.ladder_requests; ++r) {
    const uint64_t pi = r % in.patterns.size();
    const auto& pat = in.patterns[pi];
    uint64_t parent = 0, mid = 0, c1 = 0, c2 = 0;
    count.push_back(TimeCall(sb, "t2.count", r, 0,
                             [&] { c1 = t2.Count(pat); }, &parent));
    semi_count.push_back(TimeCall(sb, "semi.count", r, parent,
                                  [&] { c2 = semi.Count(pat); }, &mid));
    dyndex::RowRange range;
    find_per_sym.push_back(
        TimeCall(sb, "fm.find", r, mid, [&] { range = fm.Find(pat); }) /
        static_cast<double>(pat.size()));
    ladder.Check(c1 == want[pi] && c2 == want[pi] &&
                 range.end - range.begin == want[pi]);

    const uint64_t lreq = r + (1ull << 32);
    std::vector<Occurrence> occ;
    uint64_t n2 = 0;
    locate.push_back(TimeCall(sb, "t2.locate", lreq, 0,
                              [&] { occ = t2.Find(pat); }, &parent));
    TimeCall(
        sb, "semi.locate", lreq, parent,
        [&] { semi.ForEachOccurrence(pat, [&](DocId, uint64_t) { ++n2; }); },
        &mid);
    std::vector<uint64_t> pos;
    const uint64_t loc_ns = TimeCall(sb, "fm.locate", lreq, mid, [&] {
      for (uint64_t row = range.begin; row < range.end; ++row) {
        pos.push_back(fm.Locate(row));
      }
    });
    if (!range.empty()) {
      locate_per_occ.push_back(static_cast<double>(loc_ns) / range.size());
    }
    bool located = occ.size() == want[pi] && n2 == want[pi];
    for (uint64_t at : pos) {  // each position must start the pattern
      const uint32_t in_doc = fm.DocOfPos(at);
      const uint64_t off = at - fm.doc_start(in_doc);
      const auto& sym = live[in_doc].symbols;
      located = located && off + pat.size() <= sym.size() &&
                std::equal(pat.begin(), pat.end(), sym.begin() + off);
    }
    ladder.Check(located);

    const uint64_t local = rng.Below(live.size());
    const Document& d = live[local];
    const uint64_t from = rng.Below(d.symbols.size() - kExtractLen + 1);
    const uint64_t ereq = r + (2ull << 32);
    std::vector<Symbol> got;
    extract.push_back(TimeCall(
        sb, "t2.extract", ereq, 0,
        [&] { got = t2.Extract(d.id, from, kExtractLen); }, &parent));
    buf.clear();
    TimeCall(sb, "semi.extract", ereq, parent,
             [&] { semi.Extract(d.id, from, kExtractLen, &buf); }, &mid);
    std::vector<Symbol> raw;
    extract_per_sym.push_back(
        TimeCall(sb, "fm.extract", ereq, mid,
                 [&] {
                   fm.Extract(fm.doc_start(local) + from, kExtractLen, &raw);
                 }) /
        static_cast<double>(kExtractLen));
    const bool same =
        std::equal(d.symbols.begin() + from,
                   d.symbols.begin() + from + kExtractLen, got.begin()) &&
        got.size() == kExtractLen && buf == got && raw == got;
    ladder.Check(same);
  }
  report->Layer("core.count_us", Median(count) / 1e3, "us");
  report->Layer("core.extract_us", Median(extract) / 1e3, "us");
  report->Layer("core.locate_us", Median(locate) / 1e3, "us");
  report->Layer("core.semi_static_count_us", Median(semi_count) / 1e3, "us");
  report->Layer("text.find_ns_per_symbol", Median(find_per_sym), "ns");
  report->Layer("text.extract_ns_per_symbol", Median(extract_per_sym), "ns");
  report->Layer("text.locate_ns_per_occ", Median(locate_per_occ), "ns");

  // Build rungs over every live document: SA-IS, then the FM-index build
  // (which runs SA-IS again inside).
  const dyndex::ConcatText text(live);
  std::vector<Symbol> t = text.symbols();
  t.push_back(dyndex::kSentinel);
  std::vector<uint64_t> sa;
  const uint64_t sais_ns = TimeCall(sb, "sais.build", 0, 0, [&] {
    sa = dyndex::BuildSuffixArray(t, text.sigma());
  });
  ladder.Check(sa.size() == t.size() && sa[0] == t.size() - 1);
  dyndex::FmIndex built;
  const uint64_t fm_ns = TimeCall(sb, "fm.build", 0, 0, [&] {
    built = dyndex::FmIndex::Build(text, fopt);
  });
  ladder.Check(built.NumRows() == t.size());
  report->Layer("text.build_ns_per_symbol",
                static_cast<double>(fm_ns) / t.size(), "ns");
  report->Layer("suffix.sais_ns_per_symbol",
                static_cast<double>(sais_ns) / t.size(), "ns");

  // C0 rungs: C0-sized suffix trees filled with consecutive live documents.
  uint64_t gst_ns = 0, gst_syms = 0;
  std::vector<double> gst_count;
  for (uint64_t at = 0; at < live.size() && gst_syms < 32 * kGstSymbols;) {
    dyndex::SuffixTreeCollection gst;
    uint64_t held = 0;
    std::vector<const Document*> inside;
    for (; at < live.size() && held < kGstSymbols; ++at) {
      gst_ns += TimeCall(sb, "gst.insert", at, 0, [&] {
        gst.Insert(live[at].id, live[at].symbols);
      });
      held += live[at].symbols.size();
      inside.push_back(&live[at]);
    }
    gst_syms += held;
    std::vector<std::vector<Symbol>> one(1);
    for (uint32_t k = 0; k < 8; ++k) {
      one[0] = in.patterns[(gst_syms + k) % in.patterns.size()];
      uint64_t c = 0, expect = 0;
      gst_count.push_back(
          TimeCall(sb, "gst.count", k, 0, [&] { c = gst.Count(one[0]); }));
      PatternScanner scanner(&one);
      for (const Document* d : inside) {
        scanner.Scan(d->symbols, [&](uint32_t, uint64_t) { ++expect; });
      }
      ladder.Check(c == expect);
    }
  }
  report->Layer("gst.insert_ns_per_symbol",
                static_cast<double>(gst_ns) / std::max<uint64_t>(gst_syms, 1),
                "ns");
  report->Layer("gst.count_us", Median(gst_count) / 1e3, "us");
}

}  // namespace perfbench
