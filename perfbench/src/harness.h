// Phase runners shared by the two workloads: repeated durable set-up and
// recovery, closed-loop readers beside an open-loop writer, and the report of
// the end-to-end metrics. Only the writes, reads and checks of a workload
// live in its own file.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "persist/env.h"
#include "persist/status.h"
#include "serve/persistence.h"
#include "trace.h"

namespace perfbench {

/// Marks the run incorrect when a durability call failed.
inline void ExpectOk(const dyndex::persist::Status& st, const char* what,
                     Report* report) {
  if (!st.ok()) report->Incorrect(std::string(what) + ": " + st.ToString());
}

/// The cost of one repetition of set-up or recovery: the CPU seconds the
/// process used (every thread: the caller, T2's build thread, the pool) and
/// the wall seconds it took.
struct Cost {
  std::vector<double> cpu_s, wall_s;

  /// Runs `fn` and appends its cost.
  template <typename Fn>
  void Measure(Fn&& fn) {
    const double cpu0 = ProcessCpuS();
    const uint64_t t0 = NowNs();
    fn();
    wall_s.push_back((NowNs() - t0) / 1e9);
    cpu_s.push_back(ProcessCpuS() - cpu0);
  }
};

/// Sets a durable facade up `reps` times, each time into a fresh directory
/// `<prefix>-<rep>` (the previous one is removed), and returns the last one,
/// whose directory lands in `*dir`. A repetition's cost runs from
/// OpenDurable through `load(facade)` to the first Checkpoint;
/// `check(facade)` runs after it, unmeasured.
template <typename Facade, typename Make, typename Load, typename Check>
std::unique_ptr<Facade> SetUpDurable(uint32_t reps, const std::string& prefix,
                                     Make make, Load load, Check check,
                                     Report* report, Cost* cost,
                                     std::string* dir) {
  namespace fs = std::filesystem;
  dyndex::persist::Env* env = dyndex::persist::GetPosixEnv();
  std::unique_ptr<Facade> last;
  for (uint32_t rep = 0; rep < reps; ++rep) {
    last.reset();
    if (!dir->empty()) fs::remove_all(*dir);
    *dir = prefix + "-" + std::to_string(rep);
    fs::remove_all(*dir);
    std::unique_ptr<Facade> f = make();
    cost->Measure([&] {
      ExpectOk(f->OpenDurable(env, *dir), "setup OpenDurable", report);
      load(*f);
      ExpectOk(f->Checkpoint(), "setup Checkpoint", report);
    });
    check(*f);
    last = std::move(f);
  }
  return last;
}

/// Reopens `dir` `reps` times, each time on a fresh facade, and returns the
/// last one. A repetition's cost runs from OpenDurable through
/// `first(facade)` (Flush where the facade has one, then a first query);
/// `check(facade)` runs after it, unmeasured.
template <typename Facade, typename Make, typename First, typename Check>
std::unique_ptr<Facade> RecoverDurable(uint32_t reps, const std::string& dir,
                                       Make make, First first, Check check,
                                       Report* report, Cost* cost,
                                       dyndex::RecoveryStats* stats) {
  dyndex::persist::Env* env = dyndex::persist::GetPosixEnv();
  std::unique_ptr<Facade> last;
  for (uint32_t rep = 0; rep < reps; ++rep) {
    last.reset();
    std::unique_ptr<Facade> f = make();
    cost->Measure([&] {
      ExpectOk(f->OpenDurable(env, dir, {}, stats), "recover OpenDurable",
               report);
      first(*f);
    });
    check(*f);
    last = std::move(f);
  }
  return last;
}

/// How many writes the serve schedule holds: `per_s` for `seconds`, at
/// least one.
inline uint64_t ScheduledWrites(double seconds, double per_s) {
  const uint64_t n = static_cast<uint64_t>(seconds * per_s + 0.5);
  return n > 0 ? n : 1;
}

/// What the serve phase's open-loop writer saw: each write's latency from
/// its due time to its return (its durable acknowledgement), and how late
/// each one started.
struct WriteSchedule {
  Latencies lat;
  std::vector<uint64_t> late;
  uint64_t period_ns = 0;
};

/// Runs `write(i)` for i < `writes`, write i due at t0 + i / per_s: a
/// fixed open-loop schedule, so that a slow write delays the next one's
/// start instead of thinning the load.
template <typename Write>
WriteSchedule RunSchedule(uint64_t t0, double per_s, uint64_t writes,
                          Write write) {
  WriteSchedule s;
  s.period_ns = static_cast<uint64_t>(1e9 / per_s);
  for (uint64_t i = 0; i < writes; ++i) {
    const uint64_t due = t0 + i * s.period_ns;
    SleepUntilNs(due);
    const uint64_t start = NowNs();
    write(i);
    s.lat.Add(NowNs() - due);
    s.late.push_back(start - due);
  }
  return s;
}

/// Runs `readers` closed-loop reader threads beside `writer`, which runs on
/// this thread; they stop when it returns, at `*end_ns`. Reader r runs
/// `read(r, spans, stop, &stats)` with its own span buffer (null when
/// tracing is off). Returns what the readers saw, merged.
template <typename Read>
ReadStats RunReaders(uint32_t readers, Tracer* tracer, Read read,
                     const std::function<void()>& writer, uint64_t* end_ns) {
  std::atomic<bool> stop{false};
  std::vector<ReadStats> per_reader(readers);
  std::vector<std::thread> threads;
  for (uint32_t r = 0; r < readers; ++r) {
    SpanBuffer* spans = tracer->NewBuffer();
    threads.emplace_back(
        [&, r, spans] { read(r, spans, stop, &per_reader[r]); });
  }
  writer();
  *end_ns = NowNs();
  stop.store(true);
  for (auto& th : threads) th.join();
  ReadStats all;
  for (const auto& r : per_reader) all.Merge(r);
  return all;
}

/// The quiet-read rung: the same readers alone for `seconds`, no writer.
/// Prints serve.quiet_read_p50_us and serve.quiet_read_p99_us.
template <typename Read>
void QuietReads(uint32_t readers, double seconds, Tracer* tracer, Read read,
                Report* report) {
  uint64_t end_ns = 0;
  const ReadStats quiet = RunReaders(
      readers, tracer, read,
      [&] {
        std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
      },
      &end_ns);
  report->phase("ladder").Add(quiet.tally);
  report->Layer("serve.quiet_read_p50_us", Quantile(quiet.lat.ns, 0.50) / 1e3,
                "us");
  report->Layer("serve.quiet_read_p99_us", Quantile(quiet.lat.ns, 0.99) / 1e3,
                "us");
}

/// Everything the end-to-end metrics are computed from.
struct EndToEnd {
  Cost setup;                      // per repetition
  BlockRate ingest;                // the lone closed-loop writer
  ReadStats reads;                 // serve-phase readers
  uint64_t serve_t0 = 0, serve_end = 0;
  WriteSchedule writes;            // serve-phase writer
  std::vector<double> bytes_per_item;  // after each serve write
  Cost recovery;                   // per repetition
  double baseline_rss_mib = 0;     // before the program's first call
};

/// Prints the end-to-end metrics (and notes on the serve schedule and the
/// repetitions). Call once the recover phase has ended: peak_rss_mb is the
/// process's peak resident set now, less the baseline taken once the
/// benchmark's own inputs and model were built.
inline void ReportEndToEnd(const EndToEnd& e, Report* report) {
  const WriteSchedule& w = e.writes;
  report->Note("serve schedule: " + std::to_string(w.late.size()) +
               " writes planned over " +
               std::to_string(w.late.size() * w.period_ns / 1e9) +
               " s, ran " + std::to_string((e.serve_end - e.serve_t0) / 1e9) +
               " s; start lateness p50 " +
               std::to_string(Median(w.late) / 1e3) + " us, max " +
               std::to_string(Quantile(w.late, 1.0) / 1e3) + " us");
  report->Note("serve: " + std::to_string(e.reads.reads) + " reads, " +
               std::to_string(w.lat.ns.size()) + " writes");
  auto list = [](const std::vector<double>& v) {
    std::string s;
    char one[32];
    for (double x : v) {
      std::snprintf(one, sizeof(one), " %.4f", x);
      s += one;
    }
    return s;
  };
  report->Note("setup repetitions: cpu s" + list(e.setup.cpu_s) + "; wall s" +
               list(e.setup.wall_s));
  report->Note("recovery repetitions: cpu s" + list(e.recovery.cpu_s) +
               "; wall s" + list(e.recovery.wall_s));
  const double peak = PeakRssMiB();
  report->Note("resident set: baseline " + std::to_string(e.baseline_rss_mib) +
               " MiB, peak " + std::to_string(peak) + " MiB");

  // Set-up and recovery are gated on the CPU they cost the process, not on
  // wall time: on a shared 4-core virtual machine, steal (the host running
  // other guests on our CPUs) took 20-30 % of a CPU, varying by the minute,
  // and moved wall time by up to 1.6x between runs of the same code while
  // CPU time held within a few per cent (perfbench/README.md). Wall time is
  // printed beside it.
  report->E2e("setup_s", Median(e.setup.cpu_s), "s");
  report->Info("setup_wall_s", Median(e.setup.wall_s), "s");
  report->E2e("read_p50_us", Quantile(e.reads.lat.ns, 0.50) / 1e3, "us");
  // Figures that wait on WAL fsyncs (writes directly, reads behind a writer
  // that syncs inside its exclusive section) are printed but not gated:
  // over ten seeds their spreads passed 0.25, the largest bound a metric
  // may carry, whenever the shared host's disk or CPU slowed (see
  // perfbench/README.md).
  report->Info("read_ops_per_s", e.reads.MedianRate(e.serve_t0, e.serve_end),
               "1/s");
  report->Info("read_p99_us", Quantile(e.reads.lat.ns, 0.99) / 1e3, "us");
  report->Info("ingest_ops_per_s", e.ingest.Median(), "1/s");
  report->Info("write_p50_us", Quantile(w.lat.ns, 0.50) / 1e3, "us");
  report->Info("write_p90_us", Quantile(w.lat.ns, 0.90) / 1e3, "us");
  report->E2e("recovery_s", Median(e.recovery.cpu_s), "s");
  report->Info("recovery_wall_s", Median(e.recovery.wall_s), "s");
  report->E2e("bytes_per_item", Median(e.bytes_per_item), "B/item");
  report->E2e("peak_rss_mb", peak - e.baseline_rss_mib, "MiB");
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
