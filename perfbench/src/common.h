// Shared plumbing of the benchmark: clocks, order statistics, failure
// accounting, the schedule of a phase, and the result report whose last line
// is the one JSON object the benchmark contract asks for.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline void SleepUntilNs(uint64_t t_ns) {
  const uint64_t now = NowNs();
  if (t_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
  }
}

/// Nearest-rank quantile (q in [0, 1]) of `v`; sorts a copy. 0 when empty.
template <typename T>
double Quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return static_cast<double>(v[rank]);
}

template <typename T>
double Median(std::vector<T> v) {
  return Quantile(std::move(v), 0.5);
}

/// CPU time this process has used so far, in seconds: user plus system, over
/// all its threads (those that have ended too). On a virtual machine the
/// time the host ran other guests on our CPUs (steal) is not in it.
inline double ProcessCpuS() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Peak resident set of this process in MiB (getrusage reports KiB).
inline double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Current resident set of this process in MiB (0 when unreadable).
inline double RssMiB() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long pages = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &pages, &resident);
  std::fclose(f);
  return n == 2 ? resident * 4096.0 / (1024.0 * 1024.0) : 0;
}

/// The resident set in MiB once the benchmark has built its own inputs and
/// model, taken before the program's first call: heap memory the benchmark
/// freed is handed back first (malloc_trim), so that the program cannot
/// reuse it unseen. peak_rss_mb is the peak above this.
inline double BaselineRssMiB() {
  malloc_trim(0);
  return RssMiB();
}

/// Operations attempted and failed in one phase. An operation is one write
/// item (a document insert or erase, a pair add or remove), one read, or one
/// end-of-phase check query; a mismatch against the model fails it.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Add(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. Human-readable lines go to stdout first; the
/// last line is the JSON object.
class Report {
 public:
  Tally& phase(const std::string& name) {
    for (auto& p : phases_) {
      if (p.first == name) return p.second;
    }
    phases_.emplace_back(name, Tally{});
    return phases_.back().second;
  }
  void E2e(const std::string& name, double value, const std::string& unit) {
    e2e_.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layer_.push_back({name, value, unit});
  }
  /// A figure printed with the run but left out of the JSON result: one
  /// that does not repeat well enough across runs to carry a bound.
  void Info(const std::string& name, double value, const std::string& unit) {
    info_.push_back({name, value, unit});
  }
  void Note(const std::string& line) { notes_.push_back(line); }
  /// Notes a phase's wall time (from `start_ns`) and the resident set now.
  void PhaseDone(const std::string& name, uint64_t start_ns) {
    char line[128];
    std::snprintf(line, sizeof(line), "phase %s took %.3f s, rss %.1f MiB",
                  name.c_str(), (NowNs() - start_ns) / 1e9, RssMiB());
    notes_.push_back(line);
  }
  /// A step outside the counted operations went wrong (a durability call
  /// returned an error, a structural self-check failed): the run's outputs
  /// cannot be trusted as a whole.
  void Incorrect(const std::string& why) {
    correct_ = false;
    notes_.push_back("INCORRECT: " + why);
  }

  /// Prints the notes, per-phase tallies, both metric sets as readable
  /// lines, and finally the JSON object: the end-to-end metrics when
  /// `trace` is false, the per-layer metrics when it is true.
  void Print(bool trace) const {
    for (const auto& n : notes_) std::printf("%s\n", n.c_str());
    Tally total;
    for (const auto& [name, t] : phases_) {
      std::printf("phase %-8s attempted=%llu failed=%llu\n", name.c_str(),
                  static_cast<unsigned long long>(t.attempted),
                  static_cast<unsigned long long>(t.failed));
      total.Add(t);
    }
    for (const auto& m : e2e_) {
      std::printf("e2e %s=%.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    for (const auto& m : info_) {
      std::printf("info %s=%.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    for (const auto& m : layer_) {
      std::printf("layer %s=%.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    const auto& metrics = trace ? layer_ : e2e_;
    std::string json = "{\"correct\": ";
    json += correct_ ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(total.attempted);
    json += ", \"failed\": " + std::to_string(total.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
      if (i > 0) json += ", ";
      json += "\"" + metrics[i].name + "\": {\"value\": " + value +
              ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::deque<std::pair<std::string, Tally>> phases_;  // stable references
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::vector<Metric> info_;
  std::vector<std::string> notes_;
  bool correct_ = true;
};

/// One latency sample set per thread, merged after the threads join.
struct Latencies {
  std::vector<uint32_t> ns;  // saturates at ~4.29 s
  void Add(uint64_t d) {
    ns.push_back(static_cast<uint32_t>(std::min<uint64_t>(d, UINT32_MAX)));
  }
};

/// Throughput windows: reads are also counted per second of the phase, and
/// the reported rate is the median over the whole windows, so a burst of
/// host noise moves one window instead of the figure.
inline constexpr uint64_t kWindowNs = 1'000'000'000;

/// What one reader thread saw: every read's latency and check, and how many
/// reads completed in each window since `start_ns`.
struct ReadStats {
  Latencies lat;
  uint64_t reads = 0;
  Tally tally;
  std::vector<uint64_t> windows;

  void Record(uint64_t start_ns, uint64_t latency_ns, bool ok) {
    lat.Add(latency_ns);
    ++reads;
    tally.Check(ok);
    const uint64_t w = (NowNs() - start_ns) / kWindowNs;
    if (w >= windows.size()) windows.resize(w + 1, 0);
    ++windows[w];
  }
  void Merge(const ReadStats& o) {
    lat.ns.insert(lat.ns.end(), o.lat.ns.begin(), o.lat.ns.end());
    reads += o.reads;
    tally.Add(o.tally);
    if (o.windows.size() > windows.size()) windows.resize(o.windows.size(), 0);
    for (size_t i = 0; i < o.windows.size(); ++i) windows[i] += o.windows[i];
  }
  /// Median reads per second over the windows that ended by `end_ns`
  /// (all reads per elapsed second when the phase was shorter than one).
  double MedianRate(uint64_t start_ns, uint64_t end_ns) const {
    const uint64_t full = (end_ns - start_ns) / kWindowNs;
    if (full == 0) return reads / ((end_ns - start_ns) / 1e9);
    std::vector<uint64_t> w(windows);
    w.resize(full, 0);  // drops the partial last window, pads idle ones
    return Median(w) * 1e9 / kWindowNs;
  }
};

/// Closed-loop write throughput: ops and time per block of 10 consecutive
/// writes; the reported rate is the median block rate.
class BlockRate {
 public:
  void Add(uint64_t ops, uint64_t ns) {
    ops_ += ops;
    ns_ += ns;
    if (++batches_ == kWritesPerBlock) {
      rates_.push_back(ops_ * 1e9 / ns_);
      ops_ = ns_ = batches_ = 0;
    }
  }
  double Median() const { return perfbench::Median(rates_); }

 private:
  static constexpr uint64_t kWritesPerBlock = 10;
  uint64_t ops_ = 0, ns_ = 0, batches_ = 0;
  std::vector<double> rates_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
