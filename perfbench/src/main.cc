// dyndex_perfbench: runs one workload end to end through the durable serving
// facades and prints its metrics; the last stdout line is one JSON object.
//
//   dyndex_perfbench --workload docs_search|graph_churn --seed N
//                    --seconds S --trace 0|1 --workdir DIR
//                    [--spans FILE] [--smoke]
//
// --trace 1 records spans around every call the benchmark makes into a
// layer, replays samples of each phase's requests down the layer ladder,
// prints the per-layer metrics and writes the spans to --spans.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"
#include "trace.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: dyndex_perfbench --workload "
               "docs_search|graph_churn --seed N --seconds S --trace 0|1 "
               "--workdir DIR [--spans FILE] [--smoke]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string workload, spans_path;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--smoke") {
      cfg.smoke = true;
    } else if ((v = value()) == nullptr) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      workload = v;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      trace = std::string(v) == "1";
    } else if (arg == "--workdir") {
      cfg.workdir = v;
    } else if (arg == "--spans") {
      spans_path = v;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (workload != "docs_search" && workload != "graph_churn") {
    return Usage("--workload must be docs_search or graph_churn");
  }
  if (cfg.workdir.empty()) return Usage("--workdir is required");
  if (!(cfg.seconds > 0)) return Usage("--seconds must be positive");
  std::filesystem::create_directories(cfg.workdir);

  perfbench::Tracer tracer(trace);
  perfbench::Report report;
  if (workload == "docs_search") {
    perfbench::RunDocsSearch(cfg, &tracer, &report);
  } else {
    perfbench::RunGraphChurn(cfg, &tracer, &report);
  }
  if (trace) {
    perfbench::DocsLowerLadder(cfg, &tracer, &report);
    perfbench::GraphLowerLadder(cfg, &tracer, &report);
    for (const auto& rung : tracer.Summarize()) {
      char line[160];
      std::snprintf(line, sizeof(line),
                    "span %-24s n=%-8llu median=%.0f ns self=%.0f ns",
                    rung.name.c_str(),
                    static_cast<unsigned long long>(rung.spans),
                    rung.median_ns, rung.median_self_ns);
      report.Note(line);
    }
    if (!spans_path.empty()) {
      if (!tracer.Write(spans_path)) {
        report.Incorrect("cannot write the span file " + spans_path);
      } else {
        report.Note("spans: " + std::to_string(tracer.num_spans()) +
                    " written to " + spans_path);
      }
    }
  }
  report.Print(trace);
  return 0;
}
