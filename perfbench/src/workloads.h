// The two workloads and the lower rungs of the traced layer ladder.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common.h"
#include "trace.h"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  /// Length of the serve phase's write schedule; the other phases run fixed
  /// scripts.
  double seconds = 10;
  bool smoke = false;  // small inputs, same code and checks
  /// Scratch directory for the durable state (run.py removes it afterwards).
  std::string workdir;
};

/// One run of a workload: setup, ingest, serve and recover, each checked
/// against the model. With a recording tracer the facade calls carry spans
/// and the run ends with the facade rungs of the ladder (serve.* and
/// persist.* per-layer metrics).
void RunDocsSearch(const RunConfig& cfg, Tracer* tracer, Report* report);
void RunGraphChurn(const RunConfig& cfg, Tracer* tracer, Report* report);

/// The rungs below the serving facade, on standalone structures fed with the
/// workload's inputs for `cfg.seed`: Transformation 2, the semi-static
/// level, the FM-index, SA-IS and the C0 suffix tree (core.*, text.*,
/// suffix.*, gst.*) for documents; DynamicRelation (relation.*) for the
/// graph. Every traced run runs both, so it prints the whole ladder.
void DocsLowerLadder(const RunConfig& cfg, Tracer* tracer, Report* report);
void GraphLowerLadder(const RunConfig& cfg, Tracer* tracer, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
