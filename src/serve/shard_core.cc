#include "serve/shard_core.h"

#include <string>

namespace dyndex {
namespace shard_internal {

void Accumulate(OptimisticStats* total, const OptimisticStats& s) {
  total->attempts += s.attempts;
  total->validated += s.validated;
  total->retries += s.retries;
  total->fallbacks += s.fallbacks;
  total->capture_exhausted += s.capture_exhausted;
  total->retries_exhausted += s.retries_exhausted;
  total->capture_stalled += s.capture_stalled;
  total->locked_reads += s.locked_reads;
}

void Accumulate(PacingStats* total, const PacingStats& s) {
  total->waits += s.waits;
  total->wait_us += s.wait_us;
}

void Accumulate(RecoveryStats* total, const RecoveryStats& s) {
  total->snapshot_loaded |= s.snapshot_loaded;
  total->snapshot_seq += s.snapshot_seq;
  total->replayed_batches += s.replayed_batches;
  total->skipped_frames += s.skipped_frames;
  total->dropped_wal_bytes += s.dropped_wal_bytes;
}

persist::Status PrepareShardDirs(persist::Env* env, const std::string& dir,
                                 serve_persist::StateKind kind,
                                 uint32_t num_shards, const char* backend,
                                 std::vector<std::string>* shard_dirs,
                                 bool* fresh) {
  DYNDEX_RETURN_IF_ERROR(env->CreateDir(dir));
  serve_persist::SnapshotMeta manifest;
  persist::Status ms = serve_persist::ReadManifest(env, dir, &manifest);
  *fresh = ms.IsNotFound();
  if (*fresh) {
    // A single-core directory keeps its snapshot and log at the top level.
    // Opening it as a fresh sharded directory would serve it empty.
    if (env->FileExists(dir + "/" + serve_persist::kSnapshotFileName) ||
        env->FileExists(dir + "/" + serve_persist::kWalFileName)) {
      return persist::Status::InvalidArgument(
          "'" + dir +
          "' holds the single-core layout (SNAPSHOT / WAL at its top level, "
          "no MANIFEST); the sharded layout is MANIFEST + shard-<s>/");
    }
  } else {
    DYNDEX_RETURN_IF_ERROR(ms);  // a damaged manifest is loud, not "fresh"
    DYNDEX_RETURN_IF_ERROR(
        serve_persist::CheckManifest(manifest, kind, num_shards, backend));
  }
  shard_dirs->assign(num_shards, {});
  for (uint32_t s = 0; s < num_shards; ++s) {
    (*shard_dirs)[s] = dir + "/shard-" + std::to_string(s);
    if (!*fresh && !env->FileExists((*shard_dirs)[s] + "/" +
                                    serve_persist::kWalFileName)) {
      // The manifest binds this shard; its vanished state must not be served
      // as an empty shard.
      return persist::Status::Corruption(
          "manifest binds shard " + std::to_string(s) +
          " but its durable state is missing");
    }
  }
  return persist::Status::Ok();
}

}  // namespace shard_internal
}  // namespace dyndex
