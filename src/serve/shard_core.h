// The shard machinery both serving facades share: K EpochGuard cores (see
// serve/epoch_guard.h) on one scatter-join pool, each with its own durable
// log and writer mutex. ShardedIndex and ShardedRelation derive from
// ShardCore<Backend> and add only routing, id mapping and their query
// lists. K = 1 is the single-core case: the pool has no worker and every
// fan-out runs inline on the caller.
//
// The one write path (WriteShards). Each touched shard runs, on one pool
// task:  writer mutex -> encode -> Write{apply, append} -> the exclusive
// section ends -> fsync (group commit) -> writer mutex released. Readers
// never take the writer mutex, so no reader waits out an fsync: a reader
// may see a batch whose fsync is still in flight, and the writer's call
// returns only after it. The writer mutex keeps concurrent batch writers
// from sharing one shard's WAL (DurableLog is single-writer).
//
// Durable layout under `dir`: one MANIFEST binding the state kind, K and
// the backend, and shard s's snapshot + WAL in `<dir>/shard-<s>/`.
// Reopening with a different K, kind or backend, with a bound shard's log
// missing, or on a directory holding the single-core layout (SNAPSHOT / WAL
// at its top level, no MANIFEST) is refused loudly instead of serving a
// partial or empty collection. Recovery fans out across the pool (one shard
// per task). OpenDurable / Checkpoint / SyncWal / CloseDurable require
// writer quiescence.
#ifndef DYNDEX_SERVE_SHARD_CORE_H_
#define DYNDEX_SERVE_SHARD_CORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "persist/env.h"
#include "persist/status.h"
#include "serve/epoch_guard.h"
#include "serve/persistence.h"
#include "serve/thread_pool.h"
#include "util/check.h"
#include "util/sync.h"

namespace dyndex {

/// Per-shard epochs observed by one fanned-out query (index = shard).
using ShardEpochs = std::vector<uint64_t>;

/// Per-shard seqlock words (index = shard; even = quiescent). The cheap
/// change-detection poll of the sharded facades: a shard whose sequence is
/// unchanged between two polls served no write in between.
using ShardSeqs = std::vector<uint64_t>;

namespace shard_internal {

template <typename T>
uint64_t SumOf(const std::vector<T>& part) {
  uint64_t total = 0;
  for (const T& v : part) total += v;
  return total;
}

/// Concatenates the per-shard slices in shard order.
template <typename T>
std::vector<T> Flatten(std::vector<std::vector<T>> part) {
  uint64_t total = 0;
  for (const auto& p : part) total += p.size();
  std::vector<T> out;
  out.reserve(total);
  for (auto& p : part) out.insert(out.end(), p.begin(), p.end());
  return out;
}

void Accumulate(OptimisticStats* total, const OptimisticStats& s);
void Accumulate(PacingStats* total, const PacingStats& s);
void Accumulate(RecoveryStats* total, const RecoveryStats& s);

/// The layout half of a durable open: creates `dir`, checks the manifest
/// against (kind, K, backend), refuses the single-core layout and vanished
/// shards, and names each shard's directory. `fresh` is set when no
/// manifest exists yet (the caller writes it once every shard opened).
persist::Status PrepareShardDirs(persist::Env* env, const std::string& dir,
                                 serve_persist::StateKind kind,
                                 uint32_t num_shards, const char* backend,
                                 std::vector<std::string>* shard_dirs,
                                 bool* fresh);

}  // namespace shard_internal

template <typename Backend>
class ShardCore {
 public:
  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }

  /// Current per-shard epochs (not a consistent cross-shard snapshot; use
  /// the per-query epoch outputs for linearization).
  ShardEpochs epochs() const {
    ShardEpochs eps(num_shards(), 0);
    for (uint32_t s = 0; s < num_shards(); ++s) eps[s] = shards_[s]->epoch();
    return eps;
  }
  /// Current per-shard sequence words (plain atomic loads).
  ShardSeqs seqs() const {
    ShardSeqs sq(num_shards(), 0);
    for (uint32_t s = 0; s < num_shards(); ++s) {
      sq[s] = shards_[s]->sequence();
    }
    return sq;
  }

  /// Optimistic read-path knobs / counters, fanned to every shard's core
  /// (see serve/epoch_guard.h). Policies are atomic snapshots — settable
  /// at any time.
  void set_optimistic_policy(const OptimisticPolicy& policy) {
    for (auto& shard : shards_) shard->set_optimistic_policy(policy);
  }
  /// Counters summed across shards.
  OptimisticStats optimistic_stats() const {
    OptimisticStats total;
    for (const auto& shard : shards_) {
      shard_internal::Accumulate(&total, shard->optimistic_stats());
    }
    return total;
  }
  /// Write pacing, fanned to every shard's core. Shards pace independently:
  /// each shard's writer gate keys on that shard's own stalled readers and
  /// sleeps before taking that shard's lock (never inside one), so a paced
  /// shard cannot delay batches bound for quiet shards.
  void set_pacing_policy(const PacingPolicy& policy) {
    for (auto& shard : shards_) shard->set_pacing_policy(policy);
  }
  /// Pacing counters summed across shards.
  PacingStats pacing_stats() const {
    PacingStats total;
    for (const auto& shard : shards_) {
      shard_internal::Accumulate(&total, shard->pacing_stats());
    }
    return total;
  }
  /// Retired-but-not-yet-reclaimed batches summed across shards.
  uint64_t retired_pending() const {
    uint64_t total = 0;
    for (const auto& shard : shards_) total += shard->retired_pending();
    return total;
  }

  /// Publishes finished background builds on every shard (epochs unchanged:
  /// the logical state does not move, so queries before and after a swap
  /// see identical answers). Only backends with background builds have it.
  void Poll()
    requires requires(Backend& b) { b.PollPending(); }
  {
    for (auto& shard : shards_) {
      shard->Maintain([](Backend& b) { b.PollPending(); });
    }
  }
  /// Blocks until all shards' background builds are published.
  void Flush()
    requires requires(Backend& b) { b.ForceAllPending(); }
  {
    RunPerShard([this](uint32_t s) {
      shards_[s]->Maintain([](Backend& b) { b.ForceAllPending(); });
    });
  }

  // --- durability (see serve/persistence.h and the header comment) ---------

  persist::Status OpenDurable(persist::Env* env, const std::string& dir,
                              const DurableOptions& opt = {},
                              RecoveryStats* stats = nullptr) {
    DYNDEX_CHECK(logs_.empty());
    const uint32_t k = num_shards();
    std::vector<std::string> shard_dirs;
    bool fresh = false;
    DYNDEX_RETURN_IF_ERROR(shard_internal::PrepareShardDirs(
        env, dir, manifest_kind_, k, backend_name(), &shard_dirs, &fresh));
    // Shards are independent (own dir, own core, own log).
    std::vector<std::unique_ptr<serve_persist::DurableLog>> logs(k);
    std::vector<persist::Status> st(k);
    std::vector<RecoveryStats> shard_stats(k);
    RunPerShard([&](uint32_t s) {
      st[s] = serve_persist::OpenDurableCore(env, shard_dirs[s], opt,
                                             *shards_[s], &logs[s],
                                             &shard_stats[s]);
    });
    for (uint32_t s = 0; s < k; ++s) DYNDEX_RETURN_IF_ERROR(st[s]);
    if (fresh) {
      serve_persist::SnapshotMeta meta;
      meta.kind = manifest_kind_;
      meta.backend = backend_name();
      meta.num_shards = k;
      DYNDEX_RETURN_IF_ERROR(serve_persist::WriteManifest(env, dir, meta));
    }
    if (stats != nullptr) {
      RecoveryStats total;
      for (const RecoveryStats& s : shard_stats) {
        shard_internal::Accumulate(&total, s);
      }
      *stats = total;
    }
    logs_ = std::move(logs);
    return persist::Status::Ok();
  }
  /// Checkpoints every shard in parallel: snapshot + WAL reset per shard.
  persist::Status Checkpoint() {
    DYNDEX_CHECK(!logs_.empty());
    std::vector<persist::Status> st(num_shards());
    RunPerShard([&](uint32_t s) {
      MutexLock writer(writer_mu_[s]);
      st[s] = serve_persist::CheckpointCore(*shards_[s], *logs_[s]);
    });
    for (const persist::Status& s : st) DYNDEX_RETURN_IF_ERROR(s);
    return persist::Status::Ok();
  }
  /// Forces every shard's WAL to disk; surfaces sticky append/sync failures.
  persist::Status SyncWal() {
    DYNDEX_CHECK(!logs_.empty());
    for (uint32_t s = 0; s < num_shards(); ++s) {
      MutexLock writer(writer_mu_[s]);
      logs_[s]->writer_role().AssertHeld();
      DYNDEX_RETURN_IF_ERROR(logs_[s]->Sync());
    }
    return persist::Status::Ok();
  }
  /// Final sync + detach; the facade keeps serving, un-durably.
  persist::Status CloseDurable() {
    DYNDEX_CHECK(!logs_.empty());
    persist::Status first = persist::Status::Ok();
    for (uint32_t s = 0; s < num_shards(); ++s) {
      MutexLock writer(writer_mu_[s]);
      logs_[s]->writer_role().AssertHeld();
      persist::Status st = logs_[s]->Close();
      if (first.ok()) first = st;
    }
    logs_.clear();
    return first;
  }
  bool durable() const { return !logs_.empty(); }

  const char* backend_name() const {
    return shards_[0]->unsynchronized().backend_name();
  }

  /// Structural self-check across all shards (takes each shard's read path
  /// in turn).
  void CheckInvariants() const {
    for (const auto& shard : shards_) {
      shard->Read(nullptr, [](const Backend& b) { b.CheckInvariants(); });
    }
  }

  /// Shard s's backend, with no locking. Callers must guarantee quiescence.
  Backend& unsynchronized_shard(uint32_t s) {
    return shards_[s]->unsynchronized();
  }

 protected:
  /// K shards, each built by `shard_factory` (K independent instances). The
  /// pool holds K-1 workers: the calling thread always runs one shard's
  /// slice itself. `manifest_kind` names the facade in the MANIFEST.
  ShardCore(uint32_t num_shards,
            const std::function<std::unique_ptr<Backend>()>& shard_factory,
            serve_persist::StateKind manifest_kind)
      : pool_(num_shards > 0 ? num_shards - 1 : 0),
        writer_mu_(new Mutex[num_shards > 0 ? num_shards : 1]),
        manifest_kind_(manifest_kind) {
    DYNDEX_CHECK(num_shards >= 1);
    shards_.reserve(num_shards);
    for (uint32_t s = 0; s < num_shards; ++s) {
      shards_.push_back(
          std::make_unique<EpochGuard<Backend>>(shard_factory()));
    }
  }

  /// A query on shard s alone; `epoch` receives that shard's epoch.
  template <typename Fn>
  decltype(auto) ReadShard(uint32_t s, uint64_t* epoch, Fn&& fn) const {
    return shards_[s]->Read(epoch, std::forward<Fn>(fn));
  }

  /// Scatters fn(s, const Backend&) -> R across all shards on the pool,
  /// joins, fills `epochs` when requested, and hands back the per-shard
  /// results in shard order. fn may run more than once per shard (see
  /// EpochGuard::Read), so it must be restartable.
  template <typename R, typename Fn>
  std::vector<R> FanOutRead(ShardEpochs* epochs, const Fn& fn) const {
    std::vector<R> part(num_shards());
    if (epochs != nullptr) epochs->assign(num_shards(), 0);
    RunPerShard([&](uint32_t s) {
      part[s] = shards_[s]->Read(
          epochs != nullptr ? &(*epochs)[s] : nullptr,
          [&fn, s](const Backend& b) { return fn(s, b); });
    });
    return part;
  }

  /// The one write path (see the header comment). sub[s] is shard s's
  /// sub-batch; shards whose sub-batch is empty are skipped and keep their
  /// epoch. encode(const Sub&) -> std::string is the WAL payload, computed
  /// before apply(Backend&, Sub&) -> R consumes the sub-batch. Returns the
  /// per-shard results (R{} for skipped shards).
  template <typename R, typename Sub, typename Encode, typename Apply>
  std::vector<R> WriteShards(std::vector<Sub>& sub, const Encode& encode,
                             const Apply& apply) {
    std::vector<R> out(num_shards());
    RunPerShard([&](uint32_t s) {
      if (sub[s].empty()) return;
      MutexLock writer(writer_mu_[s]);
      serve_persist::DurableLog* log = logs_.empty() ? nullptr : logs_[s].get();
      std::string payload;
      if (log != nullptr) payload = encode(sub[s]);
      out[s] = shards_[s]->Write([&](Backend& b) {
        R result = apply(b, sub[s]);
        if (log != nullptr) {
          // Appended inside the section, after the apply succeeded: log
          // order is epoch order and a throwing batch logs nothing. The
          // writer mutex makes this task the shard log's one writer.
          log->writer_role().AssertHeld();
          log->LogApplied(payload);
        }
        return result;
      });
      if (log != nullptr) {
        log->writer_role().AssertHeld();
        log->MaybeSync();
      }
    });
    return out;
  }

 private:
  /// Runs fn(s) for every shard on the pool and joins. A single core runs
  /// fn(0) inline without building a task: on a K = 1 Count the task vector
  /// cost 14 % of reader throughput (bench_serve_concurrent readers:4).
  template <typename Fn>
  void RunPerShard(const Fn& fn) const {
    if (num_shards() == 1) {
      fn(0);
      return;
    }
    std::vector<std::function<void()>> tasks;
    tasks.reserve(num_shards());
    for (uint32_t s = 0; s < num_shards(); ++s) {
      tasks.push_back([&fn, s] { fn(s); });
    }
    pool_.RunAll(std::move(tasks));
  }

  std::vector<std::unique_ptr<EpochGuard<Backend>>> shards_;
  mutable ThreadPool pool_;
  /// Per-shard writer mutex: held from before Write() until after the
  /// fsync, so one batch at a time owns the shard's log. Readers never
  /// take it.
  std::unique_ptr<Mutex[]> writer_mu_;
  /// Per-shard durable logs; empty until OpenDurable (then index = shard).
  std::vector<std::unique_ptr<serve_persist::DurableLog>> logs_;
  serve_persist::StateKind manifest_kind_;
};

}  // namespace dyndex

#endif  // DYNDEX_SERVE_SHARD_CORE_H_
