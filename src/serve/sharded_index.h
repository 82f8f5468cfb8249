// Document serving: K independent EpochGuard<DynamicIndex> shards behind one
// facade (the shard machinery is serve/shard_core.h), so K writers proceed
// concurrently instead of serializing on one exclusive lock — the scaling
// axis the dynamic succinct graph literature (RadixGraph, Coimbra et al.)
// reaches by partitioning the structure. K = 1 is the single-core facade.
//
// Partitioning. Documents are placed round-robin and their global ids are
// minted as  global = local * K + shard,  so the stable partition function
// shard_of(id) = id % K routes every id-keyed operation to exactly one shard
// and ids never collide across shards (backends assign local ids densely
// from 0 and never reuse them).
//
// Writes. InsertBatch / EraseBatch split the batch per shard and apply the
// per-shard sub-batches in parallel on a scatter-join pool; each sub-batch
// runs under its shard's exclusive lock and bumps that shard's epoch once.
//
// Reads. Pattern queries (Count/Locate) fan out across all K shards in
// parallel, merge the per-shard answers, and report a *per-shard epoch
// vector* as the snapshot token; id-keyed queries (Extract/DocLenOf/...)
// touch one shard and report that shard's scalar epoch.
//
// Consistency model. A cross-shard batch is atomic *per shard*, not
// globally: a concurrent reader may observe shard A after a batch and shard
// B before it. The epoch vector is exactly the linearization point of that
// observation — shard s's slice of the answer is the state of shard s at
// epoch epochs[s] — which is what the differential harness keys its
// expectations on. Shards whose sub-batch is empty are skipped (their epoch
// does not move).
#ifndef DYNDEX_SERVE_SHARDED_INDEX_H_
#define DYNDEX_SERVE_SHARDED_INDEX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/occurrence.h"
#include "persist/env.h"
#include "persist/status.h"
#include "serve/dynamic_index.h"
#include "serve/persistence.h"
#include "serve/shard_core.h"
#include "text/concat_text.h"

namespace dyndex {

class ShardedIndex : public ShardCore<DynamicIndex> {
 public:
  /// K shards, each built by `shard_factory` (must be K independent
  /// instances). The pool holds K-1 workers: the calling thread always
  /// executes one shard's slice itself.
  ShardedIndex(uint32_t num_shards,
               const std::function<std::unique_ptr<DynamicIndex>()>&
                   shard_factory);

  /// Convenience: K shards of MakeDynamicIndex(backend, opt).
  ShardedIndex(uint32_t num_shards, Backend backend,
               const DynamicIndexOptions& opt = {});

  /// Stable partition function over document ids.
  uint32_t shard_of(DocId id) const {
    return static_cast<uint32_t>(id % num_shards());
  }

  // --- reader API (any thread) ---------------------------------------------

  /// Occurrences summed across shards. `epochs` (when non-null) receives the
  /// per-shard snapshot epochs the query observed.
  uint64_t Count(const std::vector<Symbol>& pattern,
                 ShardEpochs* epochs = nullptr) const;
  /// Occurrences of all shards (global doc ids), concatenated in shard
  /// order; callers needing a total order sort.
  std::vector<Occurrence> Locate(const std::vector<Symbol>& pattern,
                                 ShardEpochs* epochs = nullptr) const;
  /// False (out untouched) when the document is absent in its shard's
  /// snapshot. `epoch` reports the owning shard's epoch.
  bool Extract(DocId id, uint64_t from, uint64_t len, std::vector<Symbol>* out,
               uint64_t* epoch = nullptr) const;
  bool Contains(DocId id, uint64_t* epoch = nullptr) const;
  /// 0 for unknown ids (facade hardening semantics).
  uint64_t DocLenOf(DocId id, uint64_t* epoch = nullptr) const;
  uint64_t num_docs(ShardEpochs* epochs = nullptr) const;
  uint64_t live_symbols(ShardEpochs* epochs = nullptr) const;

  // --- writer API (any number of concurrent callers) -----------------------

  /// Splits the batch per shard (round-robin placement) and applies the
  /// sub-batches in parallel. Returns the new global ids in batch order;
  /// empty documents report kInvalidDocId.
  std::vector<DocId> InsertBatch(std::vector<std::vector<Symbol>> docs);
  /// Routes each id to its shard, erases in parallel; returns how many of
  /// `ids` were present and erased.
  uint64_t EraseBatch(const std::vector<DocId>& ids);

  /// Opens the durable directory (see serve/shard_core.h), then resumes the
  /// round-robin placement cursor.
  persist::Status OpenDurable(persist::Env* env, const std::string& dir,
                              const DurableOptions& opt = {},
                              RecoveryStats* stats = nullptr);

 private:
  /// Any read of an invalid id answers "absent" at shard 0's epoch.
  bool Invalid(DocId id, uint64_t* epoch) const;

  /// Round-robin placement cursor for new documents (balances shards while
  /// keeping id minting deterministic for a single writer).
  std::atomic<uint64_t> next_place_{0};
};

}  // namespace dyndex

#endif  // DYNDEX_SERVE_SHARDED_INDEX_H_
