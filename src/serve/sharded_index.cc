#include "serve/sharded_index.h"

#include <string>
#include <utility>

namespace dyndex {

ShardedIndex::ShardedIndex(
    uint32_t num_shards,
    const std::function<std::unique_ptr<DynamicIndex>()>& shard_factory)
    : ShardCore(num_shards, shard_factory,
                serve_persist::StateKind::kShardedIndex) {}

ShardedIndex::ShardedIndex(uint32_t num_shards, Backend backend,
                           const DynamicIndexOptions& opt)
    : ShardedIndex(num_shards,
                   [&] { return MakeDynamicIndex(backend, opt); }) {}

uint64_t ShardedIndex::Count(const std::vector<Symbol>& pattern,
                             ShardEpochs* epochs) const {
  return shard_internal::SumOf(FanOutRead<uint64_t>(
      epochs, [&](uint32_t, const DynamicIndex& idx) {
        return idx.Count(pattern);
      }));
}

std::vector<Occurrence> ShardedIndex::Locate(
    const std::vector<Symbol>& pattern, ShardEpochs* epochs) const {
  const uint32_t k = num_shards();
  return shard_internal::Flatten(FanOutRead<std::vector<Occurrence>>(
      epochs, [&](uint32_t s, const DynamicIndex& idx) {
        std::vector<Occurrence> occs = idx.Locate(pattern);
        // Shard-local ids -> global ids.
        for (Occurrence& occ : occs) occ.doc = occ.doc * k + s;
        return occs;
      }));
}

bool ShardedIndex::Invalid(DocId id, uint64_t* epoch) const {
  if (id != kInvalidDocId) return false;
  if (epoch != nullptr) *epoch = epochs()[0];
  return true;
}

bool ShardedIndex::Extract(DocId id, uint64_t from, uint64_t len,
                           std::vector<Symbol>* out, uint64_t* epoch) const {
  if (Invalid(id, epoch)) return false;
  const DocId local = id / num_shards();
  // Buffer into the lambda's return value, never into *out directly: a
  // discarded optimistic attempt re-runs the lambda, and the contract is
  // that *out stays untouched on false (and on any abandoned attempt).
  auto result = ReadShard(
      shard_of(id), epoch,
      [&](const DynamicIndex& idx) -> std::pair<bool, std::vector<Symbol>> {
        if (!idx.Contains(local)) return {false, {}};
        return {true, idx.Extract(local, from, len)};
      });
  if (!result.first) return false;
  *out = std::move(result.second);
  return true;
}

bool ShardedIndex::Contains(DocId id, uint64_t* epoch) const {
  if (Invalid(id, epoch)) return false;
  const DocId local = id / num_shards();
  return ReadShard(shard_of(id), epoch, [&](const DynamicIndex& idx) {
    return idx.Contains(local);
  });
}

uint64_t ShardedIndex::DocLenOf(DocId id, uint64_t* epoch) const {
  if (Invalid(id, epoch)) return 0;
  const DocId local = id / num_shards();
  return ReadShard(shard_of(id), epoch, [&](const DynamicIndex& idx) {
    return idx.DocLenOf(local);
  });
}

uint64_t ShardedIndex::num_docs(ShardEpochs* epochs) const {
  return shard_internal::SumOf(FanOutRead<uint64_t>(
      epochs,
      [](uint32_t, const DynamicIndex& idx) { return idx.num_docs(); }));
}

uint64_t ShardedIndex::live_symbols(ShardEpochs* epochs) const {
  return shard_internal::SumOf(FanOutRead<uint64_t>(
      epochs,
      [](uint32_t, const DynamicIndex& idx) { return idx.live_symbols(); }));
}

std::vector<DocId> ShardedIndex::InsertBatch(
    std::vector<std::vector<Symbol>> docs) {
  const uint32_t k = num_shards();
  std::vector<DocId> out(docs.size(), kInvalidDocId);
  if (docs.empty()) return out;
  // Round-robin placement from a shared cursor: deterministic for a single
  // writer, balanced under concurrent writers.
  const uint64_t start =
      next_place_.fetch_add(docs.size(), std::memory_order_relaxed);
  std::vector<std::vector<std::vector<Symbol>>> sub(k);
  std::vector<std::vector<uint64_t>> positions(k);
  for (uint64_t i = 0; i < docs.size(); ++i) {
    const uint32_t s = static_cast<uint32_t>((start + i) % k);
    sub[s].push_back(std::move(docs[i]));
    positions[s].push_back(i);
  }
  // One virtual call per shard: cold-start backends with a bulk constructor
  // load the sub-batch in one pass instead of one insertion per document.
  std::vector<std::vector<DocId>> local = WriteShards<std::vector<DocId>>(
      sub, serve_persist::EncodeInsertBatch,
      [](DynamicIndex& idx, std::vector<std::vector<Symbol>>& batch) {
        return idx.InsertBulk(std::move(batch));
      });
  for (uint32_t s = 0; s < k; ++s) {
    for (uint64_t j = 0; j < local[s].size(); ++j) {
      out[positions[s][j]] =
          local[s][j] == kInvalidDocId ? kInvalidDocId : local[s][j] * k + s;
    }
  }
  return out;
}

uint64_t ShardedIndex::EraseBatch(const std::vector<DocId>& ids) {
  const uint32_t k = num_shards();
  std::vector<std::vector<DocId>> sub(k);
  for (DocId id : ids) {
    if (id == kInvalidDocId) continue;
    sub[shard_of(id)].push_back(id / k);
  }
  return shard_internal::SumOf(WriteShards<uint64_t>(
      sub, serve_persist::EncodeEraseBatch,
      [](DynamicIndex& idx, std::vector<DocId>& batch) {
        uint64_t n = 0;
        for (DocId local : batch) n += idx.Erase(local);
        return n;
      }));
}

persist::Status ShardedIndex::OpenDurable(persist::Env* env,
                                          const std::string& dir,
                                          const DurableOptions& opt,
                                          RecoveryStats* stats) {
  DYNDEX_RETURN_IF_ERROR(ShardCore::OpenDurable(env, dir, opt, stats));
  // Placement cursor: balance-only (ids are minted by the shards), so any
  // reasonable restart point works; total live docs keeps round-robin fair.
  next_place_.store(num_docs(), std::memory_order_relaxed);
  return persist::Status::Ok();
}

}  // namespace dyndex
