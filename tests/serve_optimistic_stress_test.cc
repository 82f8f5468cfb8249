// High-contention stress and deterministic protocol tests for the optimistic
// seqlock read path of EpochGuard (serve/epoch_guard.h).
//
// The stress scenarios run a toy backend whose state is published through
// SeqBox (util/seq_hash_map.h) — the same single-pointer immutable-snapshot
// discipline the real backends use — so every Read() result must be
// internally consistent no matter how the seqlock interleaves with the
// writer: validated optimistic reads saw a quiescent window, locked reads
// hold the shared lock, and torn attempts are discarded. The deterministic
// tests drive the retry, fallback, and reclamation machinery through the
// injectable read-interlope hook and the retry budget (max_attempts),
// including the budget-0 locked baseline.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "gen/text_gen.h"
#include "serve/concurrent_index.h"
#include "serve/dynamic_index.h"
#include "serve/epoch_guard.h"
#include "text/fm_index.h"
#include "util/rng.h"
#include "util/seq_hash_map.h"
#include "util/seq_vector.h"

namespace dyndex {
namespace {

// --- toy backend ------------------------------------------------------------

/// State readers traverse with no lock: a SeqBox-published vector where every
/// entry equals the write generation, plus growth to force snapshot churn.
struct ToyBackend {
  SeqBox<std::vector<uint64_t>> data;
  uint64_t writes = 0;
};

struct ToySample {
  uint64_t len = 0;
  uint64_t first = 0;
  uint64_t sum = 0;
};

ToySample ReadToy(const ToyBackend& b) {
  ToySample out;
  if (const std::vector<uint64_t>* v = b.data.Load()) {
    out.len = v->size();
    if (!v->empty()) out.first = (*v)[0];
    for (uint64_t x : *v) out.sum += x;
  }
  return out;
}

/// One write generation: every entry becomes `gen`, and every few generations
/// the vector grows (Store retires the previous snapshot — reclamation load).
void WriteToy(ToyBackend& b, uint64_t gen) {
  std::vector<uint64_t> next = b.data.Copy();
  if (next.empty() || gen % 4 == 0) next.push_back(0);
  for (uint64_t& x : next) x = gen;
  b.data.Store(std::move(next));
  ++b.writes;
}

// --- high-contention stress -------------------------------------------------

/// N readers hammer the toy backend while a writer churns generations.
/// Asserts: (a) every Read() result is internally consistent (all entries
/// equal => sum == len * first), (b) the outcome counters account for every
/// read, (c) reclamation drains once quiesced.
void RunToyStress(uint32_t max_attempts, int readers, uint64_t writes,
                  uint64_t seed) {
  EpochGuard<ToyBackend> guard(std::make_unique<ToyBackend>());
  OptimisticPolicy policy;
  policy.max_attempts = max_attempts;
  guard.set_optimistic_policy(policy);

  std::atomic<bool> done{false};
  std::atomic<int> started{0};
  std::atomic<uint64_t> total_reads{0};
  std::atomic<uint64_t> inconsistent{0};
  std::vector<std::thread> pool;
  for (int r = 0; r < readers; ++r) {
    pool.emplace_back([&, r] {
      Rng rng(seed * 977 + static_cast<uint64_t>(r));
      uint64_t n = 0;
      do {
        uint64_t epoch = 0;
        ToySample s = guard.Read(
            &epoch, [](const ToyBackend& b) { return ReadToy(b); });
        if (s.sum != s.len * s.first) {
          inconsistent.fetch_add(1, std::memory_order_relaxed);
        }
        if (n++ == 0) started.fetch_add(1, std::memory_order_release);
        if (rng.Below(64) == 0) std::this_thread::yield();
      } while (!done.load(std::memory_order_acquire));
      total_reads.fetch_add(n, std::memory_order_relaxed);
    });
  }
  // Start latch: every reader completes one Read() before the writer
  // begins, so a writer that outruns thread start-up cannot leave the
  // readers nothing to do.
  while (started.load(std::memory_order_acquire) < readers) {
    std::this_thread::yield();
  }
  for (uint64_t g = 1; g <= writes; ++g) {
    guard.Write([g](ToyBackend& b) { WriteToy(b, g); });
    if (g % 16 == 0) std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : pool) t.join();

  EXPECT_EQ(inconsistent.load(), 0u);
  EXPECT_GT(total_reads.load(), 0u);
  const OptimisticStats stats = guard.optimistic_stats();
  // Every Read() ends exactly one way: validated lock-free or served under
  // the shared lock (fallback, budget 0, or slot exhaustion).
  EXPECT_EQ(stats.validated + stats.locked_reads, total_reads.load());
  if (max_attempts == 0) {
    EXPECT_EQ(stats.attempts, 0u);
    EXPECT_EQ(stats.locked_reads, total_reads.load());
  } else {
    EXPECT_GT(stats.attempts, 0u);
  }
  guard.Read(nullptr, [&](const ToyBackend& b) {
    EXPECT_EQ(b.writes, writes);
    return 0;
  });
  // Quiesced: every parked snapshot's grace period is closed.
  guard.ReclaimRetired();
  EXPECT_EQ(guard.retired_pending(), 0u);
}

TEST(ServeOptimisticStress, HighContentionValidatedReaders) {
  RunToyStress(/*max_attempts=*/3, /*readers=*/4, /*writes=*/4000,
               /*seed=*/42);
}

TEST(ServeOptimisticStress, HighContentionTinyBudget) {
  // max_attempts=1: any validation failure falls straight back to the lock,
  // so the fallback path runs hot under the same consistency assertions.
  RunToyStress(/*max_attempts=*/1, /*readers=*/4, /*writes=*/4000,
               /*seed=*/1337);
}

TEST(ServeOptimisticStress, HighContentionLockedBaseline) {
  RunToyStress(/*max_attempts=*/0, /*readers=*/4, /*writes=*/2000,
               /*seed=*/7);
}

// --- deterministic retry / fallback ----------------------------------------

TEST(ServeOptimisticStress, InterlopedWriteForcesRetryThenFallback) {
  EpochGuard<ToyBackend> guard(std::make_unique<ToyBackend>());
  guard.Write([](ToyBackend& b) { WriteToy(b, 1); });
  OptimisticPolicy policy;
  policy.max_attempts = 2;
  guard.set_optimistic_policy(policy);
  // The hook runs after each optimistic attempt, before validation; a
  // Maintain() there moves the sequence, so every attempt must be discarded
  // and the read must exhaust its budget and take the lock.
  guard.set_read_interlope([&] { guard.Maintain([](ToyBackend&) {}); });
  const OptimisticStats before = guard.optimistic_stats();
  ToySample s =
      guard.Read(nullptr, [](const ToyBackend& b) { return ReadToy(b); });
  guard.set_read_interlope(nullptr);
  EXPECT_EQ(s.sum, s.len * s.first);
  const OptimisticStats after = guard.optimistic_stats();
  EXPECT_EQ(after.attempts - before.attempts, 2u);
  EXPECT_EQ(after.retries - before.retries, 2u);
  EXPECT_EQ(after.validated - before.validated, 0u);
  EXPECT_EQ(after.fallbacks - before.fallbacks, 1u);
  EXPECT_EQ(after.locked_reads - before.locked_reads, 1u);
}

TEST(ServeOptimisticStress, ZeroBudgetNeverAttempts) {
  EpochGuard<ToyBackend> guard(std::make_unique<ToyBackend>());
  OptimisticPolicy policy;
  policy.max_attempts = 0;
  guard.set_optimistic_policy(policy);
  for (int i = 0; i < 8; ++i) {
    guard.Read(nullptr, [](const ToyBackend& b) { return ReadToy(b); });
  }
  const OptimisticStats stats = guard.optimistic_stats();
  EXPECT_EQ(stats.attempts, 0u);
  EXPECT_EQ(stats.validated, 0u);
  EXPECT_EQ(stats.locked_reads, 8u);
}

// --- deterministic reclamation ----------------------------------------------

struct DtorFlag {
  explicit DtorFlag(bool* flag) : flag_(flag) {}
  DtorFlag(DtorFlag&& o) noexcept : flag_(o.flag_) { o.flag_ = nullptr; }
  DtorFlag& operator=(DtorFlag&&) = delete;
  ~DtorFlag() {
    if (flag_ != nullptr) *flag_ = true;
  }
  bool* flag_;
};

TEST(ServeOptimisticStress, ReclamationWaitsForInFlightReader) {
  EpochGuard<ToyBackend> guard(std::make_unique<ToyBackend>());
  OptimisticPolicy policy;
  policy.max_attempts = 1;
  guard.set_optimistic_policy(policy);
  bool destroyed = false;
  uint64_t pending_during_read = 0;
  // The hook fires while this reader's slot still publishes the pre-write
  // sequence, so the write's retired batch must survive the drain at the end
  // of the exclusive section: the reader could still be traversing it.
  guard.set_read_interlope([&] {
    guard.Write([&](ToyBackend&) { Retire(DtorFlag(&destroyed)); });
    pending_during_read = guard.retired_pending();
  });
  guard.Read(nullptr, [](const ToyBackend& b) { return ReadToy(b); });
  guard.set_read_interlope(nullptr);
  EXPECT_GE(pending_during_read, 1u);
  EXPECT_FALSE(destroyed);  // grace period still open at park time
  // Reader finished (slot released): the grace period is closed.
  guard.ReclaimRetired();
  EXPECT_TRUE(destroyed);
  EXPECT_EQ(guard.retired_pending(), 0u);
}

TEST(ServeOptimisticStress, RetireWithNoReaderFreesAtSectionEnd) {
  EpochGuard<ToyBackend> guard(std::make_unique<ToyBackend>());
  bool destroyed = false;
  guard.Write([&](ToyBackend&) { Retire(DtorFlag(&destroyed)); });
  // No reader slot was active, so the end-of-section drain freed the batch.
  EXPECT_TRUE(destroyed);
  EXPECT_EQ(guard.retired_pending(), 0u);
}

// --- full stack under a tiny retry budget ------------------------------------

/// Immortal-document extraction against ConcurrentIndex while a writer churns
/// batches, with max_attempts=1 so validation failures exercise the fallback
/// path through the whole T2 backend stack.
TEST(ServeOptimisticStress, IndexChurnTinyBudget) {
  constexpr uint32_t kSigma = 4;
  constexpr uint32_t kNumImmortal = 4;
  Rng rng(2024);
  std::vector<std::vector<Symbol>> immortal;
  for (uint32_t i = 0; i < kNumImmortal; ++i) {
    immortal.push_back(UniformText(rng, rng.Range(8, 40), kSigma));
  }
  DynamicIndexOptions opt;
  opt.min_c0 = 64;
  opt.mode = RebuildMode::kThreaded;
  ConcurrentIndex index(MakeDynamicIndex(Backend::kT2, opt));
  OptimisticPolicy policy;
  policy.max_attempts = 1;
  index.set_optimistic_policy(policy);
  index.InsertBatch(immortal);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> pool;
  for (int r = 0; r < 4; ++r) {
    pool.emplace_back([&, r] {
      Rng rd(5000 + static_cast<uint64_t>(r));
      while (!done.load(std::memory_order_acquire)) {
        DocId id = rd.Below(kNumImmortal);
        std::vector<Symbol> got;
        uint64_t epoch = 0;
        bool present =
            index.Extract(id, 0, immortal[id].size(), &got, &epoch);
        if (!present || got != immortal[id]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  Rng wr(6000);
  std::vector<DocId> churn;
  for (int b = 0; b < 60; ++b) {
    std::vector<DocId> ids = index.InsertBatch(
        {UniformText(wr, wr.Range(10, 120), kSigma)});
    churn.insert(churn.end(), ids.begin(), ids.end());
    if (churn.size() > 8) {
      std::vector<DocId> victims(churn.begin(), churn.begin() + 4);
      churn.erase(churn.begin(), churn.begin() + 4);
      index.EraseBatch(victims);
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& t : pool) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  const OptimisticStats stats = index.optimistic_stats();
  EXPECT_GT(stats.attempts, 0u);
  index.Flush();
  index.unsynchronized().CheckInvariants();
}

// --- SeqVector views under growth --------------------------------------------

/// A vector readers walk lock-free while every write rebuilds it from empty:
/// 64 push_backs reallocate it seven times inside each exclusive section.
/// Entry i always holds i, so a view is self-consistent exactly when every
/// entry below its length equals its index. Each read attempt takes many
/// views back to back so that its views overlap the writer's reallocations;
/// an inconsistent view counts even inside an attempt validation later
/// discards, because a view that pairs one block's data with another's
/// length has already walked memory it does not own.
TEST(ServeOptimisticStress, SeqVectorViewsStaySelfConsistentUnderGrowth) {
  struct GrowingBackend {
    SeqVector<uint64_t> v;
  };
  EpochGuard<GrowingBackend> guard(std::make_unique<GrowingBackend>());
  OptimisticPolicy policy;
  policy.max_attempts = 3;
  guard.set_optimistic_policy(policy);
  auto rebuild = [](GrowingBackend& b) {
    b.v = SeqVector<uint64_t>();
    for (uint64_t i = 0; i < 64; ++i) b.v.push_back(i);
  };
  guard.Write(rebuild);

  std::atomic<bool> done{false};
  std::atomic<int> started{0};
  std::atomic<uint64_t> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      bool first = true;
      do {
        guard.Read(nullptr, [&](const GrowingBackend& b) {
          for (int k = 0; k < 64; ++k) {
            const auto view = b.v.view();
            uint64_t bad = view.size() > 64;
            for (uint64_t i = 0; i < view.size() && bad == 0; ++i) {
              bad = view[i] != i;
            }
            if (bad != 0) torn.fetch_add(1, std::memory_order_relaxed);
          }
          return 0;
        });
        if (first) started.fetch_add(1, std::memory_order_release);
        first = false;
      } while (!done.load(std::memory_order_acquire));
    });
  }
  while (started.load(std::memory_order_acquire) < 2) {
    std::this_thread::yield();
  }
  for (int w = 0; w < 20000; ++w) guard.Write(rebuild);
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0u);
  guard.Read(nullptr, [](const GrowingBackend& b) {
    EXPECT_EQ(b.v.size(), 64u);
    return 0;
  });
  guard.ReclaimRetired();
  EXPECT_EQ(guard.retired_pending(), 0u);
}

// --- top-list growth under lock-free readers ---------------------------------

/// Transformation 2's top list grows one push_back at a time while readers
/// walk it lock-free: with tau = 64 every document of n_f/64 symbols or more
/// is its own top collection, so each insert appends a top and every
/// doubling of the list reallocates it under the readers. A reader that took
/// the list's start and length from two different buffers would walk off
/// the old one (a crash, not a failed validation). The documents are one
/// symbol repeated, so the count of that symbol is the live symbol total and
/// every answer is checked against the epoch it reports.
TEST(ServeOptimisticStress, TopListGrowthUnderOptimisticCounts) {
  constexpr uint64_t kBaseSymbols = 1 << 14;
  constexpr uint64_t kTopSymbols = 300;  // >= n_f / tau, above C0's room
  constexpr int kTopsPerRound = 50;      // stays below the 2 n_f rebase
  const std::vector<Symbol> pattern = {kMinSymbol};
  std::atomic<uint64_t> mismatches{0};
  uint64_t attempts = 0;
  for (int round = 0; round < 48; ++round) {
    DynamicIndexOptions opt;
    opt.min_c0 = 64;
    opt.tau = 64;
    ConcurrentIndex index(MakeDynamicIndex(Backend::kT2, opt));
    OptimisticPolicy policy;
    policy.max_attempts = 3;
    index.set_optimistic_policy(policy);
    // Epoch 1: the cold base, one top; n_f becomes its size.
    std::vector<std::vector<Symbol>> base(
        kBaseSymbols / 512, std::vector<Symbol>(512, kMinSymbol));
    index.InsertBatch(base);

    std::atomic<bool> done{false};
    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) {
      readers.emplace_back([&] {
        while (!done.load(std::memory_order_acquire)) {
          uint64_t epoch = 0;
          const uint64_t c = index.Count(pattern, &epoch);
          if (c != kBaseSymbols + (epoch - 1) * kTopSymbols) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (int t = 0; t < kTopsPerRound; ++t) {
      index.InsertBatch({std::vector<Symbol>(kTopSymbols, kMinSymbol)});
    }
    done.store(true, std::memory_order_release);
    for (auto& t : readers) t.join();
    attempts += index.optimistic_stats().attempts;
    const auto& t2 =
        dynamic_cast<CollectionIndex<DynamicCollectionT2<FmIndex>>&>(
            index.unsynchronized())
            .collection();
    EXPECT_EQ(t2.num_tops(), 1u + kTopsPerRound);  // one top per insert
    index.unsynchronized().CheckInvariants();
  }
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(attempts, 0u);
}

// --- starvation regression under a continuous writer -------------------------

/// The PR-7 regression: a writer looping batches back-to-back must not
/// starve the validated lock-free read path. With write pacing enabled
/// (unconditional mode: every admission waits out a 2 ms even window) the
/// validated count has to keep accruing in every measurement window while
/// the writer demonstrably keeps making progress — and the writer must
/// actually have been paced. Runs under TSan via the concurrency label
/// (lock-assisted attempts there still validate and count).
TEST(ServeOptimisticStress, PacedWriterNeverStarvesValidatedReaders) {
  constexpr uint32_t kSigma = 4;
  constexpr int kReaders = 2;
  Rng rng(909);
  DynamicIndexOptions opt;
  opt.min_c0 = 64;
  opt.mode = RebuildMode::kThreaded;
  ConcurrentIndex index(MakeDynamicIndex(Backend::kT2, opt));
  std::vector<std::vector<Symbol>> docs;
  for (int i = 0; i < 8; ++i) {
    docs.push_back(UniformText(rng, rng.Range(16, 64), kSigma));
  }
  index.InsertBatch(docs);
  OptimisticPolicy policy;
  policy.max_attempts = 3;
  index.set_optimistic_policy(policy);
  PacingPolicy pacing;
  pacing.min_even_window_us = 2000;
  pacing.max_delay_us = 2000;
  pacing.stall_threshold = 0;
  index.set_pacing_policy(pacing);

  std::atomic<bool> done{false};
  std::atomic<int> started{0};
  std::atomic<uint64_t> batches{0};
  std::thread writer([&] {
    // Start latch: both readers have completed a Count before the first
    // batch, so window 0 measures the paced writer, not thread start-up.
    while (started.load(std::memory_order_acquire) < kReaders) {
      std::this_thread::yield();
    }
    Rng wr(910);
    std::vector<DocId> churn;
    while (!done.load(std::memory_order_acquire)) {
      std::vector<DocId> ids =
          index.InsertBatch({UniformText(wr, wr.Range(16, 64), kSigma)});
      churn.insert(churn.end(), ids.begin(), ids.end());
      if (churn.size() > 8) {
        std::vector<DocId> victims(churn.begin(), churn.begin() + 4);
        churn.erase(churn.begin(), churn.begin() + 4);
        index.EraseBatch(victims);
      }
      batches.fetch_add(1, std::memory_order_release);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rd(920 + static_cast<uint64_t>(r));
      std::vector<Symbol> pattern(2);
      bool first = true;
      while (!done.load(std::memory_order_acquire)) {
        pattern[0] = static_cast<Symbol>(rd.Below(kSigma));
        pattern[1] = static_cast<Symbol>(rd.Below(kSigma));
        uint64_t c = index.Count(pattern);
        (void)c;
        if (first) started.fetch_add(1, std::memory_order_release);
        first = false;
      }
    });
  }
  // Four measurement windows, each scoped by writer progress (>= 3 more
  // batches) *and* reader progress (more optimistic attempts started than
  // there are readers) rather than wall clock, so the assertion is exactly
  // "while the writer loops continuously, readers that get to run keep
  // validating lock-free". A reader the host deschedules loses at most the
  // attempt it was in, so a descheduled pair cannot read as starved. A
  // reader the writer starves at capture starts no attempt, and the deadline
  // turns that into a loud failure.
  for (int window = 0; window < 4; ++window) {
    const OptimisticStats s0 = index.optimistic_stats();
    const uint64_t b0 = batches.load(std::memory_order_acquire);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (batches.load(std::memory_order_acquire) < b0 + 3 ||
           index.optimistic_stats().attempts - s0.attempts <= kReaders) {
      if (std::chrono::steady_clock::now() > deadline) {
        ADD_FAILURE() << "window " << window << " never ended: "
                      << batches.load(std::memory_order_acquire) - b0
                      << " batches, "
                      << index.optimistic_stats().attempts - s0.attempts
                      << " optimistic attempts in 60 s";
        break;
      }
      std::this_thread::yield();
    }
    const OptimisticStats s1 = index.optimistic_stats();
    EXPECT_GT(s1.validated, s0.validated)
        << "no validated lock-free read in window " << window << ": "
        << s1.attempts - s0.attempts << " attempts, "
        << s1.retries - s0.retries << " retries, "
        << s1.capture_exhausted - s0.capture_exhausted
        << " capture-exhausted, " << s1.locked_reads - s0.locked_reads
        << " locked reads, " << batches.load() - b0 << " batches";
  }
  done.store(true, std::memory_order_release);
  writer.join();
  for (auto& t : readers) t.join();
  const OptimisticStats stats = index.optimistic_stats();
  EXPECT_GE(stats.validated, 64u);  // the floor: readers ran lock-free
  EXPECT_GT(index.pacing_stats().waits, 0u);  // the writer really was paced
  index.Flush();
  index.unsynchronized().CheckInvariants();
}

}  // namespace
}  // namespace dyndex
