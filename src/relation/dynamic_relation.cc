#include "relation/dynamic_relation.h"

#include <algorithm>
#include <cmath>

#include "util/bits.h"
#include "util/check.h"

namespace dyndex {

DynamicRelation::DynamicRelation(const DynamicRelationOptions& opt)
    : opt_(opt) {}

uint32_t DynamicRelation::Tau() const {
  if (opt_.tau != 0) return opt_.tau;
  // tau = Theta(log log n), the paper's choice for Theorem 2.
  uint32_t logn = BitWidth(std::max<uint64_t>(num_pairs_, 16));
  uint32_t t = BitWidth(logn);
  return t < 3 ? 3 : t;
}

uint64_t DynamicRelation::MaxSize(uint32_t level) const {
  double logn = std::max(
      2.0, std::log2(static_cast<double>(std::max<uint64_t>(nf_, 4))));
  double max0 = std::max(static_cast<double>(opt_.min_c0),
                         2.0 * static_cast<double>(nf_) / (logn * logn));
  double ratio = std::max(2.0, std::pow(logn, opt_.epsilon));
  double v = max0 * std::pow(ratio, level);
  return v > 1e18 ? ~0ull : static_cast<uint64_t>(v);
}

uint32_t DynamicRelation::InternObject(uint32_t object) {
  if (const uint32_t* found = obj_slot_.Find(object)) return *found;
  uint32_t slot;
  if (!free_obj_slots_.empty()) {
    slot = free_obj_slots_.back();
    free_obj_slots_.pop_back();
    slot_obj_[slot] = object;
    obj_pair_count_[slot] = 0;
  } else {
    slot = static_cast<uint32_t>(slot_obj_.size());
    slot_obj_.push_back(object);
    obj_pair_count_.push_back(0);
  }
  obj_slot_[object] = slot;
  return slot;
}

uint32_t DynamicRelation::InternLabel(uint32_t label) {
  if (const uint32_t* found = label_slot_.Find(label)) return *found;
  uint32_t slot;
  if (!free_label_slots_.empty()) {
    slot = free_label_slots_.back();
    free_label_slots_.pop_back();
    slot_label_[slot] = label;
    label_pair_count_[slot] = 0;
  } else {
    slot = static_cast<uint32_t>(slot_label_.size());
    slot_label_.push_back(label);
    label_pair_count_.push_back(0);
  }
  label_slot_[label] = slot;
  return slot;
}

void DynamicRelation::ReleaseObject(uint32_t slot) {
  obj_slot_.Erase(slot_obj_[slot]);
  free_obj_slots_.push_back(slot);
}

void DynamicRelation::ReleaseLabel(uint32_t slot) {
  label_slot_.Erase(slot_label_[slot]);
  free_label_slots_.push_back(slot);
}

// C0 adjacency lists are copy-on-write: in-flight optimistic readers iterate
// the published snapshot, so inserts/removals build a new list and Store() it
// (the old one is parked for the grace period). Amortized cost stays within
// the schedule: C0 holds at most MaxSize(0) pairs before a merge drains it.
void DynamicRelation::C0Add(uint32_t os, uint32_t ls) {
  C0List& by_obj = c0_by_object_[os];
  std::vector<uint32_t> labels = by_obj.Copy();
  labels.push_back(ls);
  by_obj.Store(std::move(labels));
  C0List& by_label = c0_by_label_[ls];
  std::vector<uint32_t> objects = by_label.Copy();
  objects.push_back(os);
  by_label.Store(std::move(objects));
  c0_pairs_set_.insert(Key(os, ls));
  ++c0_pairs_;
}

bool DynamicRelation::C0Remove(uint32_t os, uint32_t ls) {
  if (c0_pairs_set_.erase(Key(os, ls)) == 0) return false;
  auto drop = [](std::vector<uint32_t>& v, uint32_t x) {
    auto it = std::find(v.begin(), v.end(), x);
    DYNDEX_CHECK(it != v.end());
    *it = v.back();
    v.pop_back();
  };
  C0List* by_obj = c0_by_object_.Find(os);
  std::vector<uint32_t> labels = by_obj->Copy();
  drop(labels, ls);
  if (labels.empty()) {
    c0_by_object_.Erase(os);
  } else {
    by_obj->Store(std::move(labels));
  }
  C0List* by_label = c0_by_label_.Find(ls);
  std::vector<uint32_t> objects = by_label->Copy();
  drop(objects, os);
  if (objects.empty()) {
    c0_by_label_.Erase(ls);
  } else {
    by_label->Store(std::move(objects));
  }
  --c0_pairs_;
  return true;
}

bool DynamicRelation::Related(uint32_t object, uint32_t label) const {
  const uint32_t* oi = obj_slot_.Find(object);
  const uint32_t* li = label_slot_.Find(label);
  if (oi == nullptr || li == nullptr) return false;
  uint32_t os = *oi, ls = *li;
  if (C0Related(os, ls)) return true;
  // One load per sub: a concurrent writer nulls retired slots in place, so
  // the pointer must not be re-read mid-traversal (see ForEachLabelOfObject).
  for (const auto& sub_ptr : subs_.view()) {
    const Sub* sub = sub_ptr.get();
    if (sub == nullptr) continue;
    uint32_t lo, la;
    if (!sub->LocalObject(os, &lo) || !sub->LocalLabel(ls, &la)) continue;
    if (sub->rel.Related(lo, la)) return true;
  }
  return false;
}

bool DynamicRelation::AddPair(uint32_t object, uint32_t label) {
  if (Related(object, label)) return false;
  uint32_t os = InternObject(object);
  uint32_t ls = InternLabel(label);
  ++obj_pair_count_[os];
  ++label_pair_count_[ls];
  ++num_pairs_;
  if (nf_ == 0) nf_ = std::max<uint64_t>(num_pairs_, opt_.min_c0);
  if (num_pairs_ < 2 * nf_ && c0_pairs_ + 1 <= MaxSize(0)) {
    C0Add(os, ls);  // hot path: no batch vector
    return true;
  }
  PlaceFresh({{os, ls}});
  return true;
}

uint64_t DynamicRelation::AddPairsBulk(
    const std::vector<std::pair<uint32_t, uint32_t>>& ps) {
  std::vector<Pair> fresh;
  fresh.reserve(ps.size());
  std::unordered_set<uint64_t> batch_seen;
  batch_seen.reserve(ps.size());
  for (auto [object, label] : ps) {
    if (!batch_seen.insert(PairKey(object, label)).second) {
      continue;  // duplicate within the batch
    }
    if (Related(object, label)) continue;          // already present
    fresh.push_back({InternObject(object), InternLabel(label)});
  }
  if (fresh.empty()) return 0;
  for (const Pair& p : fresh) {
    ++obj_pair_count_[p.object];
    ++label_pair_count_[p.label];
  }
  num_pairs_ += fresh.size();
  if (nf_ == 0) nf_ = std::max<uint64_t>(num_pairs_, opt_.min_c0);
  uint64_t added = fresh.size();
  PlaceFresh(std::move(fresh));
  return added;
}

// Routes new pairs per the Transformation-1 schedule. A batch that fits C0
// lands there pairwise; anything larger triggers exactly one merge into the
// smallest level whose capacity holds the prefix — so a cold-start bulk load
// costs one BuildSub over the whole batch instead of |batch| C0 inserts
// cascading through merge after merge.
void DynamicRelation::PlaceFresh(std::vector<Pair> fresh) {
  if (num_pairs_ >= 2 * nf_) {
    for (const Pair& p : fresh) C0Add(p.object, p.label);
    GlobalRebase();
    return;
  }
  if (c0_pairs_ + fresh.size() <= MaxSize(0)) {
    for (const Pair& p : fresh) C0Add(p.object, p.label);
    return;
  }
  // Merge cascade: smallest level j with the prefix fitting below max_j.
  uint64_t prefix = c0_pairs_ + fresh.size();
  for (uint32_t j = 0;; ++j) {
    if (j < subs_.size() && subs_[j] != nullptr) {
      prefix += subs_[j]->rel.live_pairs();
    }
    if (prefix <= MaxSize(j + 1)) {
      MergeThrough(j, std::move(fresh));
      return;
    }
    DYNDEX_CHECK(j <= subs_.size() + 64);
  }
}

bool DynamicRelation::RemovePair(uint32_t object, uint32_t label) {
  const uint32_t* oi = obj_slot_.Find(object);
  const uint32_t* li = label_slot_.Find(label);
  if (oi == nullptr || li == nullptr) return false;
  uint32_t os = *oi, ls = *li;
  bool removed = C0Remove(os, ls);
  if (!removed) {
    for (uint32_t j = 0; j < subs_.size() && !removed; ++j) {
      if (subs_[j] == nullptr) continue;
      uint32_t lo, la;
      if (!subs_[j]->LocalObject(os, &lo) || !subs_[j]->LocalLabel(ls, &la)) {
        continue;
      }
      if (subs_[j]->rel.DeletePair(lo, la)) {
        removed = true;
        PurgeIfNeeded(j);
      }
    }
  }
  if (!removed) return false;
  --num_pairs_;
  if (--obj_pair_count_[os] == 0) ReleaseObject(os);
  if (--label_pair_count_[ls] == 0) ReleaseLabel(ls);
  if (nf_ > 2 * opt_.min_c0 && num_pairs_ * 2 <= nf_) GlobalRebase();
  return true;
}

uint64_t DynamicRelation::CountLabelsOf(uint32_t object) const {
  const uint32_t* slot = obj_slot_.Find(object);
  if (slot == nullptr) return 0;
  uint32_t os = *slot;
  uint64_t count = 0;
  if (const C0List* box = c0_by_object_.Find(os)) {
    if (const std::vector<uint32_t>* adj = box->Load()) count += adj->size();
  }
  for (const auto& sub_ptr : subs_.view()) {
    const Sub* sub = sub_ptr.get();
    if (sub == nullptr) continue;
    uint32_t lo;
    if (sub->LocalObject(os, &lo)) count += sub->rel.CountLabelsOf(lo);
  }
  return count;
}

uint64_t DynamicRelation::CountObjectsOf(uint32_t label) const {
  const uint32_t* slot = label_slot_.Find(label);
  if (slot == nullptr) return 0;
  uint32_t ls = *slot;
  uint64_t count = 0;
  if (const C0List* box = c0_by_label_.Find(ls)) {
    if (const std::vector<uint32_t>* adj = box->Load()) count += adj->size();
  }
  for (const auto& sub_ptr : subs_.view()) {
    const Sub* sub = sub_ptr.get();
    if (sub == nullptr) continue;
    uint32_t la;
    if (sub->LocalLabel(ls, &la)) count += sub->rel.CountObjectsOf(la);
  }
  return count;
}

uint32_t DynamicRelation::num_subcollections() const {
  uint32_t n = 0;
  for (const auto& s : subs_.view()) n += s.get() != nullptr;
  return n;
}

std::unique_ptr<DynamicRelation::Sub> DynamicRelation::BuildSub(
    const std::vector<Pair>& slot_pairs) const {
  auto sub = std::make_unique<Sub>();
  // Effective alphabets: presence bitmaps over global slot space.
  uint32_t max_obj = 0, max_label = 0;
  for (const Pair& p : slot_pairs) {
    max_obj = std::max(max_obj, p.object + 1);
    max_label = std::max(max_label, p.label + 1);
  }
  BitVector ob(max_obj), lb(max_label);
  for (const Pair& p : slot_pairs) {
    ob.Set(p.object, true);
    lb.Set(p.label, true);
  }
  sub->objects.Build(std::move(ob));
  sub->labels.Build(std::move(lb));
  std::vector<Pair> local;
  local.reserve(slot_pairs.size());
  for (const Pair& p : slot_pairs) {
    local.push_back({static_cast<uint32_t>(sub->objects.Rank1(p.object)),
                     static_cast<uint32_t>(sub->labels.Rank1(p.label))});
  }
  sub->rel = DeletionOnlyRelation(
      std::move(local), static_cast<uint32_t>(sub->objects.ones()),
      static_cast<uint32_t>(sub->labels.ones()));
  return sub;
}

void DynamicRelation::ExportSub(const Sub& sub, std::vector<Pair>* out) const {
  std::vector<Pair> local;
  sub.rel.ExportLivePairs(&local);
  for (const Pair& p : local) {
    out->push_back({sub.GlobalObject(p.object), sub.GlobalLabel(p.label)});
  }
}

void DynamicRelation::MergeThrough(uint32_t j, std::vector<Pair> seed_pairs) {
  std::vector<Pair> pairs = std::move(seed_pairs);
  c0_by_object_.ForEach([&](uint32_t os, const C0List& box) {
    if (const std::vector<uint32_t>* labels = box.Load()) {
      for (uint32_t ls : *labels) pairs.push_back({os, ls});
    }
  });
  c0_by_object_.clear();
  c0_by_label_.clear();
  c0_pairs_set_.clear();
  c0_pairs_ = 0;
  for (uint32_t i = 0; i <= j && i < subs_.size(); ++i) {
    if (subs_[i] != nullptr) {
      ExportSub(*subs_[i], &pairs);
      // Optimistic readers may still be walking the sub: park, don't free.
      Retire(std::move(subs_[i]));
    }
  }
  if (subs_.size() <= j) subs_.resize(j + 1);
  subs_[j] = BuildSub(pairs);
}

void DynamicRelation::PurgeIfNeeded(uint32_t level) {
  Sub* s = subs_[level].get();
  if (s == nullptr || !s->rel.NeedsPurge(Tau())) return;
  std::vector<Pair> pairs;
  ExportSub(*s, &pairs);
  Retire(std::move(subs_[level]));  // readers may still be walking it
  if (!pairs.empty()) subs_[level] = BuildSub(pairs);
}

void DynamicRelation::GlobalRebase() {
  std::vector<Pair> pairs;
  c0_by_object_.ForEach([&](uint32_t os, const C0List& box) {
    if (const std::vector<uint32_t>* labels = box.Load()) {
      for (uint32_t ls : *labels) pairs.push_back({os, ls});
    }
  });
  c0_by_object_.clear();
  c0_by_label_.clear();
  c0_pairs_set_.clear();
  c0_pairs_ = 0;
  for (auto& s : subs_) {
    if (s != nullptr) {
      ExportSub(*s, &pairs);
      Retire(std::move(s));  // readers may still be walking it
    }
  }
  subs_.clear();
  nf_ = std::max<uint64_t>(pairs.size(), opt_.min_c0);
  if (pairs.empty()) return;
  if (pairs.size() <= MaxSize(0)) {
    for (const Pair& p : pairs) C0Add(p.object, p.label);
    return;
  }
  uint32_t j = 0;
  while (MaxSize(j + 1) < pairs.size()) ++j;
  subs_.resize(j + 1);
  subs_[j] = BuildSub(pairs);
}

uint64_t DynamicRelation::SpaceBytes() const {
  uint64_t total = 0;
  for (const auto& sub_ptr : subs_.view()) {
    const Sub* s = sub_ptr.get();
    if (s == nullptr) continue;
    total += s->rel.SpaceBytes() + s->objects.SpaceBytes() +
             s->labels.SpaceBytes() + sizeof(Sub);
  }
  // C0 buffers: the adjacency vectors' heap capacity hanging off both hash
  // maps, the map nodes/buckets themselves, and the pair-membership set.
  auto c0_bytes = [&](uint32_t, const C0List& box) {
    if (const std::vector<uint32_t>* v = box.Load()) {
      total += sizeof(std::vector<uint32_t>) + v->capacity() * sizeof(uint32_t);
    }
  };
  c0_by_object_.ForEach(c0_bytes);
  c0_by_label_.ForEach(c0_bytes);
  total += c0_by_object_.MemoryBytes() + c0_by_label_.MemoryBytes() +
           c0_pairs_set_.MemoryBytes();
  // Slot registries: SN/NS id<->slot maps, dense side tables, free lists.
  total += obj_slot_.MemoryBytes() + label_slot_.MemoryBytes();
  total += (slot_obj_.capacity() + slot_label_.capacity() +
            obj_pair_count_.capacity() + label_pair_count_.capacity() +
            free_obj_slots_.capacity() + free_label_slots_.capacity()) *
           sizeof(uint32_t);
  return total;
}

void DynamicRelation::ExportLivePairs(
    std::vector<std::pair<uint32_t, uint32_t>>* out) const {
  const std::size_t before = out->size();
  obj_slot_.ForEach([&](uint32_t object, uint32_t) {
    ForEachLabelOfObject(object,
                         [&](uint32_t label) { out->push_back({object, label}); });
  });
  // Hash order is an implementation detail; exported state is sorted.
  std::sort(out->begin() + static_cast<int64_t>(before), out->end());
}

void DynamicRelation::CheckInvariants() const {
  uint64_t pairs = c0_pairs_;
  for (const auto& sub_ptr : subs_.view()) {
    const Sub* s = sub_ptr.get();
    if (s != nullptr) pairs += s->rel.live_pairs();
  }
  DYNDEX_CHECK(pairs == num_pairs_);
  DYNDEX_CHECK(c0_pairs_set_.size() == c0_pairs_);
  for (const auto& sub_ptr : subs_.view()) {
    const Sub* s = sub_ptr.get();
    if (s != nullptr) DYNDEX_CHECK(!s->rel.NeedsPurge(Tau()));
  }
}

}  // namespace dyndex
