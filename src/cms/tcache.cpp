#include "cms/tcache.hpp"

#include <utility>

#include "common/error.hpp"

namespace bladed::cms {

TranslationCache::TranslationCache(std::size_t capacity_molecules)
    : capacity_(capacity_molecules) {
  BLADED_REQUIRE(capacity_molecules > 0);
}

void TranslationCache::unlink(std::uint32_t s) {
  const Slot& x = slots_[s];
  if (x.prev != kNil) {
    slots_[x.prev].next = x.next;
  } else {
    head_ = x.next;
  }
  if (x.next != kNil) {
    slots_[x.next].prev = x.prev;
  } else {
    tail_ = x.prev;
  }
}

void TranslationCache::push_front(std::uint32_t s) {
  Slot& x = slots_[s];
  x.prev = kNil;
  x.next = head_;
  if (head_ != kNil) {
    slots_[head_].prev = s;
  } else {
    tail_ = s;
  }
  head_ = s;
}

void TranslationCache::release(std::uint32_t s) {
  unlink(s);
  Slot& x = slots_[s];
  used_ -= x.translation.molecules.size();
  slot_of_[x.translation.entry_pc] = kNil;
  x.next = free_;
  free_ = s;
  --entries_;
}

const Translation* TranslationCache::lookup(std::size_t pc,
                                            std::uint64_t* native_cycles) {
  const std::uint32_t s = slot_of(pc);
  if (s == kNil) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  touch(s);
  if (native_cycles != nullptr) *native_cycles = slots_[s].native_cycles;
  return &slots_[s].translation;
}

const Translation* TranslationCache::peek(std::size_t pc) const {
  const std::uint32_t s = slot_of(pc);
  return s == kNil ? nullptr : &slots_[s].translation;
}

void TranslationCache::replay_hits(const std::vector<std::size_t>& touch_order,
                                   std::uint64_t hit_count) {
  hits_ += hit_count;
  for (const std::size_t pc : touch_order) {
    const std::uint32_t s = slot_of(pc);
    BLADED_REQUIRE_MSG(s != kNil,
                       "replay_hits: block not resident in translation cache");
    touch(s);
  }
}

bool TranslationCache::insert_recycling(Translation& t) {
  const std::size_t need = t.molecules.size();
  if (need > capacity_) return false;
  const std::size_t pc = t.entry_pc;
  // Replace any stale entry for the same pc first.
  if (const std::uint32_t s = slot_of(pc); s != kNil) release(s);
  while (used_ + need > capacity_) {
    release(tail_);
    ++evictions_;
  }
  std::uint32_t s = free_;
  if (s != kNil) {
    free_ = slots_[s].next;
  } else {
    s = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[s];
  std::swap(slot.translation, t);
  t.entry_pc = 0;
  t.instr_count = 0;
  t.molecules.clear();  // keeps the recycled slot's capacity
  slot.native_cycles = slot.translation.native_cycles();
  if (pc >= slot_of_.size()) slot_of_.resize(pc + 1, kNil);
  slot_of_[pc] = s;
  push_front(s);
  used_ += need;
  ++entries_;
  return true;
}

void TranslationCache::clear() {
  while (head_ != kNil) release(head_);
}

}  // namespace bladed::cms
