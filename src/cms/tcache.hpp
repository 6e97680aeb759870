#pragma once

/// The translation cache (§2.2): caches native translations keyed by entry
/// pc so re-executions skip the translator entirely. Capacity is bounded in
/// molecules (it lives in a reserved region of memory on real Crusoe parts);
/// least-recently-used translations are evicted when a new one does not fit.
///
/// Layout: translations live in a slot array threaded by prev/next indices
/// into the LRU list (free slots chain through `next`), and a dense pc→slot
/// table finds them, so a hit is two array reads plus at most one relink
/// and allocates nothing. Evicted slots keep their molecule storage for the
/// next insert (see insert_recycling). pcs are program indices: the pc→slot
/// table grows to the largest pc inserted.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cms/translator.hpp"

namespace bladed::cms {

class TranslationCache {
 public:
  explicit TranslationCache(std::size_t capacity_molecules = 1 << 16);

  /// Look up the translation entered at `pc`; refreshes LRU order. Returns
  /// nullptr on miss. Counts hits/misses. On a hit, `native_cycles` (when
  /// non-null) receives the translation's native_cycles(), computed once
  /// when it was inserted.
  const Translation* lookup(std::size_t pc,
                            std::uint64_t* native_cycles = nullptr);

  /// Side-effect-free lookup: no hit/miss counting, no LRU refresh. The JIT
  /// tier's region compiler uses this to inspect which blocks are cached
  /// without perturbing the accounting the compiled region must replay.
  [[nodiscard]] const Translation* peek(std::size_t pc) const;

  /// Replay the lookups a compiled region absorbed: `hit_count` block
  /// executions, touching the entries named in `touch_order` (ascending by
  /// each block's last execution, so the final LRU order is exactly what a
  /// per-block lookup sequence would have left). Every pc must be resident.
  void replay_hits(const std::vector<std::size_t>& touch_order,
                   std::uint64_t hit_count);

  /// Insert (evicting LRU entries until it fits). A translation larger than
  /// the whole cache is rejected (returns false) — it will be re-translated
  /// on every encounter, as on real hardware with an oversized region.
  bool insert(Translation t) { return insert_recycling(t); }

  /// insert() that swaps `t` into its slot instead of copying it. On
  /// success `t` comes back empty but holding the molecule storage of the
  /// slot it landed in (an evicted or replaced translation's), so a caller
  /// that translates into the same object again allocates nothing once the
  /// cache is full. On rejection `t` is left untouched.
  bool insert_recycling(Translation& t);

  void clear();

  [[nodiscard]] std::size_t size_molecules() const { return used_; }
  [[nodiscard]] std::size_t capacity_molecules() const { return capacity_; }
  [[nodiscard]] std::size_t entries() const { return entries_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Slot {
    Translation translation;
    std::uint64_t native_cycles = 0;
    std::uint32_t prev = kNil;  ///< towards the most recent end
    std::uint32_t next = kNil;  ///< towards the LRU end (or next free slot)
  };

  [[nodiscard]] std::uint32_t slot_of(std::size_t pc) const {
    return pc < slot_of_.size() ? slot_of_[pc] : kNil;
  }
  void unlink(std::uint32_t s);
  void push_front(std::uint32_t s);
  /// Move a resident slot to the most-recent end.
  void touch(std::uint32_t s) {
    if (s != head_) {
      unlink(s);
      push_front(s);
    }
  }
  /// Unlink slot `s`, forget its pc and put it on the free list.
  void release(std::uint32_t s);

  std::size_t capacity_;
  std::size_t used_ = 0;
  std::size_t entries_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> slot_of_;  ///< pc -> slot, kNil when absent
  std::uint32_t head_ = kNil;           ///< most recently used
  std::uint32_t tail_ = kNil;           ///< least recently used
  std::uint32_t free_ = kNil;           ///< free-slot chain through `next`
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace bladed::cms
