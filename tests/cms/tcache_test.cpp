#include "cms/tcache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <list>
#include <random>
#include <unordered_map>
#include <vector>

namespace bladed::cms {
namespace {

/// The translation cache's contract restated over std::list: front = most
/// recent, eviction from the back, replacement of a resident pc first.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  bool lookup(std::size_t pc) {
    const auto it = size_of_.find(pc);
    if (it == size_of_.end()) {
      ++misses;
      return false;
    }
    ++hits;
    touch(pc);
    return true;
  }

  void replay_hits(const std::vector<std::size_t>& order, std::uint64_t n) {
    hits += n;
    for (const std::size_t pc : order) touch(pc);
  }

  bool insert(std::size_t pc, std::size_t molecules) {
    if (molecules > capacity_) return false;
    if (const auto it = size_of_.find(pc); it != size_of_.end()) {
      used -= it->second;
      lru_.remove(pc);
      size_of_.erase(it);
    }
    while (used + molecules > capacity_) {
      const std::size_t victim = lru_.back();
      lru_.pop_back();
      used -= size_of_.at(victim);
      size_of_.erase(victim);
      ++evictions;
    }
    lru_.push_front(pc);
    size_of_[pc] = molecules;
    used += molecules;
    return true;
  }

  void clear() {
    lru_.clear();
    size_of_.clear();
    used = 0;
  }

  [[nodiscard]] bool resident(std::size_t pc) const {
    return size_of_.count(pc) != 0;
  }
  [[nodiscard]] std::size_t entries() const { return size_of_.size(); }
  [[nodiscard]] const std::list<std::size_t>& order() const { return lru_; }

  std::size_t used = 0;
  std::uint64_t hits = 0, misses = 0, evictions = 0;

 private:
  void touch(std::size_t pc) {
    lru_.remove(pc);
    lru_.push_front(pc);
  }

  std::size_t capacity_;
  std::list<std::size_t> lru_;
  std::unordered_map<std::size_t, std::size_t> size_of_;
};

Translation make_translation(std::size_t pc, std::size_t molecules,
                             int stall) {
  Translation t;
  t.entry_pc = pc;
  t.instr_count = molecules;
  t.molecules.resize(molecules);
  for (Molecule& m : t.molecules) m.stall = stall;
  return t;
}

TEST(Tcache, RandomizedOpsMatchListReference) {
  constexpr std::size_t kPcs = 48;
  constexpr std::size_t kCapacity = 40;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    TranslationCache cache(kCapacity);
    ReferenceLru ref(kCapacity);
    Translation recycled;  // exercised through insert_recycling
    for (int op = 0; op < 4000; ++op) {
      const std::size_t pc = rng() % kPcs;
      switch (rng() % 9) {
        case 0:
        case 1:
        case 2: {  // insert, sometimes oversized, either entry point
          const std::size_t molecules = rng() % (kCapacity / 3 + 2) +
                                        (rng() % 50 == 0 ? kCapacity : 0);
          const int stall = static_cast<int>(rng() % 3);
          const bool expect = ref.insert(pc, molecules);
          if (rng() % 2 == 0) {
            ASSERT_EQ(cache.insert(make_translation(pc, molecules, stall)),
                      expect);
          } else {
            recycled.entry_pc = pc;
            recycled.instr_count = molecules;
            recycled.molecules.assign(molecules, Molecule{});
            for (Molecule& m : recycled.molecules) m.stall = stall;
            ASSERT_EQ(cache.insert_recycling(recycled), expect);
            if (expect) {
              EXPECT_TRUE(recycled.molecules.empty());
            } else {
              EXPECT_EQ(recycled.molecules.size(), molecules);
            }
          }
          if (expect) {
            const Translation* t = cache.peek(pc);
            ASSERT_NE(t, nullptr);
            EXPECT_EQ(t->molecules.size(), molecules);
          }
          break;
        }
        case 3:
        case 4:
        case 5: {  // lookup, with the cached native cycles on a hit
          const bool expect = ref.lookup(pc);
          std::uint64_t native = ~std::uint64_t{0};
          const Translation* t = cache.lookup(pc, &native);
          ASSERT_EQ(t != nullptr, expect);
          if (t != nullptr) {
            EXPECT_EQ(t->entry_pc, pc);
            EXPECT_EQ(native, t->native_cycles());
          }
          break;
        }
        case 6:
        case 7: {  // replay a touch order over a few resident pcs
          std::vector<std::size_t> resident(ref.order().begin(),
                                            ref.order().end());
          std::shuffle(resident.begin(), resident.end(), rng);
          resident.resize(std::min<std::size_t>(resident.size(), rng() % 5));
          const std::uint64_t n = resident.size() + rng() % 7;
          ref.replay_hits(resident, n);
          cache.replay_hits(resident, n);
          break;
        }
        default:
          if (rng() % 20 == 0) {
            ref.clear();
            cache.clear();
          } else {
            (void)cache.peek(pc);  // must not count or reorder
          }
          break;
      }
      ASSERT_EQ(cache.hits(), ref.hits) << "seed " << seed << " op " << op;
      ASSERT_EQ(cache.misses(), ref.misses);
      ASSERT_EQ(cache.evictions(), ref.evictions);
      ASSERT_EQ(cache.entries(), ref.entries());
      ASSERT_EQ(cache.size_molecules(), ref.used);
      for (std::size_t q = 0; q < kPcs; ++q) {
        ASSERT_EQ(cache.peek(q) != nullptr, ref.resident(q))
            << "seed " << seed << " op " << op << " pc " << q;
      }
    }
  }
}

TEST(Tcache, ReplayHitsRejectsNonResidentPc) {
  TranslationCache cache(8);
  ASSERT_TRUE(cache.insert(make_translation(3, 2, 0)));
  EXPECT_THROW(cache.replay_hits({3, 5}, 2), PreconditionError);
  EXPECT_THROW(cache.replay_hits({1000}, 1), PreconditionError);
}

TEST(Tcache, EvictedSlotLendsItsStorageToTheNextInsert) {
  TranslationCache cache(4);
  Translation t = make_translation(1, 4, 0);
  ASSERT_TRUE(cache.insert_recycling(t));
  EXPECT_TRUE(t.molecules.empty());  // a fresh slot had no storage to lend
  t = make_translation(2, 2, 0);
  ASSERT_TRUE(cache.insert_recycling(t));  // evicts pc 1
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_GE(t.molecules.capacity(), 4u);  // pc 1's buffer came back
  EXPECT_EQ(cache.peek(1), nullptr);
  ASSERT_NE(cache.peek(2), nullptr);
  EXPECT_EQ(cache.peek(2)->molecules.size(), 2u);
}

}  // namespace
}  // namespace bladed::cms
