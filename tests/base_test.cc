// Unit tests for src/base: intrusive lists, fixed pools, rng, status, zeroed
// arrays and their spare list.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/base/fixed_pool.h"
#include "src/base/intrusive_list.h"
#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/base/zeroed_array.h"

namespace {

using ckbase::FixedPool;
using ckbase::IntrusiveList;
using ckbase::ListNode;
using ckbase::PoolId;

struct Item {
  ListNode pool_node;
  ListNode queue_node;
  int value = 0;
};

TEST(IntrusiveListTest, PushPopOrder) {
  IntrusiveList<Item, &Item::queue_node> list;
  Item a, b, c;
  a.value = 1;
  b.value = 2;
  c.value = 3;
  EXPECT_TRUE(list.empty());
  list.PushBack(&a);
  list.PushBack(&b);
  list.PushFront(&c);
  EXPECT_EQ(list.Size(), 3u);
  EXPECT_EQ(list.PopFront()->value, 3);
  EXPECT_EQ(list.PopFront()->value, 1);
  EXPECT_EQ(list.PopFront()->value, 2);
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.PopFront(), nullptr);
}

TEST(IntrusiveListTest, RemoveMiddleAndIdempotentUnlink) {
  IntrusiveList<Item, &Item::queue_node> list;
  Item a, b, c;
  list.PushBack(&a);
  list.PushBack(&b);
  list.PushBack(&c);
  list.Remove(&b);
  EXPECT_EQ(list.Size(), 2u);
  b.queue_node.Unlink();  // already unlinked; must be a no-op
  EXPECT_EQ(list.Size(), 2u);
  EXPECT_EQ(list.PopFront(), &a);
  EXPECT_EQ(list.PopFront(), &c);
}

TEST(IntrusiveListTest, IterationVisitsAllInOrder) {
  IntrusiveList<Item, &Item::queue_node> list;
  Item items[5];
  for (int i = 0; i < 5; ++i) {
    items[i].value = i;
    list.PushBack(&items[i]);
  }
  int expect = 0;
  for (Item* item : list) {
    EXPECT_EQ(item->value, expect++);
  }
  EXPECT_EQ(expect, 5);
}

TEST(IntrusiveListTest, MembershipAcrossTwoLists) {
  IntrusiveList<Item, &Item::pool_node> pool_list;
  IntrusiveList<Item, &Item::queue_node> queue_list;
  Item a;
  pool_list.PushBack(&a);
  queue_list.PushBack(&a);
  EXPECT_TRUE(a.pool_node.linked());
  EXPECT_TRUE(a.queue_node.linked());
  queue_list.Remove(&a);
  EXPECT_TRUE(a.pool_node.linked());
  EXPECT_FALSE(a.queue_node.linked());
}

// Front-to-back values, and the same walked back to front with Back/Prev.
template <typename List>
std::pair<std::vector<int>, std::vector<int>> Walks(List& list) {
  std::vector<int> forward;
  std::vector<int> backward;
  for (Item* item : list) {
    forward.push_back(item->value);
  }
  for (Item* item = list.Back(); item != nullptr; item = list.Prev(item)) {
    backward.insert(backward.begin(), item->value);
  }
  return {forward, backward};
}

TEST(IntrusiveListTest, BackAndReverseWalk) {
  IntrusiveList<Item, &Item::queue_node> list;
  EXPECT_EQ(list.Back(), nullptr);
  Item items[4];
  for (int i = 0; i < 4; ++i) {
    items[i].value = i;
    list.PushBack(&items[i]);
  }
  EXPECT_EQ(list.Back(), &items[3]);
  EXPECT_EQ(list.Prev(&items[0]), nullptr);
  EXPECT_EQ(list.Prev(&items[2]), &items[1]);
  auto [forward, backward] = Walks(list);
  EXPECT_EQ(forward, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(backward, forward);
  list.Remove(&items[3]);
  EXPECT_EQ(list.Back(), &items[2]);
  while (list.PopFront() != nullptr) {
  }
  EXPECT_EQ(list.Back(), nullptr);
}

TEST(IntrusiveListTest, InsertBefore) {
  IntrusiveList<Item, &Item::queue_node> list;
  Item a, b, c, d, e;
  a.value = 1;
  b.value = 2;
  c.value = 3;
  d.value = 4;
  e.value = 5;
  list.InsertBefore(nullptr, &b);  // into an empty list
  list.InsertBefore(&b, &a);       // before the front
  list.InsertBefore(nullptr, &d);  // at the back
  list.InsertBefore(&d, &c);       // in the middle
  list.InsertBefore(nullptr, &e);
  auto [forward, backward] = Walks(list);
  EXPECT_EQ(forward, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(backward, forward);
  EXPECT_EQ(list.Front(), &a);
  EXPECT_EQ(list.Back(), &e);
}

TEST(IntrusiveListTest, CopiesStartUnlinkedAndAssignmentUnlinks) {
  IntrusiveList<Item, &Item::queue_node> list;
  Item a, b, c;
  list.PushBack(&a);
  list.PushBack(&b);
  list.PushBack(&c);
  Item copy = b;
  EXPECT_FALSE(copy.queue_node.linked());
  EXPECT_EQ(list.Size(), 3u);
  b = Item{};  // assigning over a linked item takes it off its list
  EXPECT_FALSE(b.queue_node.linked());
  EXPECT_EQ(list.Size(), 2u);
  EXPECT_EQ(list.Prev(&c), &a);
  copy = a;  // neither side changes lists
  EXPECT_FALSE(copy.queue_node.linked());
  EXPECT_TRUE(a.queue_node.linked());
  EXPECT_EQ(list.Size(), 2u);
}

TEST(FixedPoolTest, AllocateUntilFull) {
  FixedPool<Item> pool(3);
  EXPECT_EQ(pool.capacity(), 3u);
  Item* a = pool.Allocate();
  Item* b = pool.Allocate();
  Item* c = pool.Allocate();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(pool.full());
  EXPECT_EQ(pool.Allocate(), nullptr);
  pool.Release(b);
  EXPECT_FALSE(pool.full());
  EXPECT_EQ(pool.Allocate(), b);  // free list reuses the slot
}

TEST(FixedPoolTest, GenerationInvalidatesOldIds) {
  FixedPool<Item> pool(1);
  Item* a = pool.Allocate();
  PoolId id = pool.IdOf(a);
  EXPECT_EQ(pool.Lookup(id), a);
  pool.Release(a);
  EXPECT_EQ(pool.Lookup(id), nullptr) << "stale id must not resolve";
  Item* b = pool.Allocate();
  EXPECT_EQ(b, a) << "slot is reused";
  EXPECT_EQ(pool.Lookup(id), nullptr) << "old id still stale after reuse";
  EXPECT_NE(pool.IdOf(b).generation, id.generation);
}

TEST(FixedPoolTest, PackedRoundTrip) {
  PoolId id{42, 17};
  EXPECT_EQ(PoolId::FromPacked(id.Packed()), id);
  EXPECT_FALSE(PoolId{}.valid());
  EXPECT_TRUE(id.valid());
}

TEST(FixedPoolTest, IsAllocatedTracksLiveness) {
  FixedPool<Item> pool(2);
  Item* a = pool.Allocate();
  uint32_t slot = pool.SlotOf(a);
  EXPECT_TRUE(pool.IsAllocated(slot));
  pool.Release(a);
  EXPECT_FALSE(pool.IsAllocated(slot));
}

TEST(RngTest, DeterministicAndBounded) {
  ckbase::Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(a.Below(10), 10u);
    uint64_t r = a.Range(5, 9);
    EXPECT_GE(r, 5u);
    EXPECT_LE(r, 9u);
    double d = a.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ChanceIsRoughlyCalibrated) {
  ckbase::Rng rng(7);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += rng.Chance(1, 4) ? 1 : 0;
  }
  EXPECT_GT(hits, 2200);
  EXPECT_LT(hits, 2800);
}

TEST(StatusTest, NamesAndResult) {
  EXPECT_EQ(ckbase::CkStatusName(ckbase::CkStatus::kOk), "OK");
  EXPECT_EQ(ckbase::CkStatusName(ckbase::CkStatus::kStale), "STALE");
  ckbase::Result<int> ok(7);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);
  ckbase::Result<int> bad(ckbase::CkStatus::kDenied);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status(), ckbase::CkStatus::kDenied);
}

// A destroyed array's memory goes to the next array of its byte size, which
// zeroes only the prefix the last owner declared used.
TEST(ZeroedArrayTest, ReusedMemoryIsZeroed) {
  for (uint32_t size : {40001u, 1001u}) {  // a mapped and a calloc'd size no other test uses
    auto array = std::make_unique<ckbase::ZeroedArray<uint64_t>>(size);
    const uint64_t* memory = &(*array)[0];
    for (uint32_t i = 0; i < 700; ++i) {
      (*array)[i] = 0x0123456789abcdefull + i;
    }
    array->set_used(700);
    array.reset();
    ckbase::ZeroedArray<uint64_t> reused(size);
    ASSERT_EQ(&reused[0], memory) << "the new array must take the destroyed one's memory";
    for (uint32_t i = 0; i < size; ++i) {
      ASSERT_EQ(reused[i], 0u) << "stale element " << i << " of " << size;
    }
  }
}

// A spare waits poisoned, so a stale pointer into a destroyed array is an
// AddressSanitizer report, not a silent read.
TEST(ZeroedArrayTest, StalePointerIntoASpareIsAnAsanReport) {
#if defined(__SANITIZE_ADDRESS__)
  EXPECT_DEATH(
      {
        auto* array = new ckbase::ZeroedArray<uint64_t>(40002);
        const volatile uint64_t* stale = &(*array)[100];
        delete array;
        (void)*stale;
      },
      "use-after-poison");
#else
  GTEST_SKIP() << "needs an AddressSanitizer build";
#endif
}

}  // namespace
