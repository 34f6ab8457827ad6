#include "core/instance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

namespace coeff::core {
namespace {

/// Settle one instance (the way a sweep does once it is done).
void settle(InstanceStore& store, std::uint64_t key) {
  store.settle_if([key](const Instance& inst) { return inst.key == key; });
}

TEST(InstanceStoreTest, KeyPacksMessageAndIndex) {
  const auto k1 = InstanceStore::make_key(7, 3);
  const auto k2 = InstanceStore::make_key(7, 4);
  const auto k3 = InstanceStore::make_key(8, 3);
  EXPECT_NE(k1, k2);
  EXPECT_NE(k1, k3);
  EXPECT_NE(k2, k3);
  EXPECT_NE(k1, 0u);  // key 0 is reserved as "no instance"
  EXPECT_NE(InstanceStore::make_key(0, 0), 0u);
  EXPECT_EQ(InstanceStore::position_of(k3), 8u);
}

TEST(InstanceStoreTest, CreateFindErase) {
  InstanceStore store({5});
  Instance& inst = store.create(0, 2);
  EXPECT_EQ(inst.message_id, 5);
  EXPECT_EQ(inst.index, 2);
  EXPECT_EQ(store.size(), 1u);
  ASSERT_NE(store.find(inst.key), nullptr);
  EXPECT_EQ(store.find(inst.key)->message_id, 5);
  settle(store, InstanceStore::make_key(0, 2));
  EXPECT_EQ(store.find(InstanceStore::make_key(0, 2)), nullptr);
  EXPECT_EQ(store.size(), 0u);
}

TEST(InstanceStoreTest, FindUnknownIsNull) {
  InstanceStore store({1, 2});
  EXPECT_EQ(store.find(12345), nullptr);
  EXPECT_EQ(store.find(0), nullptr);
  EXPECT_EQ(store.find(InstanceStore::make_key(2, 0)), nullptr);  // no ring
  EXPECT_EQ(store.find(InstanceStore::make_key(1, 0)), nullptr);  // never made
}

TEST(InstanceStoreTest, KeysSnapshotSurvivesMutation) {
  InstanceStore store({1});
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 10; ++i) keys.push_back(store.create(0, i).key);
  // Settle while walking: every key then resolves or is gone, never a
  // dangling pointer.
  store.settle_if([](const Instance& inst) { return inst.index % 2 == 0; });
  EXPECT_EQ(store.size(), 5u);
  for (const auto key : keys) {
    const Instance* inst = store.find(key);
    if (inst != nullptr) {
      EXPECT_EQ(inst->index % 2, 1);
    }
  }
}

TEST(InstanceStoreTest, DefaultLifecycleFlags) {
  InstanceStore store({1});
  const Instance& inst = store.create(0, 0);
  EXPECT_FALSE(inst.delivered);
  EXPECT_FALSE(inst.miss_recorded);
  EXPECT_EQ(inst.copies_sent, 0);
  EXPECT_EQ(inst.copies_required, 1);
}

TEST(InstanceStoreTest, ManyMessagesNoKeyCollisions) {
  std::vector<int> ids;
  for (int m = 1; m <= 200; ++m) ids.push_back(m);
  InstanceStore store(ids);
  for (std::size_t p = 0; p < ids.size(); ++p) {
    for (int i = 0; i < 20; ++i) store.create(p, i);
  }
  EXPECT_EQ(store.size(), 200u * 20u);
}

TEST(InstanceStoreTest, HandleIsStaleAfterSettlement) {
  InstanceStore store({3});
  const std::uint64_t key = store.create(0, 0).key;
  ASSERT_NE(store.find(key), nullptr);
  settle(store, key);
  EXPECT_EQ(store.find(key), nullptr);
  settle(store, key);  // settling a stale handle is a no-op
  EXPECT_EQ(store.size(), 0u);
}

TEST(InstanceStoreTest, HandleIsStaleAfterItsCellIsReused) {
  InstanceStore store({3});
  const std::uint64_t first = store.create(0, 0).key;
  settle(store, first);
  // Index kInitialRing lands in the cell index 0 used.
  const std::uint64_t later =
      store.create(0, static_cast<std::int64_t>(InstanceStore::kInitialRing))
          .key;
  EXPECT_EQ(store.find(first), nullptr);
  ASSERT_NE(store.find(later), nullptr);
  EXPECT_EQ(store.find(later)->index,
            static_cast<std::int64_t>(InstanceStore::kInitialRing));
  EXPECT_EQ(store.capacity(), InstanceStore::kInitialRing);  // no growth
}

TEST(InstanceStoreTest, RingGrowsOnlyPastItsLiveSpan) {
  InstanceStore store({1, 2});
  const std::size_t initial = store.capacity();
  // A steady stream of short-lived instances never grows the ring.
  for (int i = 0; i < 1000; ++i) {
    settle(store, store.create(0, i).key);
  }
  EXPECT_EQ(store.capacity(), initial);
  // An old instance held live while newer ones come and go pins the
  // span: the ring doubles once the span exceeds its cells, and every
  // live instance survives the re-seat.
  const std::uint64_t held = store.create(1, 0).key;
  std::vector<std::uint64_t> keys;
  for (int i = 1; i < 10; ++i) keys.push_back(store.create(1, i).key);
  EXPECT_EQ(store.capacity(), initial + 16 - InstanceStore::kInitialRing);
  ASSERT_NE(store.find(held), nullptr);
  for (const auto key : keys) ASSERT_NE(store.find(key), nullptr);
  EXPECT_EQ(store.size(), 10u);
}

TEST(InstanceStoreTest, SettlesInMessageIdThenIndexOrder) {
  // Positions in a different order than their ids.
  InstanceStore store({30, -5, 7, 0});
  for (std::size_t p = 0; p < 4; ++p) {
    for (int i = 0; i < 3; ++i) store.create(p, i);
  }
  std::vector<std::pair<int, std::int64_t>> order;
  store.settle_if([&](const Instance& inst) {
    order.emplace_back(inst.message_id, inst.index);
    return true;
  });
  ASSERT_EQ(order.size(), 12u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(order.front(), (std::pair<int, std::int64_t>{-5, 0}));
  EXPECT_EQ(store.size(), 0u);
}

TEST(InstanceStoreTest, OutOfOrderCreateThrows) {
  InstanceStore store({1});
  store.create(0, 4);
  EXPECT_THROW(store.create(0, 4), std::logic_error);
  EXPECT_THROW(store.create(0, 2), std::logic_error);
}

}  // namespace
}  // namespace coeff::core
