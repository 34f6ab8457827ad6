#include "flexray/chi.hpp"

#include <gtest/gtest.h>

namespace coeff::flexray {
namespace {

using units::FrameId;
using units::SlotId;

PendingMessage msg(std::uint64_t instance, int priority,
                   sim::Time deadline = sim::Time::max()) {
  PendingMessage m;
  m.instance = instance;
  m.frame_id = FrameId{static_cast<std::uint16_t>(80 + priority)};
  m.payload_bits = 128;
  m.priority = priority;
  m.deadline = deadline;
  return m;
}

TEST(StaticBufferSetTest, WriteReadClear) {
  StaticBufferSet buffers;
  buffers.add_slot(SlotId{5});
  EXPECT_TRUE(buffers.owns(SlotId{5}));
  EXPECT_FALSE(buffers.owns(SlotId{6}));
  EXPECT_EQ(buffers.read(SlotId{5}), nullptr);
  EXPECT_FALSE(buffers.write(SlotId{5}, msg(1, 0)));
  ASSERT_NE(buffers.read(SlotId{5}), nullptr);
  EXPECT_EQ(buffers.read(SlotId{5})->instance, 1u);
  buffers.clear(SlotId{5});
  EXPECT_EQ(buffers.read(SlotId{5}), nullptr);
}

TEST(StaticBufferSetTest, OverwriteReportsPreviousValue) {
  StaticBufferSet buffers;
  buffers.add_slot(SlotId{2});
  EXPECT_FALSE(buffers.write(SlotId{2}, msg(1, 0)));
  EXPECT_TRUE(buffers.write(SlotId{2}, msg(2, 0)));  // latest value wins
  EXPECT_EQ(buffers.read(SlotId{2})->instance, 2u);
}

TEST(StaticBufferSetTest, WriteToUnownedSlotThrows) {
  StaticBufferSet buffers;
  EXPECT_THROW(buffers.write(SlotId{1}, msg(1, 0)), std::invalid_argument);
}

TEST(StaticBufferSetTest, ReadUnownedSlotIsEmpty) {
  StaticBufferSet buffers;
  EXPECT_EQ(buffers.read(SlotId{9}), nullptr);
  EXPECT_EQ(buffers.read(SlotId{-1}), nullptr);
  EXPECT_NO_THROW(buffers.clear(SlotId{9}));
}

TEST(StaticBufferSetTest, OwnedSlotsSorted) {
  StaticBufferSet buffers;
  buffers.add_slot(SlotId{9});
  buffers.add_slot(SlotId{1});
  buffers.add_slot(SlotId{5});
  EXPECT_EQ(buffers.owned_slots(),
            (std::vector<SlotId>{SlotId{1}, SlotId{5}, SlotId{9}}));
}

TEST(StaticBufferSetTest, PendingCount) {
  StaticBufferSet buffers;
  buffers.add_slot(SlotId{1});
  buffers.add_slot(SlotId{2});
  EXPECT_EQ(buffers.pending_count(), 0u);
  buffers.write(SlotId{1}, msg(1, 0));
  EXPECT_EQ(buffers.pending_count(), 1u);
}

TEST(DynamicQueueTest, PriorityOrder) {
  DynamicQueue q;
  q.push(msg(1, 5));
  q.push(msg(2, 1));
  q.push(msg(3, 3));
  ASSERT_TRUE(q.peek_head().has_value());
  EXPECT_EQ(q.peek_head()->instance, 2u);
}

TEST(DynamicQueueTest, FifoWithinPriority) {
  DynamicQueue q;
  q.push(msg(1, 2));
  q.push(msg(2, 2));
  q.push(msg(3, 2));
  EXPECT_EQ(q.peek_head()->instance, 1u);
  EXPECT_TRUE(q.pop(1));
  EXPECT_EQ(q.peek_head()->instance, 2u);
}

TEST(DynamicQueueTest, PeekByFrameId) {
  DynamicQueue q;
  q.push(msg(1, 5));
  q.push(msg(2, 1));
  const auto found = q.peek(FrameId{85});
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->instance, 1u);
  EXPECT_FALSE(q.peek(FrameId{99}).has_value());
}

TEST(DynamicQueueTest, PopSpecificInstance) {
  DynamicQueue q;
  q.push(msg(1, 1));
  q.push(msg(2, 2));
  EXPECT_TRUE(q.pop(2));
  EXPECT_FALSE(q.pop(2));
  EXPECT_EQ(q.size(), 1u);
}

TEST(DynamicQueueTest, DropExpiredRemovesOnlyPastDeadline) {
  DynamicQueue q;
  q.push(msg(1, 1, sim::millis(5)));
  q.push(msg(2, 2, sim::millis(15)));
  q.push(msg(3, 3, sim::millis(10)));
  const auto dropped = q.drop_expired(sim::millis(12));
  ASSERT_EQ(dropped.size(), 2u);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.peek_head()->instance, 2u);
}

TEST(DynamicQueueTest, DropExpiredExactDeadlineSurvives) {
  DynamicQueue q;
  q.push(msg(1, 1, sim::millis(10)));
  EXPECT_TRUE(q.drop_expired(sim::millis(10)).empty());
  EXPECT_EQ(q.size(), 1u);
}

TEST(DynamicQueueTest, EmptyBehaviour) {
  DynamicQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.peek_head().has_value());
  EXPECT_FALSE(q.pop(1));
  EXPECT_TRUE(q.drop_expired(sim::seconds(1)).empty());
}

TEST(DynamicQueueTest, ContentsInDispatchOrder) {
  DynamicQueue q;
  q.push(msg(1, 9));
  q.push(msg(2, 1));
  q.push(msg(3, 5));
  const auto& contents = q.contents();
  ASSERT_EQ(contents.size(), 3u);
  EXPECT_EQ(contents[0].instance, 2u);
  EXPECT_EQ(contents[1].instance, 3u);
  EXPECT_EQ(contents[2].instance, 1u);
}

TEST(NodeTest, IdentityAndOwnership) {
  Node node(units::NodeId{3}, "brake-ecu");
  EXPECT_EQ(node.id(), units::NodeId{3});
  EXPECT_EQ(node.name(), "brake-ecu");
  node.add_dynamic_frame_id(FrameId{90});
  node.add_dynamic_frame_id(FrameId{95});
  EXPECT_EQ(node.dynamic_frame_ids().size(), 2u);
  node.static_buffers().add_slot(SlotId{4});
  EXPECT_TRUE(node.static_buffers().owns(SlotId{4}));
}

}  // namespace
}  // namespace coeff::flexray
