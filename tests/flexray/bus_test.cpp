#include "flexray/bus.hpp"

#include <gtest/gtest.h>

namespace coeff::flexray {
namespace {

TxRequest req(std::int64_t bits, bool retx = false) {
  TxRequest r;
  r.instance = 42;
  r.frame_id = FrameId{7};
  r.sender = units::NodeId{1};
  r.payload_bits = bits;
  r.retransmission = retx;
  return r;
}

TEST(ChannelTest, OutcomeEchoesRequest) {
  Channel ch(ChannelId::kA, nullptr);
  const auto out =
      ch.transmit(req(100), sim::micros(10), sim::micros(4),
                  units::CycleIndex{2}, units::SlotId{3}, Segment::kStatic);
  EXPECT_EQ(out.request.instance, 42u);
  EXPECT_EQ(out.channel, ChannelId::kA);
  EXPECT_EQ(out.start, sim::micros(10));
  EXPECT_EQ(out.end, sim::micros(14));
  EXPECT_EQ(out.cycle, units::CycleIndex{2});
  EXPECT_EQ(out.slot, units::SlotId{3});
  EXPECT_EQ(out.segment, Segment::kStatic);
  EXPECT_FALSE(out.corrupted);
}

TEST(ChannelTest, NullCorruptionMeansClean) {
  Channel ch(ChannelId::kB, nullptr);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(ch.transmit(req(100), sim::micros(i), sim::micros(1),
                             units::CycleIndex{0}, units::SlotId{1},
                             Segment::kDynamic)
                     .corrupted);
  }
  EXPECT_EQ(ch.stats().corrupted_frames, 0);
}

TEST(ChannelTest, CorruptionFnConsulted) {
  int calls = 0;
  Channel ch(ChannelId::kA, [&](const TxRequest& r, ChannelId id, sim::Time) {
    ++calls;
    EXPECT_EQ(id, ChannelId::kA);
    return r.payload_bits > 50;
  });
  EXPECT_FALSE(ch.transmit(req(10), {}, sim::micros(1), units::CycleIndex{0},
                           units::SlotId{1}, Segment::kStatic)
                   .corrupted);
  EXPECT_TRUE(ch.transmit(req(100), {}, sim::micros(1), units::CycleIndex{0},
                          units::SlotId{1}, Segment::kStatic)
                  .corrupted);
  EXPECT_EQ(calls, 2);
}

TEST(ChannelTest, StatsSeparateSegments) {
  Channel ch(ChannelId::kA, nullptr);
  ch.transmit(req(100), {}, sim::micros(40), units::CycleIndex{0},
              units::SlotId{1}, Segment::kStatic);
  ch.transmit(req(50), {}, sim::micros(10), units::CycleIndex{0},
              units::SlotId{5}, Segment::kDynamic);
  EXPECT_EQ(ch.stats().busy_static, sim::micros(40));
  EXPECT_EQ(ch.stats().busy_dynamic, sim::micros(10));
  EXPECT_EQ(ch.stats().frames, 2);
  EXPECT_EQ(ch.stats().payload_bits, 150);
}

TEST(ChannelTest, RetransmissionCounter) {
  Channel ch(ChannelId::kA, nullptr);
  ch.transmit(req(10, true), {}, sim::micros(1), units::CycleIndex{0},
              units::SlotId{1}, Segment::kStatic);
  ch.transmit(req(10, false), {}, sim::micros(1), units::CycleIndex{0},
              units::SlotId{2}, Segment::kStatic);
  EXPECT_EQ(ch.stats().retransmission_frames, 1);
}

TEST(ChannelTest, MinislotAccounting) {
  Channel ch(ChannelId::kB, nullptr);
  ch.account_minislots(3);
  ch.account_minislots(2);
  EXPECT_EQ(ch.stats().minislots_used, 5);
}

}  // namespace
}  // namespace coeff::flexray
