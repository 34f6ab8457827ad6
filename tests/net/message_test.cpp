#include "net/message.hpp"

#include <gtest/gtest.h>

namespace coeff::net {
namespace {

Message make(int id, int period_ms, int deadline_ms, int bits,
             MessageKind kind = MessageKind::kStatic) {
  Message m;
  m.id = id;
  m.name = "m" + std::to_string(id);
  m.node = id % 10;
  m.kind = kind;
  m.period = sim::millis(period_ms);
  m.deadline = sim::millis(deadline_ms);
  m.size_bits = bits;
  return m;
}

TEST(MessageSetTest, ValidSetPasses) {
  MessageSet set({make(1, 10, 5, 100), make(2, 20, 20, 200)});
  EXPECT_NO_THROW(set.validate());
}

TEST(MessageSetTest, DuplicateIdsRejected) {
  MessageSet set({make(1, 10, 5, 100), make(1, 20, 20, 200)});
  EXPECT_THROW(set.validate(), std::invalid_argument);
}

TEST(MessageSetTest, NonPositiveFieldsRejected) {
  auto bad_period = make(1, 0, 5, 100);
  EXPECT_THROW(MessageSet({bad_period}).validate(), std::invalid_argument);
  auto bad_size = make(1, 10, 5, 0);
  EXPECT_THROW(MessageSet({bad_size}).validate(), std::invalid_argument);
}

TEST(MessageSetTest, DeadlineBeyondPeriodRejected) {
  auto m = make(1, 10, 11, 100);
  EXPECT_THROW(MessageSet({m}).validate(), std::invalid_argument);
}

TEST(MessageSetTest, NegativeOffsetRejected) {
  auto m = make(1, 10, 5, 100);
  m.offset = sim::millis(-1);
  EXPECT_THROW(MessageSet({m}).validate(), std::invalid_argument);
}

TEST(MessageSetTest, OffsetBeyondPeriodRejected) {
  auto m = make(1, 10, 5, 100);
  m.offset = sim::millis(11);
  EXPECT_THROW(MessageSet({m}).validate(), std::invalid_argument);
}

TEST(MessageSetTest, DuplicateStaticFrameIdsRejected) {
  auto a = make(1, 10, 5, 100);
  auto b = make(2, 10, 5, 100);
  a.frame_id = 3;
  b.frame_id = 3;
  EXPECT_THROW(MessageSet({a, b}).validate(), std::invalid_argument);
}

TEST(MessageSetTest, DynamicFrameIdsMayRepeatAcrossKinds) {
  auto a = make(1, 10, 5, 100, MessageKind::kDynamic);
  auto b = make(2, 10, 5, 100, MessageKind::kDynamic);
  a.frame_id = 90;
  b.frame_id = 90;  // FlexRay allows shared dynamic frame ids
  EXPECT_NO_THROW(MessageSet({a, b}).validate());
}

TEST(MessageSetTest, OfKindFilters) {
  MessageSet set({make(1, 10, 5, 100), make(2, 10, 5, 100,
                                            MessageKind::kDynamic)});
  EXPECT_EQ(set.of_kind(MessageKind::kStatic).size(), 1u);
  EXPECT_EQ(set.of_kind(MessageKind::kDynamic).size(), 1u);
  EXPECT_EQ(set.of_kind(MessageKind::kStatic)[0].id, 1);
}

TEST(MessageSetTest, PrefixTakesFirstN) {
  MessageSet set({make(1, 10, 5, 1), make(2, 10, 5, 1), make(3, 10, 5, 1)});
  EXPECT_EQ(set.prefix(2).size(), 2u);
  EXPECT_EQ(set.prefix(10).size(), 3u);
  EXPECT_EQ(set.prefix(0).size(), 0u);
}

TEST(MessageSetTest, MergePreservesAll) {
  MessageSet a({make(1, 10, 5, 1)});
  MessageSet b({make(2, 10, 5, 1)});
  const auto merged = a.merged_with(b);
  EXPECT_EQ(merged.size(), 2u);
  EXPECT_NO_THROW(merged.validate());
}

TEST(MessageSetTest, DemandedBandwidth) {
  // 1000 bits every 10 ms = 100 kb/s; plus 500 bits every 5 ms = 100 kb/s.
  MessageSet set({make(1, 10, 5, 1000), make(2, 5, 5, 500)});
  EXPECT_NEAR(set.demanded_bits_per_second(), 200'000.0, 1e-6);
}

TEST(MessageSetTest, Hyperperiod) {
  MessageSet set({make(1, 8, 8, 1), make(2, 12, 12, 1)});
  EXPECT_EQ(set.hyperperiod(), sim::millis(24));
}

TEST(MessageSetTest, HyperperiodOverflowThrows) {
  auto a = make(1, 9973, 9973, 1);   // large coprime periods
  auto b = make(2, 9967, 9967, 1);
  auto c = make(3, 9949, 9949, 1);
  EXPECT_THROW((void)MessageSet({a, b, c}).hyperperiod(), std::domain_error);
}

// 17 prime periods in microseconds, in set order. The first nine keep
// the running lcm at 2.2e11 ns, well under the one-hour cap; the
// 41,356,607 us prime then multiplies it past INT64_MAX in a single
// step. The fold must saturate into the domain_error; an unchecked one
// wraps and ends on a negative hyperperiod without ever tripping the
// cap.
TEST(MessageSetTest, SeventeenPrimePeriodsExceedTheHourWithoutOverflow) {
  constexpr std::int64_t kPrimesUs[] = {2,  3,  5,  7,  11, 13,
                                        17, 19, 23, 41'356'607,
                                        29, 31, 37, 41, 43, 47, 53};
  MessageSet set;
  for (const std::int64_t p : kPrimesUs) {
    Message m = make(static_cast<int>(set.size()) + 1, 1, 1, 1);
    m.period = sim::micros(p);
    m.deadline = m.period;
    set.add(m);
  }
  EXPECT_THROW((void)set.hyperperiod(), std::domain_error);
}

TEST(MessageSetTest, FindById) {
  MessageSet set({make(5, 10, 5, 1)});
  ASSERT_NE(set.find(5), nullptr);
  EXPECT_EQ(set.find(5)->id, 5);
  EXPECT_EQ(set.find(6), nullptr);
}

TEST(MessageSetTest, KindNames) {
  EXPECT_STREQ(to_string(MessageKind::kStatic), "static");
  EXPECT_STREQ(to_string(MessageKind::kDynamic), "dynamic");
}

}  // namespace
}  // namespace coeff::net
