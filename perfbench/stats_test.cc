// Unit tests of the benchmark's percentile rule and span self-time
// arithmetic (perfbench/stats.h).

#include "perfbench/stats.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentileTest, NearestRank) {
  auto v = OneTo(100);
  EXPECT_EQ(Percentile(&v, 50).value(), 50);
  v = OneTo(100);
  EXPECT_EQ(Percentile(&v, 90).value(), 90);
  v = OneTo(1000);
  EXPECT_EQ(Percentile(&v, 99).value(), 990);
  v = OneTo(101);
  EXPECT_EQ(Percentile(&v, 50).value(), 51);
}

TEST(PercentileTest, NeedsTenSamplesBeyond) {
  auto v = OneTo(100);
  EXPECT_TRUE(Percentile(&v, 90).has_value());  // 10 beyond
  v = OneTo(99);
  EXPECT_FALSE(Percentile(&v, 90).has_value());  // ceil(89.1)=90: 9 beyond
  v = OneTo(999);
  EXPECT_FALSE(Percentile(&v, 99).has_value());  // rank 990: 9 beyond
  v = OneTo(1009);
  EXPECT_EQ(Percentile(&v, 99).value(), 999);  // rank 999: 10 beyond
  v = OneTo(10);
  EXPECT_FALSE(Percentile(&v, 1).has_value());  // rank 1: 9 beyond
  v = {};
  EXPECT_FALSE(Percentile(&v, 50).has_value());
}

Span MakeSpan(uint32_t name, int32_t parent, uint64_t start_us, uint64_t end_us) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.start_ns = start_us * 1000;
  span.end_ns = end_us * 1000;
  return span;
}

TEST(SelfTimeTest, ChildrenAreSubtractedFromTheirParentOnly) {
  // op(0..100) holds call(10..40) and call(50..70); a second op(100..130)
  // holds call(105..125).
  const std::vector<Span> spans = {
      MakeSpan(0, -1, 0, 100), MakeSpan(1, 0, 10, 40), MakeSpan(1, 0, 50, 70),
      MakeSpan(0, -1, 100, 130), MakeSpan(1, 3, 105, 125)};
  double top_us = 0;
  const auto totals = SelfTimes(spans, &top_us);
  EXPECT_DOUBLE_EQ(top_us, 130);
  EXPECT_EQ(totals.at(0).count, 2u);
  EXPECT_DOUBLE_EQ(totals.at(0).self_us, (100 - 50) + (30 - 20));
  EXPECT_EQ(totals.at(1).count, 3u);
  EXPECT_DOUBLE_EQ(totals.at(1).self_us, 30 + 20 + 20);
  // Self times of all spans add up to the top-level time.
  EXPECT_DOUBLE_EQ(totals.at(0).self_us + totals.at(1).self_us, top_us);
}

TEST(SelfTimeTest, BufferNestsAndCountsOverflow) {
  SpanBuffer buffer(2);
  const int32_t op = buffer.Begin(0, 7);
  const int32_t call = buffer.Begin(1, 7);
  EXPECT_EQ(buffer.Begin(2, 7), -1);  // full
  buffer.End(-1);
  buffer.End(call);
  buffer.End(op);
  ASSERT_EQ(buffer.spans().size(), 2u);
  EXPECT_EQ(buffer.spans()[1].parent, op);
  EXPECT_EQ(buffer.spans()[0].parent, -1);
  EXPECT_EQ(buffer.dropped(), 1u);
  EXPECT_LE(buffer.spans()[0].start_ns, buffer.spans()[1].start_ns);
  EXPECT_GE(buffer.spans()[0].end_ns, buffer.spans()[1].end_ns);
}

}  // namespace
}  // namespace perfbench
