// Common utilities: Status/StatusOr, RNG, buffers, stats.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "common/buffer.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace corec {
namespace {

TEST(Status, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.to_string(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("object x");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.message(), "object x");
  EXPECT_EQ(st.to_string(), "NOT_FOUND: object x");
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v(Status::Unavailable("down"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kUnavailable);
}

TEST(StatusOr, MoveOutValue) {
  StatusOr<std::string> v(std::string("hello"));
  std::string s = std::move(v).value();
  EXPECT_EQ(s, "hello");
}

Status helper_propagates(bool fail) {
  COREC_RETURN_IF_ERROR(fail ? Status::Internal("boom") : Status::Ok());
  return Status::Ok();
}

TEST(StatusMacros, ReturnIfError) {
  EXPECT_TRUE(helper_propagates(false).ok());
  EXPECT_EQ(helper_propagates(true).code(), StatusCode::kInternal);
}

TEST(Rng, DeterministicStreams) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u32(), b.next_u32());
  }
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 100 && !differs; ++i) {
    differs = a2.next_u32() != c.next_u32();
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformWithinBound) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
  EXPECT_EQ(rng.uniform(1), 0u);
  EXPECT_EQ(rng.uniform(0), 0u);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.uniform_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(77);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.2);
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.uniform_range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo = saw_lo || v == -2;
    saw_hi = saw_hi || v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Buffer, PodRoundTrip) {
  Bytes buf;
  BufferWriter w(&buf);
  w.put<std::uint32_t>(0xDEADBEEF);
  w.put<std::int64_t>(-42);
  w.put<double>(3.25);
  BufferReader r(buf);
  std::uint32_t a = 0;
  std::int64_t b = 0;
  double c = 0;
  ASSERT_TRUE(r.get(&a).ok());
  ASSERT_TRUE(r.get(&b).ok());
  ASSERT_TRUE(r.get(&c).ok());
  EXPECT_EQ(a, 0xDEADBEEF);
  EXPECT_EQ(b, -42);
  EXPECT_EQ(c, 3.25);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Buffer, BlobRoundTrip) {
  Bytes buf;
  BufferWriter w(&buf);
  Bytes blob{1, 2, 3, 4, 5};
  w.put_bytes(blob);
  BufferReader r(buf);
  Bytes blob2;
  ASSERT_TRUE(r.get_bytes(&blob2).ok());
  EXPECT_EQ(blob2, blob);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Buffer, UnderrunDetected) {
  Bytes buf{1, 2};
  BufferReader r(buf);
  std::uint64_t v = 0;
  EXPECT_EQ(r.get(&v).code(), StatusCode::kInvalidArgument);
}

TEST(Buffer, Fnv1aStableAndSensitive) {
  Bytes a{1, 2, 3}, b{1, 2, 4};
  EXPECT_EQ(fnv1a(a), fnv1a(a));
  EXPECT_NE(fnv1a(a), fnv1a(b));
}

TEST(RunningStat, MeanVarianceMinMax) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.sum(), 40.0);
}

TEST(RunningStat, MergeMatchesPooled) {
  RunningStat a, b, pooled;
  for (int i = 0; i < 50; ++i) {
    double v = i * 0.37;
    (i % 2 ? a : b).add(v);
    pooled.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), pooled.count());
  EXPECT_NEAR(a.mean(), pooled.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), pooled.variance(), 1e-9);
  EXPECT_EQ(a.min(), pooled.min());
  EXPECT_EQ(a.max(), pooled.max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a, empty;
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.mean(), 3.0);
}

TEST(LatencyHistogram, QuantilesRoughlyCorrect) {
  LatencyHistogram h(1e-6, 1e1, 100);
  for (int i = 1; i <= 1000; ++i) h.add(i * 1e-3);  // 1ms .. 1s uniform
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.quantile(0.5), 0.5, 0.15);
  EXPECT_NEAR(h.quantile(0.9), 0.9, 0.2);
}

TEST(LatencyHistogram, OutOfRangeGoesToEdgeBuckets) {
  LatencyHistogram h(1e-3, 1.0, 10);
  h.add(0.0);
  h.add(1e-9);
  h.add(100.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_LE(h.quantile(0.0), 1e-3 * 1.001);
  EXPECT_GE(h.quantile(1.0), 1.0 * 0.999);
}

TEST(Types, TimeConversions) {
  EXPECT_EQ(from_seconds(1.5), 1'500'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(2'000'000'000), 2.0);
  EXPECT_EQ(from_micros(2.5), 2500);
  EXPECT_DOUBLE_EQ(to_millis(3'000'000), 3.0);
}

TEST(Parse, UnsignedAcceptsWholeNumbersInRange) {
  EXPECT_EQ(parse_uint("0").value(), 0u);
  EXPECT_EQ(parse_uint("4464").value(), 4464u);
  EXPECT_EQ(parse_uint("18446744073709551615").value(), UINT64_MAX);
  EXPECT_EQ(parse_uint("65535", 65535).value(), 65535u);
}

TEST(Parse, UnsignedRejectsMalformedInput) {
  for (const char* bad : {"", "abc", "12x", "-1", "+1", " 1", "1 ", "0x10",
                          "18446744073709551616"}) {
    auto v = parse_uint(bad);
    EXPECT_FALSE(v.ok()) << "'" << bad << "'";
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
  }
  // u16 overflow: --port 70000 must not wrap to 4464.
  EXPECT_FALSE(parse_uint("70000", 65535).ok());
  EXPECT_FALSE(parse_uint("65536", 65535).ok());
}

TEST(Parse, DoubleMustBeFiniteAndInRange) {
  constexpr double kBig = 1e300;
  EXPECT_DOUBLE_EQ(parse_double("0.67", 0.0, 1.0).value(), 0.67);
  EXPECT_DOUBLE_EQ(parse_double("-2.5e3", -kBig, kBig).value(), -2500.0);
  EXPECT_DOUBLE_EQ(parse_double("1", 0.0, 1.0).value(), 1.0);
  for (const char* bad : {"", "abc", "1.5x", "nan", "NaN", "inf", "-inf",
                          "1e999"}) {
    EXPECT_FALSE(parse_double(bad, -kBig, kBig).ok()) << "'" << bad << "'";
  }
  EXPECT_FALSE(parse_double("1.01", 0.0, 1.0).ok());
  EXPECT_FALSE(parse_double("-0.1", 0.0, 1.0).ok());
}

TEST(Parse, ErrorNamesTheValue) {
  auto v = parse_uint("12x");
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().message().find("'12x'"), std::string::npos);
}

}  // namespace
}  // namespace corec
