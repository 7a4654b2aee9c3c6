#include <gtest/gtest.h>

#include <set>

#include "common/hash.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/timer.h"

namespace adj {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad arity");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad arity");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad arity");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("missing");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

Status Fails() { return Status::Internal("boom"); }
Status UsesMacro() {
  ADJ_RETURN_IF_ERROR(Fails());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(UsesMacro().code(), StatusCode::kInternal);
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next64() == b.Next64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformWithinBound) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ZipfTest, SamplesWithinRange) {
  Rng rng(11);
  ZipfSampler zipf(100, 0.9);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LT(zipf.Sample(rng), 100u);
  }
}

TEST(ZipfTest, SkewFavorsSmallIds) {
  Rng rng(13);
  ZipfSampler zipf(1000, 0.99);
  int head = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(rng) < 10) ++head;
  }
  // Top-10 of a near-1.0 Zipf over 1000 values carries far more than
  // the uniform 1% share.
  EXPECT_GT(head, n / 20);
}

TEST(HashTest, AttributeHashWithinBuckets) {
  for (uint32_t buckets : {1u, 2u, 3u, 7u, 16u}) {
    for (Value v = 0; v < 500; ++v) {
      EXPECT_LT(AttributeHash(0, v, buckets), buckets);
    }
  }
}

TEST(HashTest, AttributesDecorrelated) {
  // Same value must not systematically land in the same bucket across
  // different attributes (HCube relies on independent hash families).
  int equal = 0;
  for (Value v = 0; v < 1000; ++v) {
    if (AttributeHash(0, v, 8) == AttributeHash(1, v, 8)) ++equal;
  }
  EXPECT_GT(equal, 50);   // ~1/8 expected
  EXPECT_LT(equal, 300);
}

TEST(HashTest, Mix64IsInjectiveOnSample) {
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 10000; ++i) seen.insert(Mix64(i));
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(TimerTest, MeasuresElapsed) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.Seconds(), 0.0);
}

}  // namespace
}  // namespace adj
