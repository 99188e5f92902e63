// Foundation tests: Status/Result, byte serialization, hex, and the
// deterministic RNG.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/byte_io.hpp"
#include "common/hex.hpp"
#include "common/rng.hpp"
#include "common/sketch.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "fleet/fleet.hpp"

namespace kshot {
namespace {

// ---- Status / Result ----------------------------------------------------------

TEST(Status, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::kOk);
  EXPECT_EQ(st.to_string(), "OK");
}

TEST(Status, ErrorFormatting) {
  Status st(Errc::kIntegrityFailure, "MAC mismatch");
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.to_string(), "INTEGRITY_FAILURE: MAC mismatch");
}

TEST(Status, EveryCodeHasName) {
  for (int c = 0; c <= static_cast<int>(Errc::kInternal); ++c) {
    EXPECT_STRNE(errc_name(static_cast<Errc>(c)), "UNKNOWN");
  }
}

TEST(Result, ValuePath) {
  Result<int> r(42);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(Result, ErrorPath) {
  Result<int> r(Errc::kNotFound, "nope");
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), Errc::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultDeathTest, ValueOnErrorAbortsWithStatus) {
  // Always on, also in the NDEBUG build: never a read of an empty optional.
  Result<int> r(Errc::kNotFound, "nope");
  EXPECT_DEATH((void)r.value(),
               "Result::value\\(\\) on error: NOT_FOUND: nope");
  const Result<std::string> c(Errc::kInternal, "boom");
  EXPECT_DEATH((void)c->size(), "INTERNAL: boom");
}

TEST(Result, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.is_ok());
  std::unique_ptr<int> v = std::move(*r);
  EXPECT_EQ(*v, 7);
}

// ---- ByteWriter / ByteReader ----------------------------------------------------

TEST(ByteIo, ScalarRoundTrip) {
  ByteWriter w;
  w.put_u8(0xAB);
  w.put_u16(0x1234);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0102030405060708ULL);
  ByteReader r(w.bytes());
  EXPECT_EQ(*r.get_u8(), 0xAB);
  EXPECT_EQ(*r.get_u16(), 0x1234);
  EXPECT_EQ(*r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.get_u64(), 0x0102030405060708ULL);
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteIo, LittleEndianLayout) {
  ByteWriter w;
  w.put_u32(0x11223344);
  EXPECT_EQ(w.bytes(), (Bytes{0x44, 0x33, 0x22, 0x11}));
}

TEST(ByteIo, ReadsPastEndFail) {
  Bytes b = {1, 2};
  ByteReader r(b);
  EXPECT_FALSE(r.get_u32().is_ok());
  EXPECT_TRUE(r.get_u16().is_ok());
  EXPECT_FALSE(r.get_u8().is_ok());
  EXPECT_FALSE(r.skip(1).is_ok());
}

TEST(ByteIo, SpanAndBytes) {
  Bytes b = {1, 2, 3, 4, 5};
  ByteReader r(b);
  auto span = r.get_span(2);
  ASSERT_TRUE(span.is_ok());
  EXPECT_EQ((*span)[0], 1);
  auto rest = r.get_bytes(3);
  ASSERT_TRUE(rest.is_ok());
  EXPECT_EQ(*rest, (Bytes{3, 4, 5}));
}

TEST(ByteIo, InPlaceAccessors) {
  u8 buf[8];
  store_u64(buf, 0xAABBCCDDEEFF0011ULL);
  EXPECT_EQ(load_u64(buf), 0xAABBCCDDEEFF0011ULL);
  store_u32(buf, 0x12345678);
  EXPECT_EQ(load_u32(buf), 0x12345678u);
  store_u16(buf, 0xBEEF);
  EXPECT_EQ(load_u16(buf), 0xBEEF);
}

// ---- Hex --------------------------------------------------------------------------

TEST(Hex, RoundTrip) {
  Bytes b = {0x00, 0x7F, 0x80, 0xFF};
  std::string h = to_hex(b);
  EXPECT_EQ(h, "007f80ff");
  auto back = from_hex(h);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(*back, b);
}

TEST(Hex, AcceptsUppercase) {
  auto b = from_hex("DEADBEEF");
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(*b, (Bytes{0xDE, 0xAD, 0xBE, 0xEF}));
}

TEST(Hex, RejectsBadInput) {
  EXPECT_FALSE(from_hex("abc").is_ok());   // odd length
  EXPECT_FALSE(from_hex("zz").is_ok());    // bad digit
  EXPECT_TRUE(from_hex("").is_ok());       // empty is fine
}

TEST(Hex, HexdumpShape) {
  Bytes b(20, 'A');
  std::string dump = hexdump(b, 0x1000);
  EXPECT_NE(dump.find("00001000"), std::string::npos);
  EXPECT_NE(dump.find("|AAAAAAAAAAAAAAAA|"), std::string::npos);
}

// ---- RNG ----------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BoundsRespected) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
    u64 v = r.next_range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Rng, FillCoversBuffer) {
  Rng r(10);
  Bytes buf = r.next_bytes(1024);
  // Every byte value should appear at least once in 1 KB of random data
  // with overwhelming probability is false; instead check rough entropy:
  // not all bytes equal.
  bool all_same = true;
  for (u8 b : buf) {
    if (b != buf[0]) {
      all_same = false;
      break;
    }
  }
  EXPECT_FALSE(all_same);
}

// ---- Sample statistics (shared by bench tables and the fleet report) ---------

TEST(Stats, NearestRankPercentilesOnKnownVector) {
  // 1..100 sorted: nearest-rank pct p lands exactly on sample p.
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  EXPECT_EQ(percentile_sorted(xs, 50), 50.0);
  EXPECT_EQ(percentile_sorted(xs, 95), 95.0);
  EXPECT_EQ(percentile_sorted(xs, 99), 99.0);
  EXPECT_EQ(percentile_sorted(xs, 100), 100.0);
  // Small sample: rank = ceil(0.5 * 3) = 2 -> second element.
  EXPECT_EQ(percentile_sorted({10, 20, 30}, 50), 20.0);
  EXPECT_EQ(percentile_sorted({10, 20, 30}, 95), 30.0);
}

TEST(Stats, SingleSampleIsEveryPercentile) {
  std::vector<double> one{42.5};
  EXPECT_EQ(percentile_sorted(one, 1), 42.5);
  EXPECT_EQ(percentile_sorted(one, 50), 42.5);
  EXPECT_EQ(percentile_sorted(one, 99), 42.5);
  auto s = stats_of(one);
  EXPECT_EQ(s.n, 1);
  EXPECT_EQ(s.mean, 42.5);
  EXPECT_EQ(s.stddev, 0.0);
  EXPECT_EQ(s.min, 42.5);
  EXPECT_EQ(s.max, 42.5);
  EXPECT_EQ(s.p50, 42.5);
  EXPECT_EQ(s.p95, 42.5);
  EXPECT_EQ(s.p99, 42.5);
}

TEST(Stats, EmptySampleIsAllZero) {
  EXPECT_EQ(percentile_sorted({}, 50), 0.0);
  auto s = stats_of({});
  EXPECT_EQ(s.n, 0);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.p99, 0.0);
}

TEST(Stats, MeanAndPopulationStddev) {
  // 2,4,4,4,5,5,7,9: mean 5, population stddev exactly 2.
  auto s = stats_of({2, 4, 4, 4, 5, 5, 7, 9});
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.stddev, 2.0);
  EXPECT_EQ(s.min, 2.0);
  EXPECT_EQ(s.max, 9.0);
}

TEST(Stats, FleetPercentilesAgreeWithSharedHelper) {
  std::vector<double> xs{3, 1, 4, 1, 5, 9, 2, 6, 5, 3};
  auto lat = fleet::percentiles_of(xs);
  std::sort(xs.begin(), xs.end());
  EXPECT_EQ(lat.p50, percentile_sorted(xs, 50));
  EXPECT_EQ(lat.p95, percentile_sorted(xs, 95));
  EXPECT_EQ(lat.p99, percentile_sorted(xs, 99));
}

TEST(Stats, NearestRankIntegerBoundaryTable) {
  // Regression: the rank must be ceil(pct * n / 100) with the product formed
  // *before* the divide. The old pct/100.0 * n form accumulated FP error at
  // exact integer ranks (0.47 * 100 = 47.000000000000007) and returned the
  // 48th element for p47 of 100 samples.
  std::vector<double> xs100;
  for (int i = 1; i <= 100; ++i) xs100.push_back(i);
  struct Row {
    double pct;
    double want;
  };
  const Row rows100[] = {{1, 1},    {2, 2},    {25, 25},    {47, 47},
                         {50, 50},  {75, 75},  {94, 94},    {95, 95},
                         {99, 99},  {100, 100}, {0.5, 1},   {47.5, 48},
                         {99.5, 100}};
  for (const Row& r : rows100) {
    EXPECT_EQ(percentile_sorted(xs100, r.pct), r.want) << "pct=" << r.pct;
  }
  // Pinned convention at other sizes: p50 of 10 samples is the 5th sample,
  // p95 of 20 the 19th.
  std::vector<double> xs10, xs20;
  for (int i = 1; i <= 10; ++i) xs10.push_back(i);
  for (int i = 1; i <= 20; ++i) xs20.push_back(i);
  const Row rows10[] = {{10, 1}, {20, 2}, {35, 4}, {50, 5}, {95, 10}, {99, 10}};
  for (const Row& r : rows10) {
    EXPECT_EQ(percentile_sorted(xs10, r.pct), r.want) << "pct=" << r.pct;
  }
  const Row rows20[] = {{5, 1}, {10, 2}, {50, 10}, {95, 19}, {99, 20}};
  for (const Row& r : rows20) {
    EXPECT_EQ(percentile_sorted(xs20, r.pct), r.want) << "pct=" << r.pct;
  }
}

// ---- Streaming quantile sketch ------------------------------------------------

namespace {

// Deterministic right-skewed latency-shaped sample (no RNG needed).
std::vector<double> sketch_fixture(size_t n) {
  std::vector<double> xs;
  xs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    double u = static_cast<double>(i % 9973) / 9973.0;
    xs.push_back(25.0 + 4000.0 * u * u * u);
  }
  return xs;
}

}  // namespace

TEST(Sketch, AgreesWithExactSummaryWithinDocumentedBound) {
  const auto xs = sketch_fixture(10'000);
  QuantileSketch sk;
  for (double x : xs) sk.insert(x);
  auto sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sk.count(), xs.size());
  EXPECT_EQ(sk.min(), sorted.front());
  EXPECT_EQ(sk.max(), sorted.back());
  for (double pct : {10.0, 50.0, 90.0, 95.0, 99.0, 99.9}) {
    double exact = percentile_sorted(sorted, pct);
    double got = sk.quantile(pct / 100.0);
    EXPECT_NEAR(got, exact, exact * (QuantileSketch::kRelativeError + 1e-4))
        << "pct=" << pct;
  }
}

TEST(Sketch, MergeOfHalvesEqualsWholeByteForByte) {
  const auto xs = sketch_fixture(10'000);
  QuantileSketch whole;
  for (double x : xs) whole.insert(x);
  QuantileSketch a, b;
  for (size_t i = 0; i < xs.size(); ++i) (i < xs.size() / 2 ? a : b).insert(xs[i]);
  a.merge(b);
  EXPECT_EQ(a.encode(), whole.encode());
  // Partition independence: any split, merged in any order, encodes the
  // same — this is what makes shard counts invisible in fleet reports.
  QuantileSketch parts[3];
  for (size_t i = 0; i < xs.size(); ++i) parts[i % 3].insert(xs[i]);
  QuantileSketch m1 = parts[2];
  m1.merge(parts[0]);
  m1.merge(parts[1]);
  QuantileSketch m2 = parts[1];
  m2.merge(parts[2]);
  m2.merge(parts[0]);
  EXPECT_EQ(m1.encode(), m2.encode());
  EXPECT_EQ(m1.encode(), whole.encode());
}

TEST(Sketch, EncodeDecodeRoundTrip) {
  const auto xs = sketch_fixture(512);
  QuantileSketch sk;
  for (double x : xs) sk.insert(x);
  Bytes wire = sk.encode();
  auto back = QuantileSketch::decode(ByteSpan(wire));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back->encode(), wire);
  EXPECT_EQ(back->quantile(0.95), sk.quantile(0.95));

  Bytes bad_magic = wire;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(QuantileSketch::decode(ByteSpan(bad_magic)).is_ok());
  Bytes truncated(wire.begin(), wire.begin() + wire.size() / 2);
  EXPECT_FALSE(QuantileSketch::decode(ByteSpan(truncated)).is_ok());
  // Inflate a bucket count so the total disagrees with the header count.
  Bytes miscount = wire;
  miscount[wire.size() - 1] ^= 0x01;
  EXPECT_FALSE(QuantileSketch::decode(ByteSpan(miscount)).is_ok());
}

TEST(Sketch, EmptyAndDegenerateInputs) {
  QuantileSketch empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.quantile(0.5), 0.0);
  QuantileSketch same;
  for (int i = 0; i < 100; ++i) same.insert(77.0);
  // All-equal samples: min == max == 77, and the clamp makes every quantile
  // exact, not merely within the relative bound.
  EXPECT_EQ(same.p50(), 77.0);
  EXPECT_EQ(same.p99(), 77.0);
}

}  // namespace
}  // namespace kshot
