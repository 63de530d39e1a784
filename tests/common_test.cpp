// Unit tests for the common substrate: CRC32, buffers, wire codecs, RNG,
// statistics and the memory ledger.
#include <gtest/gtest.h>

#include <vector>

#include "common/buffer.hpp"
#include "common/checksum.hpp"
#include "common/crc32.hpp"
#include "common/memcount.hpp"
#include "common/memledger.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace dgiwarp {
namespace {

TEST(Crc32, KnownVectors) {
  // IEEE CRC32 of "123456789" is the classic check value 0xCBF43926.
  const Bytes check = bytes_of("123456789");
  EXPECT_EQ(crc32_ieee(ConstByteSpan{check}), 0xCBF43926u);
  // Empty input.
  EXPECT_EQ(crc32_ieee(ConstByteSpan{}), 0x00000000u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const Bytes data = make_pattern(10'000, 3);
  for (std::size_t split : {std::size_t{1}, std::size_t{7}, std::size_t{4096},
                            std::size_t{9999}}) {
    Crc32 inc;
    inc.update(ConstByteSpan{data}.subspan(0, split));
    inc.update(ConstByteSpan{data}.subspan(split));
    EXPECT_EQ(inc.final(), crc32_ieee(ConstByteSpan{data})) << split;
  }
}

TEST(Crc32, GatherListMatchesFlat) {
  const Bytes a = make_pattern(100, 1);
  const Bytes b = make_pattern(311, 2);
  GatherList gl;
  gl.add(ConstByteSpan{a});
  gl.add(ConstByteSpan{b});
  Crc32 inc;
  inc.update(gl);
  const Bytes flat = gl.flatten();
  EXPECT_EQ(inc.final(), crc32_ieee(ConstByteSpan{flat}));
}

TEST(Crc32, DetectsSingleBitFlips) {
  Bytes data = make_pattern(512, 9);
  const u32 good = crc32_ieee(ConstByteSpan{data});
  for (std::size_t bit : {std::size_t{0}, std::size_t{2048},
                          std::size_t{4095}}) {
    data[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
    EXPECT_NE(crc32_ieee(ConstByteSpan{data}), good);
    data[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
  }
}

// The folded PCLMULQDQ kernel must agree with slice-by-8 on every length,
// alignment and split (it runs only on x86 CPUs that have the instruction;
// elsewhere update_clmul is the table kernel and this test is trivially
// true).
TEST(Crc32, ClmulMatchesSliceBy8) {
  if (!crc32_detail::clmul_supported())
    GTEST_LOG_(INFO) << "no PCLMULQDQ here: comparing the table with itself";
  const Bytes data = make_pattern(64 * 1024 + 64, 11);
  auto both = [&](std::size_t off, std::size_t len, u32 state) {
    const ConstByteSpan s = ConstByteSpan{data}.subspan(off, len);
    return std::pair{crc32_detail::update_clmul(state, s),
                     crc32_detail::update_table(state, s)};
  };
  for (std::size_t len = 0; len <= 1024; ++len) {
    for (std::size_t align = 0; align < 16; ++align) {
      const auto [clmul, table] = both(align, len, 0xFFFFFFFFu);
      ASSERT_EQ(clmul, table) << "len " << len << " align " << align;
    }
  }
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const std::size_t len = rng.below(64 * 1024 + 1);
    const std::size_t align = rng.below(16);
    const u32 state = static_cast<u32>(rng.next_u64());
    const auto [clmul, table] = both(align, len, state);
    ASSERT_EQ(clmul, table) << "len " << len << " align " << align;
  }
  // Split incremental updates: any cut gives the one-shot CRC.
  const ConstByteSpan all = ConstByteSpan{data}.subspan(3, 5000);
  const u32 whole = crc32_detail::update_table(0xFFFFFFFFu, all);
  for (int i = 0; i < 200; ++i) {
    std::size_t a = rng.below(all.size() + 1);
    std::size_t b = rng.below(all.size() + 1);
    if (a > b) std::swap(a, b);
    u32 st = crc32_detail::update_clmul(0xFFFFFFFFu, all.subspan(0, a));
    st = crc32_detail::update_clmul(st, all.subspan(a, b - a));
    st = crc32_detail::update_clmul(st, all.subspan(b));
    ASSERT_EQ(st, whole) << a << "," << b;
  }
  Crc32 inc;
  inc.update(all.subspan(0, 100));
  inc.update(all.subspan(100));
  EXPECT_EQ(inc.final(), ~whole);
  EXPECT_EQ(crc32_ieee(all), ~whole);
}

// The RFC 1071 byte-pair loop the 64-bit checksum replaced.
u16 checksum_by_pairs(ConstByteSpan data) {
  u32 sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2)
    sum += (u32{data[i]} << 8) | data[i + 1];
  if (i < data.size()) sum += u32{data[i]} << 8;
  while (sum >> 16) sum = (sum & 0xFFFFu) + (sum >> 16);
  return static_cast<u16>(~sum);
}

TEST(InternetChecksum, MatchesBytePairLoop) {
  Rng rng(17);
  Bytes data(70'000);
  for (auto& b : data) b = static_cast<u8>(rng.next_u64());
  for (std::size_t len = 0; len <= 300; ++len) {
    for (std::size_t off : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
      const ConstByteSpan s = ConstByteSpan{data}.subspan(off, len);
      ASSERT_EQ(internet_checksum(s), checksum_by_pairs(s))
          << "len " << len << " off " << off;
    }
  }
  for (int i = 0; i < 300; ++i) {
    const std::size_t len = rng.below(65'536) | (i & 1);  // odd lengths too
    const ConstByteSpan s = ConstByteSpan{data}.subspan(rng.below(8), len);
    ASSERT_EQ(internet_checksum(s), checksum_by_pairs(s)) << len;
  }
  // Carry-heavy and all-zero inputs, where ones'-complement +0 / -0 differ.
  for (u8 fill : {u8{0x00}, u8{0xFF}, u8{0x80}}) {
    for (std::size_t len : {std::size_t{1}, std::size_t{2}, std::size_t{9},
                            std::size_t{64}, std::size_t{65'535}}) {
      const Bytes f(len, fill);
      EXPECT_EQ(internet_checksum(ConstByteSpan{f}),
                checksum_by_pairs(ConstByteSpan{f}))
          << int{fill} << " x " << len;
    }
  }
  // A segment carrying its own checksum (in a word-aligned field) sums to
  // 0xFFFF, whose complement is 0.
  Bytes seg = make_pattern(100, 4);
  seg.push_back(0);
  seg.push_back(0);
  const u16 c = internet_checksum(ConstByteSpan{seg});
  seg[100] = static_cast<u8>(c >> 8);
  seg[101] = static_cast<u8>(c);
  EXPECT_EQ(internet_checksum(ConstByteSpan{seg}), 0);
}

// Bytes against the std::vector it replaced: the same contents after every
// operation, and the same mem:: allocation requests (count and bytes).
TEST(BytesDifferential, MatchesCountingVector) {
  using Ref = std::vector<u8, mem::CountingAllocator<u8>>;
  Rng rng(23);
  auto tally_of = [](auto&& op) {
    const mem::AllocTally before = mem::snapshot();
    op();
    return mem::delta(before);
  };
  for (int round = 0; round < 40; ++round) {
    Bytes b;
    Ref r;
    for (int step = 0; step < 300; ++step) {
      const u64 kind = rng.below(12);
      const std::size_t n = rng.below(kind < 6 ? 40 : 3000);
      const u8 v = static_cast<u8>(rng.next_u64());
      const Bytes src = make_pattern(n, static_cast<u32>(step));
      const std::size_t pos = rng.below(r.size() + 1);
      mem::AllocTally tb, tr;
      switch (kind) {
        case 0:
          tb = tally_of([&] { b.push_back(v); });
          tr = tally_of([&] { r.push_back(v); });
          break;
        case 1:
        case 6:  // a growing insert from another buffer
          tb = tally_of([&] { b.insert(b.begin() + pos, src.begin(), src.end()); });
          tr = tally_of([&] { r.insert(r.begin() + pos, src.begin(), src.end()); });
          break;
        case 2:
        case 7: {  // a self-aliasing insert: a slice of the buffer itself
          const std::size_t a = rng.below(r.size() + 1);
          const std::size_t len = rng.below(r.size() - a + 1);
          // The vector's range insert may not alias; copy the slice out
          // first (std::allocator: not on the mem:: tally).
          const std::vector<u8> slice(r.begin() + a, r.begin() + a + len);
          tb = tally_of([&] {
            b.insert(b.begin() + pos, b.begin() + a, b.begin() + a + len);
          });
          tr = tally_of([&] { r.insert(r.begin() + pos, slice.begin(), slice.end()); });
          break;
        }
        case 3: {
          const std::size_t len = rng.below(r.size() - pos + 1);
          tb = tally_of([&] { b.erase(b.begin() + pos, b.begin() + pos + len); });
          tr = tally_of([&] { r.erase(r.begin() + pos, r.begin() + pos + len); });
          break;
        }
        case 4:
        case 8:
          tb = tally_of([&] { b.resize(n); });
          tr = tally_of([&] { r.resize(n); });
          break;
        case 5:
          tb = tally_of([&] { b.reserve(n); });
          tr = tally_of([&] { r.reserve(n); });
          break;
        case 9:
          tb = tally_of([&] { b.assign(n, v); });
          tr = tally_of([&] { r.assign(n, v); });
          break;
        case 10:
          tb = tally_of([&] { b.assign(src.begin(), src.end()); });
          tr = tally_of([&] { r.assign(src.begin(), src.end()); });
          break;
        case 11: {  // copy, copy-assign and move round trips
          tb = tally_of([&] {
            Bytes c(b);
            Bytes d;
            d = c;
            b = std::move(d);
            EXPECT_TRUE(d.empty());
            EXPECT_EQ(d.capacity(), 0u);
          });
          tr = tally_of([&] {
            Ref c(r);
            Ref d;
            d = c;
            r = std::move(d);
          });
          break;
        }
      }
      ASSERT_EQ(tb.count, tr.count) << "round " << round << " step " << step
                                    << " op " << kind;
      ASSERT_EQ(tb.bytes, tr.bytes) << "round " << round << " step " << step
                                    << " op " << kind;
      ASSERT_EQ(b.size(), r.size());
      ASSERT_EQ(b.capacity(), r.capacity());
      ASSERT_TRUE(std::equal(b.begin(), b.end(), r.begin()))
          << "round " << round << " step " << step << " op " << kind;
    }
  }
}

TEST(BytesDifferential, VectorSurface) {
  const Bytes il = {1, 2, 3};
  const Bytes filled(4, 7);
  EXPECT_EQ(filled, Bytes({7, 7, 7, 7}));
  EXPECT_EQ(Bytes(3), Bytes({0, 0, 0}));
  const std::string text = "abc";
  EXPECT_EQ(Bytes(text.begin(), text.end()), Bytes({'a', 'b', 'c'}));
  Bytes a = il;
  a.erase(a.begin(), a.begin() + 1);
  EXPECT_EQ(a, Bytes({2, 3}));
  Bytes b;
  a.swap(b);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(b, Bytes({2, 3}));
  b.clear();
  EXPECT_TRUE(b.empty());
  EXPECT_GE(b.capacity(), 2u);
  Bytes moved = std::move(b);
  EXPECT_EQ(b.capacity(), 0u);
  EXPECT_EQ(b.data(), nullptr);
  // A zero-sized buffer never asks the allocator for anything.
  const mem::AllocTally before = mem::snapshot();
  Bytes none(0);
  Bytes none_copy(none);
  none_copy.reserve(0);
  EXPECT_EQ(mem::delta(before).count, 0u);
}

TEST(GatherList, CopyOutAtOffsets) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {4, 5, 6, 7};
  GatherList gl;
  gl.add(ConstByteSpan{a});
  gl.add(ConstByteSpan{b});
  EXPECT_EQ(gl.total_size(), 7u);

  Bytes out(4, 0);
  EXPECT_EQ(gl.copy_out(2, ByteSpan{out}), 4u);
  EXPECT_EQ(out, (Bytes{3, 4, 5, 6}));

  Bytes tail(10, 0);
  EXPECT_EQ(gl.copy_out(5, ByteSpan{tail}), 2u);  // clamped at end
  EXPECT_EQ(tail[0], 6);
  EXPECT_EQ(tail[1], 7);
}

TEST(ScatterList, CopyInAcrossSegments) {
  Bytes a(3, 0), b(4, 0);
  ScatterList sl;
  sl.add(ByteSpan{a});
  sl.add(ByteSpan{b});
  const Bytes src = {9, 8, 7, 6};
  EXPECT_EQ(sl.copy_in(2, ConstByteSpan{src}), 4u);
  EXPECT_EQ(a, (Bytes{0, 0, 9}));
  EXPECT_EQ(b, (Bytes{8, 7, 6, 0}));
}

TEST(WireCodec, RoundtripAllWidths) {
  Bytes buf;
  WireWriter w(buf);
  w.u8be(0xAB);
  w.u16be(0x1234);
  w.u32be(0xDEADBEEF);
  w.u64be(0x0123456789ABCDEFull);
  const Bytes tail = {1, 2, 3};
  w.bytes(ConstByteSpan{tail});

  WireReader r(ConstByteSpan{buf});
  EXPECT_EQ(r.u8be(), 0xAB);
  EXPECT_EQ(r.u16be(), 0x1234);
  EXPECT_EQ(r.u32be(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64be(), 0x0123456789ABCDEFull);
  auto rest = r.rest();
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(), rest.begin()));
  EXPECT_TRUE(r.ok());
}

TEST(WireCodec, UnderflowSetsError) {
  const Bytes two = {1, 2};
  WireReader r(ConstByteSpan{two});
  EXPECT_EQ(r.u32be(), 0u);
  EXPECT_FALSE(r.ok());
  // Further reads stay zero and flagged.
  EXPECT_EQ(r.u8be(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(WireCodec, BigEndianOnTheWire) {
  Bytes buf;
  WireWriter w(buf);
  w.u32be(0x01020304);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[3], 0x04);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 10; ++i)
    if (a2.next_u64() != c.next_u64()) differs = true;
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const i64 v = rng.range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(99);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.05) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.05, 0.005);
}

TEST(RunningStat, Moments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.01);  // sample stddev
}

TEST(Samples, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.median(), 50.5, 0.01);
  EXPECT_NEAR(s.percentile(0), 1.0, 0.01);
  EXPECT_NEAR(s.percentile(100), 100.0, 0.01);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.1);
}

TEST(SizeSweep, PowersOfTwoInclusive) {
  const auto v = size_sweep(1, 1024);
  ASSERT_EQ(v.size(), 11u);
  EXPECT_EQ(v.front(), 1u);
  EXPECT_EQ(v.back(), 1024u);
}

TEST(MemLedger, ChargeAndRefund) {
  auto ledger = std::make_shared<MemLedger>();
  {
    MemCharge c(ledger, "a", 100);
    MemCharge d(ledger, "b", 50);
    EXPECT_EQ(ledger->total(), 150);
    EXPECT_EQ(ledger->category("a"), 100);
    c.resize(200);
    EXPECT_EQ(ledger->total(), 250);
  }
  EXPECT_EQ(ledger->total(), 0);
}

TEST(MemLedger, MoveTransfersOwnership) {
  auto ledger = std::make_shared<MemLedger>();
  MemCharge a(ledger, "x", 10);
  MemCharge b = std::move(a);
  EXPECT_EQ(ledger->total(), 10);
  a = MemCharge(ledger, "x", 5);  // old (moved-from) slot reused
  EXPECT_EQ(ledger->total(), 15);
}

TEST(MemLedger, ChargeOutlivesLedgerHandleSafely) {
  MemCharge survivor;
  {
    auto ledger = std::make_shared<MemLedger>();
    survivor = MemCharge(ledger, "late", 42);
    EXPECT_EQ(ledger->total(), 42);
  }
  // The ledger is kept alive by the charge; releasing must not crash.
  survivor = MemCharge();
}

TEST(Status, CodesAndMessages) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  Status err(Errc::kCrcError, "boom");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), Errc::kCrcError);
  EXPECT_EQ(err.to_string(), "CRC_ERROR: boom");
}

TEST(ResultT, ValueAndError) {
  Result<int> good(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 7);
  Result<int> bad(Errc::kNotFound, "nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), Errc::kNotFound);
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(PatternFill, DeterministicAndSeedSensitive) {
  const Bytes a = make_pattern(64, 1);
  const Bytes b = make_pattern(64, 1);
  const Bytes c = make_pattern(64, 2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace dgiwarp
