// MPA framing tests: marker placement, CRC validation, arbitrary stream
// re-segmentation (property: any chunking of the byte stream yields the
// same ULPDU sequence) and the MULPDU arithmetic.
#include <gtest/gtest.h>

#include <set>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "mpa/mpa.hpp"

namespace dgiwarp {
namespace {

using mpa::MpaConfig;
using mpa::MpaReceiver;
using mpa::MpaSender;

Bytes frame_stream(MpaSender& tx, const std::vector<Bytes>& ulpdus) {
  Bytes stream;
  for (const auto& u : ulpdus) {
    const Bytes f = tx.frame(ConstByteSpan{u});
    stream.insert(stream.end(), f.begin(), f.end());
  }
  return stream;
}

TEST(Mpa, SingleFpduRoundtrip) {
  MpaSender tx;
  MpaReceiver rx;
  std::vector<Bytes> got;
  rx.on_ulpdu([&](Bytes u, bool) { got.push_back(std::move(u)); });
  const Bytes ulpdu = make_pattern(100, 1);
  ASSERT_TRUE(rx.consume(ConstByteSpan{tx.frame(ConstByteSpan{ulpdu})}).ok());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], ulpdu);
}

TEST(Mpa, MarkersAppearEvery512StreamBytes) {
  MpaSender tx;
  // A large ULPDU spans multiple marker positions.
  const Bytes ulpdu = make_pattern(2000, 2);
  const Bytes stream = tx.frame(ConstByteSpan{ulpdu});
  // Stream grows by one marker per 512-byte boundary crossed.
  const std::size_t raw = 2 + 2000 + 2 /*pad*/ + 4;  // len+data+pad+crc
  const std::size_t markers = (stream.size() - raw) / 4;
  EXPECT_GE(markers, 3u);
  EXPECT_LE(markers, 4u);
}

TEST(Mpa, EmptyUlpduIsLegal) {
  MpaSender tx;
  MpaReceiver rx;
  int count = 0;
  rx.on_ulpdu([&](Bytes u, bool) {
    EXPECT_TRUE(u.empty());
    ++count;
  });
  ASSERT_TRUE(rx.consume(ConstByteSpan{tx.frame({})}).ok());
  EXPECT_EQ(count, 1);
}

TEST(Mpa, CrcCorruptionPoisonsStream) {
  MpaSender tx;
  MpaReceiver rx;
  rx.on_ulpdu([](Bytes, bool) {});
  Bytes stream = tx.frame(ConstByteSpan{make_pattern(64, 3)});
  stream[10] ^= 0xFF;
  EXPECT_EQ(rx.consume(ConstByteSpan{stream}).code(), Errc::kCrcError);
  EXPECT_TRUE(rx.poisoned());
  EXPECT_EQ(rx.crc_failures(), 1u);
  // Poisoned streams reject all further input (fatal per spec).
  MpaSender tx2;
  EXPECT_FALSE(rx.consume(ConstByteSpan{tx2.frame({})}).ok());
}

TEST(Mpa, NoMarkersMode) {
  MpaConfig cfg;
  cfg.use_markers = false;
  MpaSender tx(cfg);
  MpaReceiver rx(cfg);
  std::vector<Bytes> got;
  rx.on_ulpdu([&](Bytes u, bool) { got.push_back(std::move(u)); });
  const Bytes big = make_pattern(3000, 4);
  const Bytes stream = tx.frame(ConstByteSpan{big});
  EXPECT_EQ(stream.size(), 2u + 3000 + 2 + 4);  // no marker bytes
  ASSERT_TRUE(rx.consume(ConstByteSpan{stream}).ok());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], big);
}

TEST(Mpa, NoCrcMode) {
  MpaConfig cfg;
  cfg.use_crc = false;
  MpaSender tx(cfg);
  MpaReceiver rx(cfg);
  int count = 0;
  rx.on_ulpdu([&](Bytes, bool) { ++count; });
  ASSERT_TRUE(
      rx.consume(ConstByteSpan{tx.frame(ConstByteSpan{make_pattern(64, 5)})})
          .ok());
  EXPECT_EQ(count, 1);
}

TEST(Mpa, MaxUlpduFitsStreamBudget) {
  for (const bool markers : {true, false}) {
    MpaConfig cfg;
    cfg.use_markers = markers;
    const std::size_t budget = 1452;  // one TCP MSS
    const std::size_t mulpdu = mpa::max_ulpdu_for(budget, cfg);
    ASSERT_GT(mulpdu, 1300u);
    // Framing a MULPDU-sized ULPDU never exceeds the budget, at any
    // starting stream position.
    for (u64 pos : {u64{0}, u64{100}, u64{508}, u64{511}, u64{1000}}) {
      EXPECT_LE(mpa::framed_size(mulpdu, pos, cfg), budget)
          << "markers=" << markers << " pos=" << pos;
    }
  }
}

// The FPDU layout spelled out step by step (stage the FPDU, CRC it, then
// lace markers in by absolute stream position): the oracle the one-pass
// framer is checked against.
Bytes reference_fpdu(ConstByteSpan ulpdu, u64 pos, const MpaConfig& cfg) {
  Bytes fpdu;
  WireWriter w(fpdu);
  w.u16be(static_cast<u16>(ulpdu.size()));
  w.bytes(ulpdu);
  while (fpdu.size() % 4 != 0) w.u8be(0);
  if (cfg.use_crc) w.u32be(crc32_ieee(ConstByteSpan{fpdu}));
  Bytes out;
  const u64 start = pos;
  for (const u8 b : fpdu) {
    if (cfg.use_markers && pos > 0 && pos % mpa::kMarkerInterval == 0) {
      const u64 back = pos - start;
      WireWriter m(out);
      m.u16be(0);
      m.u16be(static_cast<u16>(back));
      pos += mpa::kMarkerBytes;
    }
    out.push_back(b);
    ++pos;
  }
  return out;
}

TEST(Mpa, FrameIntoMatchesFrameAtEveryStreamPhase) {
  const Bytes head = make_pattern(32, 3);
  for (const bool markers : {true, false}) {
    for (const bool crc : {true, false}) {
      MpaConfig cfg;
      cfg.use_markers = markers;
      cfg.use_crc = crc;
      // FPDUs and markers are multiples of 4 bytes, so the stream phase
      // (position mod 512) is too; a lead-in FPDU of each length in turn
      // moves the next FPDU through all 128 of them. One is unreachable
      // with markers and CRC: a stream never stands 4 bytes past a marker
      // (the FPDU that needed the marker continues after it), so phase 4
      // exists only at the stream start, where the shortest FPDU with a
      // CRC already takes 8 bytes.
      std::set<u64> phases;
      for (std::size_t lead = 0; lead < 520; ++lead) {
        MpaSender a(cfg), b(cfg);
        const Bytes lead_in = make_pattern(lead, 1);
        (void)a.frame(ConstByteSpan{lead_in});
        Bytes sink;
        b.frame_into(sink, ConstByteSpan{lead_in}, {});
        const u64 pos = a.stream_position();
        ASSERT_EQ(pos, b.stream_position());
        phases.insert(pos % mpa::kMarkerInterval);

        const Bytes payload = make_pattern(1400 + lead % 7, 4);
        Bytes ulpdu = head;
        ulpdu.insert(ulpdu.end(), payload.begin(), payload.end());
        const Bytes want = reference_fpdu(ConstByteSpan{ulpdu}, pos, cfg);
        ASSERT_EQ(a.frame(ConstByteSpan{ulpdu}), want)
            << "markers=" << markers << " crc=" << crc << " pos=" << pos;
        Bytes out = bytes_of("prefix");
        b.frame_into(out, ConstByteSpan{head}, ConstByteSpan{payload});
        ASSERT_EQ(Bytes(out.begin() + 6, out.end()), want)
            << "markers=" << markers << " crc=" << crc << " pos=" << pos;
        EXPECT_EQ(a.stream_position(), b.stream_position());
      }
      EXPECT_EQ(phases.size(),
                mpa::kMarkerInterval / 4 - (markers && crc ? 1 : 0))
          << "markers=" << markers << " crc=" << crc;
    }
  }
}

// A handler may take the ULPDU as a view (valid for the call) or as an
// owned Bytes (a copy); both see the same bytes.
TEST(Mpa, ViewAndOwningHandlersSeeTheSameUlpdu) {
  MpaSender tx;
  const Bytes ulpdu = make_pattern(999, 8);
  const Bytes stream = tx.frame(ConstByteSpan{ulpdu});
  MpaReceiver by_view, by_copy;
  Bytes viewed, owned;
  by_view.on_ulpdu([&](ConstByteSpan u, bool) {
    viewed.assign(u.begin(), u.end());
  });
  by_copy.on_ulpdu([&](Bytes u, bool) { owned = std::move(u); });
  ASSERT_TRUE(by_view.consume(ConstByteSpan{stream}).ok());
  ASSERT_TRUE(by_copy.consume(ConstByteSpan{stream}).ok());
  EXPECT_EQ(viewed, ulpdu);
  EXPECT_EQ(owned, ulpdu);
}

// Property: any re-chunking of the framed stream (as TCP may deliver it)
// reproduces the identical ULPDU sequence.
class MpaChunking : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MpaChunking, ResegmentationIsTransparent) {
  const std::size_t chunk = GetParam();
  MpaSender tx;
  std::vector<Bytes> sent;
  Rng rng(chunk);
  for (int i = 0; i < 20; ++i)
    sent.push_back(make_pattern(1 + rng.below(1500), static_cast<u32>(i)));
  const Bytes stream = frame_stream(tx, sent);

  MpaReceiver rx;
  std::vector<Bytes> got;
  rx.on_ulpdu([&](Bytes u, bool) { got.push_back(std::move(u)); });
  for (std::size_t off = 0; off < stream.size(); off += chunk) {
    const std::size_t n = std::min(chunk, stream.size() - off);
    ASSERT_TRUE(rx.consume(ConstByteSpan{stream}.subspan(off, n)).ok());
  }
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) EXPECT_EQ(got[i], sent[i]);
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, MpaChunking,
                         ::testing::Values(1, 2, 3, 7, 64, 511, 512, 513,
                                           1460, 8192));

// Property: framed size bookkeeping exactly predicts the sender's output.
class MpaFramedSize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MpaFramedSize, PredictionMatchesActual) {
  const std::size_t len = GetParam();
  MpaSender tx;
  // Advance the stream to a quasi-random position first.
  (void)tx.frame(ConstByteSpan{make_pattern(137, 9)});
  const u64 pos = tx.stream_position();
  const Bytes ulpdu = make_pattern(len, 1);
  const std::size_t predicted = mpa::framed_size(len, pos, MpaConfig{});
  EXPECT_EQ(tx.frame(ConstByteSpan{ulpdu}).size(), predicted);
}

INSTANTIATE_TEST_SUITE_P(UlpduSizes, MpaFramedSize,
                         ::testing::Values(0, 1, 2, 3, 100, 511, 512, 513,
                                           1432, 4096, 65536));

}  // namespace
}  // namespace dgiwarp
