// Link-layer frame carried across the simulated fabric.
#pragma once

#include <cstring>
#include <new>
#include <utility>

#include "common/buffer.hpp"
#include "common/memcount.hpp"
#include "common/types.hpp"

namespace dgiwarp::sim {

/// Immutable, reference-counted frame payload. One heap block holds the
/// count, the length and the bytes, so copying a Payload (and with it a
/// Frame) is a count bump: a switch flood, a duplicated frame and every
/// closure that captures a frame share one buffer. Readers only get const
/// views; the bytes are written once, when the block is built (IpLayer
/// frames its fragments straight into one, Link copies on write when a
/// corruption model damages a frame). The count is a plain integer — the
/// simulator is single-threaded, as common/memcount.hpp already assumes —
/// and the block is allocated through the same mem:: tally as `Bytes`.
class Payload {
 public:
  Payload() = default;
  /// Copy `bytes` into a new block (empty input allocates nothing).
  explicit Payload(ConstByteSpan bytes) : Payload(bytes.size()) {
    if (!bytes.empty()) std::memcpy(writable(), bytes.data(), bytes.size());
  }
  /// `n` copies of `value`.
  Payload(std::size_t n, u8 value) : Payload(n) {
    if (n > 0) std::memset(writable(), value, n);
  }
  /// Build an `n`-byte payload in place: `fill` receives the block's only
  /// mutable view and must write all of it.
  template <typename Fill>
  static Payload build(std::size_t n, Fill&& fill) {
    Payload p(n);
    fill(ByteSpan{p.writable(), n});
    return p;
  }

  Payload(const Payload& o) noexcept : block_(o.block_) {
    if (block_) ++block_->refs;
  }
  Payload(Payload&& o) noexcept : block_(std::exchange(o.block_, nullptr)) {}
  Payload& operator=(Payload o) noexcept {
    std::swap(block_, o.block_);
    return *this;
  }
  ~Payload() {
    if (block_ && --block_->refs == 0) {
      mem::CountingAllocator<u8>().deallocate(reinterpret_cast<u8*>(block_),
                                              sizeof(Block) + block_->size);
    }
  }

  const u8* data() const { return block_ ? writable() : nullptr; }
  std::size_t size() const { return block_ ? block_->size : 0; }
  bool empty() const { return size() == 0; }
  const u8& operator[](std::size_t i) const { return data()[i]; }
  const u8* begin() const { return data(); }
  const u8* end() const { return data() + size(); }
  ConstByteSpan span() const { return {data(), size()}; }
  /// Owners of this buffer (0 for an empty payload); for tests.
  std::size_t use_count() const { return block_ ? block_->refs : 0; }

 private:
  struct Block {
    std::size_t refs;
    std::size_t size;
  };

  /// An uninitialised `n`-byte block with one owner (none when n == 0).
  explicit Payload(std::size_t n) {
    if (n == 0) return;
    u8* raw = mem::CountingAllocator<u8>().allocate(sizeof(Block) + n);
    block_ = new (raw) Block{1, n};
  }
  u8* writable() const { return reinterpret_cast<u8*>(block_ + 1); }

  Block* block_ = nullptr;
};

/// Link-layer address. For simplicity the fabric uses the host's IPv4-style
/// address directly (no ARP); the switch learns them like MACs.
using LinkAddr = u32;

inline constexpr LinkAddr kBroadcast = 0xFFFFFFFFu;

/// Bytes a frame occupies on the wire beyond its payload: Ethernet header
/// (14) + FCS (4) + preamble/SFD (8) + inter-frame gap (12).
inline constexpr std::size_t kEthernetOverhead = 38;

struct Frame {
  LinkAddr src = 0;
  LinkAddr dst = 0;
  u16 proto = 0;  // ethertype-like demux key (kProtoIpv4 in practice)
  Payload payload;  // shared and immutable: copying a Frame copies no bytes
  u64 id = 0;  // unique id for tracing / loss diagnostics
  // Message-lifecycle span carrying this frame (telemetry/span.hpp); 0 when
  // span tracking is off or the frame is transport control (pure ACKs).
  // Purely observational — never consulted by protocol logic and not part
  // of any wire format.
  u64 span = 0;
  // Set by Link when a CorruptionModel damaged the payload in flight. The
  // taint rides the frame through the switch and up the receive stack so
  // layers can count silent escapes when their CRC/checksum is disabled;
  // real NICs obviously have no such oracle — it exists purely for
  // measurement and is never consulted by protocol logic.
  bool corrupted = false;
  // Congestion-experienced (ECN CE) bit, set by a Link whose output queue
  // was at or above its ecn_threshold when this frame was enqueued. Unlike
  // `corrupted` this IS protocol-visible: it rides the IP/UDP receive path
  // (HostCtx::rx_ecn) into the RD/UD receivers, which echo it back to the
  // sender's RateController (src/cc/). Always false when no link has a
  // marking threshold configured — the default fabric never sets it.
  bool ecn = false;

  std::size_t wire_bytes() const { return payload.size() + kEthernetOverhead; }
};

inline constexpr u16 kProtoIpv4 = 0x0800;

}  // namespace dgiwarp::sim
