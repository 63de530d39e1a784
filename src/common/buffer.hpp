// Byte buffers, scatter/gather views and big-endian wire (de)serialization.
//
// The software iWARP stack of the paper "takes advantage of I/O vectors to
// minimize data copying"; GatherList/ScatterList are the equivalents here.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/memcount.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace dgiwarp {

using ByteSpan = std::span<u8>;
using ConstByteSpan = std::span<const u8>;

/// The owning byte buffer every wire path in the stack uses: the
/// std::vector<u8> surface the tree needs, with every copy, fill and shift
/// done as one memcpy/memmove/memset.
///
/// Why not std::vector<u8, mem::CountingAllocator<u8>>: libstdc++ keeps its
/// memmove fast paths for std::allocator only; with any other allocator it
/// copies, moves and inserts one element at a time through
/// allocator_traits::construct, which at -O2 costs ~15x memcpy per byte.
///
/// Allocation still goes through mem::CountingAllocator and follows
/// libstdc++'s rules exactly — exact-size for construction, copy, assign
/// and reserve; `size + max(size, n)` when an append outgrows capacity; no
/// request for zero bytes — so the mem:: tally sees the same requests as
/// the vector it replaces. A moved-from buffer is empty with capacity 0.
class Bytes {
 public:
  using value_type = u8;
  using size_type = std::size_t;
  using difference_type = std::ptrdiff_t;
  using reference = u8&;
  using const_reference = const u8&;
  using pointer = u8*;
  using const_pointer = const u8*;
  using iterator = u8*;
  using const_iterator = const u8*;

  Bytes() noexcept = default;
  explicit Bytes(size_type n) : Bytes(n, u8{0}) {}
  Bytes(size_type n, u8 v) { assign(n, v); }
  template <std::forward_iterator It>
  Bytes(It first, It last) {
    assign(first, last);
  }
  Bytes(std::initializer_list<u8> il) : Bytes(il.begin(), il.end()) {}

  Bytes(const Bytes& o) : Bytes(o.begin(), o.end()) {}
  Bytes(Bytes&& o) noexcept
      : p_(std::exchange(o.p_, nullptr)),
        size_(std::exchange(o.size_, 0)),
        cap_(std::exchange(o.cap_, 0)) {}
  Bytes& operator=(const Bytes& o) {
    if (this != &o) assign(o.begin(), o.end());
    return *this;
  }
  Bytes& operator=(Bytes&& o) noexcept {
    if (this != &o) {
      release();
      p_ = std::exchange(o.p_, nullptr);
      size_ = std::exchange(o.size_, 0);
      cap_ = std::exchange(o.cap_, 0);
    }
    return *this;
  }
  ~Bytes() { release(); }

  u8* data() noexcept { return p_; }
  const u8* data() const noexcept { return p_; }
  size_type size() const noexcept { return size_; }
  size_type capacity() const noexcept { return cap_; }
  bool empty() const noexcept { return size_ == 0; }

  iterator begin() noexcept { return p_; }
  iterator end() noexcept { return p_ + size_; }
  const_iterator begin() const noexcept { return p_; }
  const_iterator end() const noexcept { return p_ + size_; }

  u8& operator[](size_type i) {
    assert(i < size_);
    return p_[i];
  }
  const u8& operator[](size_type i) const {
    assert(i < size_);
    return p_[i];
  }

  void reserve(size_type n) {
    if (n > cap_) reallocate_exact(n);
  }
  /// Grows zero-filled; shrinking keeps the capacity.
  void resize(size_type n) {
    if (n > size_) {
      if (n > cap_) grow_for(n - size_);
      std::memset(p_ + size_, 0, n - size_);
    }
    size_ = n;
  }
  void clear() noexcept { size_ = 0; }

  void assign(size_type n, u8 v) {
    if (n > cap_) adopt(allocate(n), 0, n);
    if (n) std::memset(p_, v, n);
    size_ = n;
  }
  template <std::forward_iterator It>
  void assign(It first, It last) {
    const auto n = static_cast<size_type>(std::distance(first, last));
    if (n > cap_) {
      u8* fresh = allocate(n);
      put(fresh, first, n);
      adopt(fresh, n, n);
    } else {
      put(p_, first, n);
      size_ = n;
    }
  }

  void push_back(u8 v) {
    if (size_ == cap_) grow_for(1);
    p_[size_++] = v;
  }

  /// Insert [first, last) before `pos`. The range may lie inside this
  /// buffer: the result is as if it had been copied out first.
  template <std::forward_iterator It>
  iterator insert(const_iterator pos, It first, It last) {
    const auto at = static_cast<size_type>(pos - p_);
    const auto n = static_cast<size_type>(std::distance(first, last));
    if (n == 0) return p_ + at;
    if (n > cap_ - size_) {
      // Fresh block: the old one, and any source inside it, stays valid
      // until every byte has been copied.
      const size_type cap = grown_capacity(n);
      u8* fresh = allocate(cap);
      copy_bytes(fresh, p_, at);
      put(fresh + at, first, n);
      copy_bytes(fresh + at + n, p_ + at, size_ - at);
      adopt(fresh, size_ + n, cap);
      return p_ + at;
    }
    std::memmove(p_ + at + n, p_ + at, size_ - at);
    size_ += n;
    if constexpr (kContiguousBytes<It>) {
      const u8* src = reinterpret_cast<const u8*>(std::to_address(first));
      if (src >= p_ && src < p_ + size_) {
        // Source bytes at or after `at` have just moved up by n.
        const auto off = static_cast<size_type>(src - p_);
        const size_type below = off < at ? std::min(n, at - off) : 0;
        std::memmove(p_ + at, src, below);
        std::memmove(p_ + at + below, p_ + std::max(off, at) + n, n - below);
        return p_ + at;
      }
    }
    put(p_ + at, first, n);
    return p_ + at;
  }

  iterator erase(const_iterator first, const_iterator last) {
    const auto a = static_cast<size_type>(first - p_);
    const auto b = static_cast<size_type>(last - p_);
    if (a != b) {
      std::memmove(p_ + a, p_ + b, size_ - b);
      size_ -= b - a;
    }
    return p_ + a;
  }

  void swap(Bytes& o) noexcept {
    std::swap(p_, o.p_);
    std::swap(size_, o.size_);
    std::swap(cap_, o.cap_);
  }
  friend void swap(Bytes& a, Bytes& b) noexcept { a.swap(b); }

  friend bool operator==(const Bytes& a, const Bytes& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.p_, b.p_, a.size_) == 0);
  }

 private:
  // Iterators whose elements are raw bytes laid out contiguously: copied
  // with one memcpy.
  template <typename It>
  static constexpr bool kContiguousBytes =
      std::contiguous_iterator<It> && sizeof(std::iter_value_t<It>) == 1 &&
      std::is_trivially_copyable_v<std::iter_value_t<It>>;

  static u8* allocate(size_type n) {
    return n ? mem::CountingAllocator<u8>().allocate(n) : nullptr;
  }
  static void copy_bytes(u8* dst, const u8* src, size_type n) {
    if (n) std::memcpy(dst, src, n);
  }
  // libstdc++'s _M_check_len: room for n more without quadratic regrowth.
  size_type grown_capacity(size_type n) const {
    constexpr auto kMax =
        static_cast<size_type>(std::numeric_limits<difference_type>::max());
    if (n > kMax - size_) throw std::length_error("Bytes: too large");
    return std::min(size_ + std::max(size_, n), kMax);
  }
  void grow_for(size_type n) { reallocate_exact(grown_capacity(n)); }
  void reallocate_exact(size_type n) {
    u8* fresh = allocate(n);
    copy_bytes(fresh, p_, size_);
    adopt(fresh, size_, n);
  }
  void adopt(u8* fresh, size_type size, size_type cap) {
    release();
    p_ = fresh;
    size_ = size;
    cap_ = cap;
  }
  void release() noexcept {
    if (p_) mem::CountingAllocator<u8>().deallocate(p_, cap_);
  }
  // Copy n elements from `first` to dst; dst may overlap a contiguous
  // source only when the caller has allowed for it (assign in place).
  template <typename It>
  static void put(u8* dst, It first, size_type n) {
    if constexpr (kContiguousBytes<It>) {
      if (n)
        std::memmove(dst, reinterpret_cast<const u8*>(std::to_address(first)),
                     n);
    } else {
      for (size_type i = 0; i < n; ++i, ++first)
        dst[i] = static_cast<u8>(*first);
    }
  }

  u8* p_ = nullptr;
  size_type size_ = 0;
  size_type cap_ = 0;
};

/// A gather list: ordered non-owning views of source data to transmit.
class GatherList {
 public:
  GatherList() = default;
  explicit GatherList(ConstByteSpan one) { add(one); }

  void add(ConstByteSpan s) {
    if (s.empty()) return;
    segs_.push_back(s);
    total_ += s.size();
  }

  std::size_t total_size() const { return total_; }
  bool empty() const { return total_ == 0; }
  const std::vector<ConstByteSpan>& segments() const { return segs_; }

  /// Copy `len` bytes starting at logical offset `off` into `dst`.
  /// Returns bytes actually copied (clamped at the gather list's end).
  std::size_t copy_out(std::size_t off, ByteSpan dst) const {
    std::size_t copied = 0;
    std::size_t pos = 0;
    for (const auto& s : segs_) {
      if (copied == dst.size()) break;
      const std::size_t seg_end = pos + s.size();
      if (seg_end > off) {
        const std::size_t start = off > pos ? off - pos : 0;
        const std::size_t n =
            std::min(s.size() - start, dst.size() - copied);
        std::memcpy(dst.data() + copied, s.data() + start, n);
        copied += n;
        off += n;
      }
      pos = seg_end;
    }
    return copied;
  }

  /// Flatten the whole gather list into a single owned buffer.
  Bytes flatten() const {
    Bytes out(total_);
    copy_out(0, ByteSpan{out});
    return out;
  }

 private:
  std::vector<ConstByteSpan> segs_;
  std::size_t total_ = 0;
};

/// A scatter list: ordered non-owning views of sink buffers to receive into.
class ScatterList {
 public:
  ScatterList() = default;
  explicit ScatterList(ByteSpan one) { add(one); }

  void add(ByteSpan s) {
    if (s.empty()) return;
    segs_.push_back(s);
    total_ += s.size();
  }

  std::size_t total_size() const { return total_; }
  const std::vector<ByteSpan>& segments() const { return segs_; }

  /// Copy `src` into the scatter list starting at logical offset `off`.
  /// Returns bytes actually placed (clamped at the scatter list's end).
  std::size_t copy_in(std::size_t off, ConstByteSpan src) const {
    std::size_t copied = 0;
    std::size_t pos = 0;
    for (const auto& s : segs_) {
      if (copied == src.size()) break;
      const std::size_t seg_end = pos + s.size();
      if (seg_end > off) {
        const std::size_t start = off > pos ? off - pos : 0;
        const std::size_t n =
            std::min(s.size() - start, src.size() - copied);
        std::memcpy(s.data() + start, src.data() + copied, n);
        copied += n;
        off += n;
      }
      pos = seg_end;
    }
    return copied;
  }

 private:
  std::vector<ByteSpan> segs_;
  std::size_t total_ = 0;
};

/// Appends big-endian fields to an owned byte vector (network byte order,
/// as all iWARP wire headers are defined big-endian).
class WireWriter {
 public:
  explicit WireWriter(Bytes& out) : out_(out) {}

  void u8be(u8 v) { out_.push_back(v); }
  void u16be(u16 v) {
    out_.push_back(static_cast<dgiwarp::u8>(v >> 8));
    out_.push_back(static_cast<dgiwarp::u8>(v));
  }
  void u32be(u32 v) {
    for (int s = 24; s >= 0; s -= 8)
      out_.push_back(static_cast<dgiwarp::u8>(v >> s));
  }
  void u64be(u64 v) {
    for (int s = 56; s >= 0; s -= 8)
      out_.push_back(static_cast<dgiwarp::u8>(v >> s));
  }
  void bytes(ConstByteSpan s) { out_.insert(out_.end(), s.begin(), s.end()); }

 private:
  Bytes& out_;
};

/// Reads big-endian fields from a byte span; underflow is a checked error.
class WireReader {
 public:
  explicit WireReader(ConstByteSpan in) : in_(in) {}

  std::size_t remaining() const { return in_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool ok() const { return ok_; }

  u8 u8be() { return take(1) ? in_[pos_ - 1] : 0; }
  u16 u16be() {
    if (!take(2)) return 0;
    return static_cast<u16>((u16{in_[pos_ - 2]} << 8) | in_[pos_ - 1]);
  }
  u32 u32be() {
    if (!take(4)) return 0;
    u32 v = 0;
    for (std::size_t i = pos_ - 4; i < pos_; ++i) v = (v << 8) | in_[i];
    return v;
  }
  u64 u64be() {
    if (!take(8)) return 0;
    u64 v = 0;
    for (std::size_t i = pos_ - 8; i < pos_; ++i) v = (v << 8) | in_[i];
    return v;
  }
  ConstByteSpan bytes(std::size_t n) {
    if (!take(n)) return {};
    return in_.subspan(pos_ - n, n);
  }
  ConstByteSpan rest() {
    auto r = in_.subspan(pos_);
    pos_ = in_.size();
    return r;
  }

 private:
  bool take(std::size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  ConstByteSpan in_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Convenience: make an owned buffer from a string literal (tests).
inline Bytes bytes_of(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

/// Deterministic pattern fill used by tests to detect misplacement.
inline void fill_pattern(ByteSpan dst, u32 seed) {
  u32 x = seed * 2654435761u + 1u;
  for (auto& b : dst) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<u8>(x);
  }
}

inline Bytes make_pattern(std::size_t n, u32 seed) {
  Bytes b(n);
  fill_pattern(ByteSpan{b}, seed);
  return b;
}

}  // namespace dgiwarp
