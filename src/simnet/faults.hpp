// Fault injection models applied per link direction.
//
// The paper used Linux `tc` to drop packets at fixed rates (Figures 7-8);
// BernoulliLoss reproduces that. GilbertElliott adds bursty WAN-style loss,
// PeriodicLoss gives tests deterministic drop positions, and LinkFlapLoss
// models an interface that goes dark for whole windows of virtual time.
// Beyond loss, a Faults config can also reorder, jitter and *duplicate*
// frames — the adversarial inputs the RD layer's recovery is tested under.
// The CorruptionModel family (bit errors, burst corruption, targeted
// strikes, truncation) damages frames instead of dropping them, which is
// what the stack's CRC32 / checksum machinery is there to catch.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "common/buffer.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace dgiwarp::sim {

/// Decides the fate of each frame traversing a link direction. `now` is the
/// virtual time at which the frame enters the wire, so models may be
/// time-driven (link flaps) as well as count- or probability-driven.
class LossModel {
 public:
  virtual ~LossModel();
  /// True if the frame should be dropped.
  virtual bool should_drop(Rng& rng, TimeNs now) = 0;
};

/// Never drops (default).
class NoLoss final : public LossModel {
 public:
  bool should_drop(Rng&, TimeNs) override { return false; }
};

/// Independent drop with probability `p` — equivalent of `tc ... loss p%`.
class BernoulliLoss final : public LossModel {
 public:
  explicit BernoulliLoss(double p) : p_(p) {}
  bool should_drop(Rng& rng, TimeNs) override { return rng.chance(p_); }

 private:
  double p_;
};

/// Two-state Gilbert-Elliott burst loss: Good state drops with p_good,
/// Bad state with p_bad; transitions g->b / b->g per frame.
class GilbertElliottLoss final : public LossModel {
 public:
  GilbertElliottLoss(double p_g2b, double p_b2g, double p_good, double p_bad)
      : p_g2b_(p_g2b), p_b2g_(p_b2g), p_good_(p_good), p_bad_(p_bad) {}

  bool should_drop(Rng& rng, TimeNs) override {
    if (bad_) {
      if (rng.chance(p_b2g_)) bad_ = false;
    } else {
      if (rng.chance(p_g2b_)) bad_ = true;
    }
    return rng.chance(bad_ ? p_bad_ : p_good_);
  }

 private:
  double p_g2b_, p_b2g_, p_good_, p_bad_;
  bool bad_ = false;
};

/// Drops every `n`-th frame (1-indexed): deterministic for unit tests.
class PeriodicLoss final : public LossModel {
 public:
  explicit PeriodicLoss(u64 n) : n_(n) {}
  bool should_drop(Rng&, TimeNs) override {
    return n_ != 0 && (++count_ % n_) == 0;
  }

 private:
  u64 n_;
  u64 count_ = 0;
};

/// Drops exactly the frames whose (1-indexed) ordinal is in `ordinals`.
/// Ordinals are sorted once; the frame counter only moves forward, so each
/// frame costs one cursor comparison instead of a scan of the whole list.
class TargetedLoss final : public LossModel {
 public:
  explicit TargetedLoss(std::vector<u64> ordinals)
      : ordinals_(std::move(ordinals)) {
    std::sort(ordinals_.begin(), ordinals_.end());
    ordinals_.erase(std::unique(ordinals_.begin(), ordinals_.end()),
                    ordinals_.end());
  }
  bool should_drop(Rng&, TimeNs) override {
    ++count_;
    while (cursor_ < ordinals_.size() && ordinals_[cursor_] < count_)
      ++cursor_;
    if (cursor_ < ordinals_.size() && ordinals_[cursor_] == count_) {
      ++cursor_;
      return true;
    }
    return false;
  }

 private:
  std::vector<u64> ordinals_;
  std::size_t cursor_ = 0;
  u64 count_ = 0;
};

/// Link flap: the direction is down (drops everything) for `down` ns at the
/// start of every `period` ns window, shifted by `phase`. Models interface
/// resets / spanning-tree reconvergence windows deterministically in
/// virtual time.
class LinkFlapLoss final : public LossModel {
 public:
  LinkFlapLoss(TimeNs period, TimeNs down, TimeNs phase = 0)
      : period_(period > 0 ? period : 1), down_(down), phase_(phase) {}
  bool should_drop(Rng&, TimeNs now) override {
    return (now + phase_) % period_ < down_;
  }

 private:
  TimeNs period_;
  TimeNs down_;
  TimeNs phase_;
};

/// One edit a CorruptionModel makes to a frame: flip the bits of
/// `xor_mask` in byte `offset`, or, when `xor_mask == 0`, truncate the
/// payload to `offset` bytes.
struct Strike {
  std::size_t offset = 0;
  u8 xor_mask = 0;
};

/// Damages frame payloads in flight. Unlike LossModel the frame survives —
/// possibly with flipped bits or a missing tail — which is exactly what the
/// stack's CRCs / checksums exist to catch. A model decides from a
/// read-only view: `plan` appends its strikes for this frame, in the order
/// they apply, drawing the same random numbers as damaging in place. Link
/// copies the payload only when there is a strike, then marks the frame
/// corrupted so upper layers can account for silent escapes when CRC is
/// off.
class CorruptionModel {
 public:
  virtual ~CorruptionModel();
  virtual void plan(Rng& rng, TimeNs now, ConstByteSpan payload,
                    std::vector<Strike>& out) = 0;

  /// Apply `strikes` to `payload` in order.
  static void apply(const std::vector<Strike>& strikes, Bytes& payload);
  /// Plan and apply in place; true if anything struck.
  bool corrupt(Rng& rng, TimeNs now, Bytes& payload);
};

/// Never corrupts (default).
class NoCorruption final : public CorruptionModel {
 public:
  void plan(Rng&, TimeNs, ConstByteSpan, std::vector<Strike>&) override {}
};

/// Independent per-byte bit errors: each payload byte is hit with
/// probability `byte_error_rate`; a hit flips one random bit. This is the
/// classic memoryless BER channel.
class BernoulliCorruption final : public CorruptionModel {
 public:
  explicit BernoulliCorruption(double byte_error_rate)
      : rate_(byte_error_rate) {}

  void plan(Rng& rng, TimeNs, ConstByteSpan payload,
            std::vector<Strike>& out) override {
    plan_bit_errors(rng, rate_, payload.size(), out);
  }

  /// One chance draw per byte; a hit draws which bit flips.
  static void plan_bit_errors(Rng& rng, double rate, std::size_t len,
                              std::vector<Strike>& out) {
    if (rate <= 0.0) return;
    for (std::size_t i = 0; i < len; ++i)
      if (rng.chance(rate))
        out.push_back({i, static_cast<u8>(1u << rng.below(8))});
  }

 private:
  double rate_;
};

/// Two-state Gilbert-Elliott burst corruption: the channel moves between a
/// Good and a Bad state once per frame, and bytes are damaged at the state's
/// BER. Models interference bursts / marginal optics where whole frames are
/// peppered rather than single bits flipping in isolation.
class GilbertElliottCorruption final : public CorruptionModel {
 public:
  GilbertElliottCorruption(double p_g2b, double p_b2g, double rate_good,
                           double rate_bad)
      : p_g2b_(p_g2b), p_b2g_(p_b2g), rate_good_(rate_good),
        rate_bad_(rate_bad) {}

  void plan(Rng& rng, TimeNs, ConstByteSpan payload,
            std::vector<Strike>& out) override {
    if (bad_) {
      if (rng.chance(p_b2g_)) bad_ = false;
    } else {
      if (rng.chance(p_g2b_)) bad_ = true;
    }
    BernoulliCorruption::plan_bit_errors(rng, bad_ ? rate_bad_ : rate_good_,
                                         payload.size(), out);
  }

 private:
  double p_g2b_, p_b2g_, rate_good_, rate_bad_;
  bool bad_ = false;
};

/// One deterministic strike: damage frame `frame` (1-indexed ordinal through
/// this model) at byte `offset`. `xor_mask != 0` flips those bits;
/// `xor_mask == 0` truncates the payload at `offset` instead. Offsets past
/// the end clamp (modulo for flips, min for truncation) so a target always
/// lands somewhere observable.
struct CorruptTarget {
  u64 frame = 0;
  std::size_t offset = 0;
  u8 xor_mask = 0xFF;
};

/// Corrupts exactly the frames named by `targets` — deterministic bit
/// surgery for unit tests ("flip byte 7 of frame 3"). Same sorted-cursor
/// scheme as TargetedLoss; multiple targets may name the same frame.
class TargetedCorruption final : public CorruptionModel {
 public:
  explicit TargetedCorruption(std::vector<CorruptTarget> targets)
      : targets_(std::move(targets)) {
    std::sort(targets_.begin(), targets_.end(),
              [](const CorruptTarget& a, const CorruptTarget& b) {
                return a.frame < b.frame;
              });
  }

  void plan(Rng&, TimeNs, ConstByteSpan payload,
            std::vector<Strike>& out) override {
    ++count_;
    while (cursor_ < targets_.size() && targets_[cursor_].frame < count_)
      ++cursor_;
    std::size_t len = payload.size();  // as earlier strikes leave it
    while (cursor_ < targets_.size() && targets_[cursor_].frame == count_) {
      const CorruptTarget& t = targets_[cursor_++];
      if (len == 0) continue;
      if (t.xor_mask == 0) {
        const std::size_t keep = std::min(t.offset, len);
        if (keep < len) {
          out.push_back({keep, 0});
          len = keep;
        }
      } else {
        out.push_back({t.offset % len, t.xor_mask});
      }
    }
  }

 private:
  std::vector<CorruptTarget> targets_;
  std::size_t cursor_ = 0;
  u64 count_ = 0;
};

/// Truncation channel: with probability `rate` the frame loses a random
/// suffix (a cut-through switch forwarding a frame whose tail died on the
/// wire). The surviving prefix is uniform in [0, len).
class TruncationCorruption final : public CorruptionModel {
 public:
  explicit TruncationCorruption(double rate) : rate_(rate) {}

  void plan(Rng& rng, TimeNs, ConstByteSpan payload,
            std::vector<Strike>& out) override {
    if (rate_ <= 0.0 || payload.empty()) return;
    if (!rng.chance(rate_)) return;
    out.push_back({static_cast<std::size_t>(rng.below(payload.size())), 0});
  }

 private:
  double rate_;
};

/// Full fault configuration for one link direction.
struct Faults {
  std::unique_ptr<LossModel> loss;  // null => no loss
  std::unique_ptr<CorruptionModel> corruption;  // null => no corruption
  double reorder_rate = 0.0;        // probability a frame is delayed extra
  TimeNs reorder_delay = 0;         // extra delay applied to reordered frames
  TimeNs jitter = 0;                // uniform [0, jitter) added per frame
  double dup_rate = 0.0;            // probability a frame is delivered twice
  TimeNs dup_delay = 2 * kMicrosecond;  // lag of the duplicate copy
  /// Dedicated RNG for this fault configuration. When set, every stochastic
  /// decision (loss, corruption, jitter, reorder, duplication) draws from it
  /// instead of the fabric-wide stream, so faults on one link can never
  /// perturb the seeded draw sequence observed by traffic elsewhere in the
  /// topology. Null (the default) keeps the legacy shared-stream behaviour,
  /// which the fig5-fig11 byte-identical reproductions depend on.
  std::unique_ptr<Rng> rng;

  /// Give this configuration its own deterministic draw stream (fault
  /// isolation across links). Returns *this for chaining:
  ///   topo.trunk_up(0).set_faults(sim::Faults::bernoulli(0.05).isolated(7));
  Faults&& isolated(u64 seed) && {
    rng = std::make_unique<Rng>(seed);
    return std::move(*this);
  }

  static Faults none() { return {}; }
  static Faults bernoulli(double p) {
    Faults f;
    f.loss = std::make_unique<BernoulliLoss>(p);
    return f;
  }
  static Faults duplicating(double rate, TimeNs delay = 2 * kMicrosecond) {
    Faults f;
    f.dup_rate = rate;
    f.dup_delay = delay;
    return f;
  }
  static Faults flapping(TimeNs period, TimeNs down, TimeNs phase = 0) {
    Faults f;
    f.loss = std::make_unique<LinkFlapLoss>(period, down, phase);
    return f;
  }
  static Faults bit_errors(double byte_error_rate) {
    Faults f;
    f.corruption = std::make_unique<BernoulliCorruption>(byte_error_rate);
    return f;
  }
  static Faults truncating(double rate) {
    Faults f;
    f.corruption = std::make_unique<TruncationCorruption>(rate);
    return f;
  }
  static Faults targeted_corruption(std::vector<CorruptTarget> targets) {
    Faults f;
    f.corruption = std::make_unique<TargetedCorruption>(std::move(targets));
    return f;
  }
};

}  // namespace dgiwarp::sim
