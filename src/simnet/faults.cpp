#include "simnet/faults.hpp"

// Fault models are header-only today; this TU anchors the vtables.

namespace dgiwarp::sim {

// Key function anchors.
LossModel::~LossModel() = default;
CorruptionModel::~CorruptionModel() = default;

void CorruptionModel::apply(const std::vector<Strike>& strikes,
                            Bytes& payload) {
  for (const Strike& s : strikes) {
    if (s.xor_mask == 0)
      payload.resize(s.offset);
    else
      payload[s.offset] ^= s.xor_mask;
  }
}

bool CorruptionModel::corrupt(Rng& rng, TimeNs now, Bytes& payload) {
  std::vector<Strike> strikes;
  plan(rng, now, ConstByteSpan{payload}, strikes);
  apply(strikes, payload);
  return !strikes.empty();
}

}  // namespace dgiwarp::sim
