// Whole-heap allocation counting for the benchmark binary.
//
// heap.cpp replaces the global operator new/delete family (plain, array,
// sized, aligned and nothrow forms) for this binary only, so every heap
// allocation the simulator makes is counted — not just the `Bytes` buffers
// that mem::CountingAllocator sees.
#pragma once

#include <cstdint>

namespace perfbench::heap {

struct Tally {
  std::uint64_t allocs = 0;  // operator new calls that returned memory
  std::uint64_t bytes = 0;   // bytes requested by those calls
};

Tally snapshot();

inline Tally delta(const Tally& before) {
  const Tally now = snapshot();
  return Tally{now.allocs - before.allocs, now.bytes - before.bytes};
}

}  // namespace perfbench::heap
