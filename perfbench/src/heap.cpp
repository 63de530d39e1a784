#include "heap.hpp"

#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

// Plain counters: the simulator and this benchmark are single-threaded, and
// an atomic increment per allocation would itself show up in the numbers.
std::uint64_t g_allocs = 0;
std::uint64_t g_bytes = 0;

void* try_alloc(std::size_t n, std::size_t align) {
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n);
  } else {
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded = (n + align - 1) / align * align;
    if (rounded < n) return nullptr;
    p = std::aligned_alloc(align, rounded);
  }
  if (p) {
    ++g_allocs;
    g_bytes += n;
  }
  return p;
}

void* alloc_or_throw(std::size_t n, std::size_t align) {
  for (;;) {
    if (void* p = try_alloc(n, align)) return p;
    std::new_handler h = std::get_new_handler();
    if (!h) throw std::bad_alloc();
    h();
  }
}

void* alloc_nothrow(std::size_t n, std::size_t align) noexcept {
  try {
    return alloc_or_throw(n, align);
  } catch (...) {
    return nullptr;
  }
}

constexpr std::size_t kDefault = alignof(std::max_align_t);

}  // namespace

namespace perfbench::heap {

Tally snapshot() { return Tally{g_allocs, g_bytes}; }

}  // namespace perfbench::heap

void* operator new(std::size_t n) { return alloc_or_throw(n, kDefault); }
void* operator new[](std::size_t n) { return alloc_or_throw(n, kDefault); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return alloc_nothrow(n, kDefault);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return alloc_nothrow(n, kDefault);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return alloc_nothrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return alloc_nothrow(n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
