#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

/// \file counting_alloc_hook.hpp
/// Global operator new/delete replacement that counts every allocation.
///
/// Used by tests/sim/zero_alloc_test.cpp to pin the steady-state
/// zero-allocation guarantee. Covers the plain, nothrow, array and C++17
/// aligned overloads — an over-aligned allocation on the hot path is
/// counted, not missed.
///
/// Replacement allocation functions must not be inline
/// ([replacement.functions]), so this header defines them at namespace
/// scope: include it from EXACTLY ONE translation unit per binary.

namespace snipr::testing {

inline std::atomic<std::uint64_t> alloc_calls{0};
inline std::atomic<std::uint64_t> alloc_bytes{0};

inline void* counted_alloc(std::size_t size) noexcept {
  alloc_calls.fetch_add(1, std::memory_order_relaxed);
  alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

inline void* counted_aligned_alloc(std::size_t size,
                                   std::align_val_t align) noexcept {
  alloc_calls.fetch_add(1, std::memory_order_relaxed);
  alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  std::size_t alignment = static_cast<std::size_t>(align);
  if (alignment < sizeof(void*)) alignment = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, alignment, size == 0 ? 1 : size) != 0) {
    return nullptr;
  }
  return p;
}

}  // namespace snipr::testing

void* operator new(std::size_t size) {
  if (void* p = snipr::testing::counted_alloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return snipr::testing::counted_alloc(size);
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = snipr::testing::counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return snipr::testing::counted_aligned_alloc(size, align);
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return ::operator new(size, align, tag);
}

// GCC's -Wmismatched-new-delete pairs these deletes against the
// replacement news above and flags std::free as mismatched. It is not:
// every replacement path allocates with malloc or posix_memalign, both
// of which are defined to be released by free ([mem.res], POSIX).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
