#pragma once

#include <cstddef>
// snipr-lint: allow(hotpath-std-function) this header is the
// InlineCallback definition itself; <functional> is pulled in only for
// std::bad_function_call, never for std::function storage.
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

/// \file inline_callback.hpp
/// Fixed-capacity type-erased callable for the event-loop hot path.
///
/// `std::function` heap-allocates any closure beyond its small-buffer
/// size (16 bytes on libstdc++/libc++) — and the transfer-completion
/// closure in SensorNode::begin_transfer captures ~56 bytes, so every
/// simulated event used to pay a malloc/free pair. InlineCallback embeds
/// the closure directly in its owner (an EventQueue slot, which heap
/// sifts never move), type-erasing only through a static vtable of
/// move/invoke/destroy thunks; a closure that does not fit the capacity
/// is rejected at compile time, so growing a capture list can never
/// silently reintroduce the allocation.

namespace snipr::sim {

/// Move-only owning wrapper over any callable `void()` whose size fits
/// `Capacity` bytes. Construction from a callable is implicit, like
/// `std::function`, so call sites keep passing plain lambdas.
template <std::size_t Capacity>
class InlineCallback {
 public:
  InlineCallback() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InlineCallback>)
  // Implicit by design: call sites pass plain lambdas, mirroring the
  // std::function converting constructor this type replaces.
  InlineCallback(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    static_assert(sizeof(Fn) <= Capacity,
                  "closure exceeds InlineCallback capacity: shrink the "
                  "capture list or raise the EventQueue callback capacity");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "closure is over-aligned for InlineCallback storage");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "closures must be nothrow-movable (slot growth and pops "
                  "move them)");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
    vtable_ = vtable_for<Fn>();
  }

  InlineCallback(InlineCallback&& other) noexcept : vtable_{other.vtable_} {
    if (vtable_ != nullptr) {
      vtable_->relocate(storage_, other.storage_);
      other.vtable_ = nullptr;
    }
  }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      vtable_ = other.vtable_;
      if (vtable_ != nullptr) {
        vtable_->relocate(storage_, other.storage_);
        other.vtable_ = nullptr;
      }
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  /// Destroy the held callable, returning to the empty state.
  void reset() noexcept {
    if (vtable_ != nullptr) {
      vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return vtable_ != nullptr;
  }

  /// Invoke the held callable. Like std::function, calling an empty (or
  /// moved-from) callback throws std::bad_function_call — a diagnosable
  /// failure instead of a null vtable call; the predictable branch costs
  /// nothing measurable on the hot path.
  void operator()() {
    if (vtable_ == nullptr) [[unlikely]] {
      throw std::bad_function_call{};
    }
    vtable_->invoke(storage_);
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    /// Move-construct dst from src, then destroy src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  [[nodiscard]] static const VTable* vtable_for() noexcept {
    static constexpr VTable table{
        [](void* p) { (*static_cast<Fn*>(p))(); },
        [](void* dst, void* src) noexcept {
          ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
          static_cast<Fn*>(src)->~Fn();
        },
        [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); }};
    return &table;
  }

  alignas(std::max_align_t) std::byte storage_[Capacity];
  const VTable* vtable_{nullptr};
};

}  // namespace snipr::sim
