// Move-only type-erased callable (std::move_only_function arrives in C++23).
//
// Simulator events frequently capture std::unique_ptr<Packet>, which makes
// the lambdas move-only and thus incompatible with std::function. This is a
// minimal replacement supporting exactly what the event queue needs:
// construction from any callable, move, and invocation.
//
// Storage is small-buffer-optimised: callables that fit kInlineSize bytes
// (and are nothrow-move-constructible, so moves can stay noexcept) live
// inside the UniqueFunction itself; larger or throwing-move callables fall
// back to the heap. Every event callback in the simulator's hot paths —
// protocol timers and packet hand-offs capture at most a pointer or two
// plus a PacketPtr — fits inline, which removes one allocation and one free
// per scheduled event; the callback slab recycles those inline bytes slot
// by slot (see sim/simulator.h). Per-hop port events are typed events and
// carry no UniqueFunction at all.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace dcpim {

template <typename Signature>
class UniqueFunction;

template <typename R, typename... Args>
class UniqueFunction<R(Args...)> {
 public:
  /// Inline capacity: a PacketPtr (16 bytes) and up to four pointers of
  /// captures before anything spills to the heap.
  static constexpr std::size_t kInlineSize = 48;

  UniqueFunction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, UniqueFunction> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  UniqueFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(&storage_)) D(std::forward<F>(f));
      invoke_ = &invoke_inline<D>;
      manage_ = &manage_inline<D>;
    } else {
      // Cold fallback: every hot-path callable in the tree fits inline.
      *reinterpret_cast<D**>(&storage_) = new D(std::forward<F>(f));
      invoke_ = &invoke_heap<D>;
      manage_ = &manage_heap<D>;
    }
  }

  UniqueFunction(UniqueFunction&& other) noexcept { move_from(other); }

  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() { reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }

  R operator()(Args... args) {
    return invoke_(&storage_, std::forward<Args>(args)...);
  }

 private:
  enum class Op { kDestroy, kMove };

  using Invoke = R (*)(void*, Args&&...);
  /// kDestroy: destroy the callable at `self` (`other` unused).
  /// kMove: move-construct `self`'s callable from `other`'s bytes and
  /// destroy the source; both operations are noexcept by construction.
  using Manage = void (*)(void* self, void* other, Op);

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineSize &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static R invoke_inline(void* s, Args&&... args) {
    return (*static_cast<D*>(s))(std::forward<Args>(args)...);
  }

  template <typename D>
  static R invoke_heap(void* s, Args&&... args) {
    return (**static_cast<D**>(s))(std::forward<Args>(args)...);
  }

  template <typename D>
  static void manage_inline(void* self, void* other, Op op) {
    if (op == Op::kMove) {
      D* src = static_cast<D*>(other);
      ::new (self) D(std::move(*src));
      src->~D();
    } else {
      static_cast<D*>(self)->~D();
    }
  }

  template <typename D>
  static void manage_heap(void* self, void* other, Op op) {
    if (op == Op::kMove) {
      *static_cast<D**>(self) = *static_cast<D**>(other);
    } else {
      delete *static_cast<D**>(self);
    }
  }

  void move_from(UniqueFunction& other) noexcept {
    if (other.manage_ != nullptr) {
      other.manage_(&storage_, &other.storage_, Op::kMove);
      invoke_ = other.invoke_;
      manage_ = other.manage_;
      other.invoke_ = nullptr;
      other.manage_ = nullptr;
    }
  }

  void reset() noexcept {
    if (manage_ != nullptr) {
      manage_(&storage_, nullptr, Op::kDestroy);
      invoke_ = nullptr;
      manage_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte storage_[kInlineSize];
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
};

}  // namespace dcpim
