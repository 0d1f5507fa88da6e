// InlineFunction<R(Args...)>: a move-only type-erased callable with fixed
// in-place storage — the generalized form of the scheduler's InlineTask
// (which is now just InlineFunction<void()>).
//
// The simulation schedules millions of small lambdas per run and, since the
// client/operation API redesign, every register operation carries a typed
// completion callable (void(OpOutcome, Value) for reads, void(OpOutcome)
// for writes) through the protocol's pending-operation tables. std::function
// heap-allocates any capture larger than its (implementation-defined,
// typically 16-byte) small buffer, which made every scheduled message
// delivery — and every pending operation — an allocation. InlineFunction
// stores captures up to kInlineCapacity bytes directly inside the object and
// only falls back to the heap for oversized captures; none of the library's
// own lambdas need the fallback (static_asserts on the delivery closures in
// Network::send and Network::schedule_batches guard the hottest ones, and
// the InlineTask tests pin the boundary).
//
// The type is deliberately minimal: construct from a callable, move, invoke,
// destroy. No copy, no target introspection, no allocator awareness — it
// exists purely to keep the event and operation hot paths allocation-free.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace dynreg::sim {

template <typename Sig>
class InlineFunction;  // only the R(Args...) specialization exists

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  /// In-place capture budget, chosen so sizeof(InlineFunction) is exactly
  /// one 64-byte cache line (vtable pointer + storage). 48 bytes fits every
  /// scheduler and completion lambda in the library.
  static constexpr std::size_t kInlineCapacity = 48;

  InlineFunction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& fn) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    init(std::forward<F>(fn));
  }

  /// Replaces the current callable, constructing the new one in place (the
  /// pool's hot path: no temporary InlineFunction, no relocate call).
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  void assign(F&& fn) {
    reset();
    init(std::forward<F>(fn));
  }

  InlineFunction(InlineFunction&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      relocate_from(other);
      other.ops_ = nullptr;
    }
  }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        relocate_from(other);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// True when the callable lives in the in-place buffer (exposed so tests
  /// can pin the no-allocation property of the library's own lambdas).
  [[nodiscard]] bool is_inline() const { return ops_ != nullptr && ops_->inline_storage; }

  R operator()(Args... args) {
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

  void reset() {
    if (ops_ != nullptr) {
      if (!ops_->trivial) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  template <typename F>
  void init(F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineCapacity &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &inline_ops<Fn>;
    } else {
      *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(fn));
      ops_ = &heap_ops<Fn>;
    }
  }

  // Per-callable-type operation table: one static instance per Fn, so the
  // function object itself is just {vtable pointer, storage}.
  struct Ops {
    R (*invoke)(unsigned char* storage, Args... args);
    // Move-constructs into dst from src, then destroys src's callable.
    void (*relocate)(unsigned char* dst, unsigned char* src);
    void (*destroy)(unsigned char* storage);
    bool inline_storage;
    // Trivially copyable + destructible capture: relocation is a memcpy of
    // the capture's own bytes and destruction a no-op, with no indirect
    // calls. True for the bulk of scheduler lambdas (captures of ints,
    // pointers, references).
    bool trivial;
    // Bytes the stored representation actually occupies (sizeof the capture
    // inline, sizeof a pointer for the heap fallback, 0 for captureless
    // lambdas whose placement-new writes nothing) — the trivial-relocate
    // memcpy copies exactly this much, never an uninitialized byte.
    std::size_t size;
  };

  void relocate_from(InlineFunction& other) {
    if (ops_->trivial) {
      std::memcpy(storage_, other.storage_, ops_->size);
    } else {
      ops_->relocate(storage_, other.storage_);
    }
  }

  template <typename Fn>
  static constexpr Ops inline_ops = {
      [](unsigned char* s, Args... args) -> R {
        return (*std::launder(reinterpret_cast<Fn*>(s)))(std::forward<Args>(args)...);
      },
      [](unsigned char* dst, unsigned char* src) {
        Fn* from = std::launder(reinterpret_cast<Fn*>(src));
        ::new (static_cast<void*>(dst)) Fn(std::move(*from));
        from->~Fn();
      },
      [](unsigned char* s) { std::launder(reinterpret_cast<Fn*>(s))->~Fn(); },
      true,
      std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>,
      std::is_empty_v<Fn> ? 0 : sizeof(Fn),
  };

  template <typename Fn>
  static constexpr Ops heap_ops = {
      [](unsigned char* s, Args... args) -> R {
        return (**std::launder(reinterpret_cast<Fn**>(s)))(std::forward<Args>(args)...);
      },
      [](unsigned char* dst, unsigned char* src) {
        *reinterpret_cast<Fn**>(dst) = *std::launder(reinterpret_cast<Fn**>(src));
      },
      [](unsigned char* s) { delete *std::launder(reinterpret_cast<Fn**>(s)); },
      false,
      false,
      sizeof(Fn*),
  };

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
};

}  // namespace dynreg::sim
