#pragma once

/// Immutable, shared message payload. A Payload is filled exactly once (one
/// memcpy into a fresh raw allocation, no zero-fill) and never written
/// again; copying a Payload shares the storage through an atomic reference
/// count. That is what lets the engine hand one buffer from mailbox to
/// receiver and lets collectives forward the block they received to the
/// next hop instead of re-copying it. Byte counts — and so virtual costs,
/// traces and commcheck events — are those of the bytes carried, not of the
/// host copies made.
///
/// Ownership and lifetime: the storage lives until the last Payload sharing
/// it is destroyed, on whichever rank thread that happens. Spans returned by
/// bytes() and view<T>() borrow from the Payload they were taken from and are
/// valid only while that Payload (or another sharing its storage) is alive.
/// Nothing may write through them: other ranks may be reading the same
/// bytes. A holder that needs to change bytes copies them first (the fault
/// injector's corrupt path does exactly that).

#include <atomic>
#include <cstddef>
#include <cstring>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <utility>

#include "common/error.hpp"

namespace bladed::simnet {

class Payload {
 public:
  /// Alignment of bytes().data(); view<T> refuses element types that need
  /// more.
  static constexpr std::size_t kAlignment = alignof(std::max_align_t);

  /// The empty payload (size 0, no storage).
  Payload() noexcept = default;

  /// A payload holding a copy of `bytes` (one memcpy, no zero-fill).
  [[nodiscard]] static Payload copy_of(std::span<const std::byte> bytes) {
    Payload p;
    if (bytes.empty()) return p;
    void* raw = ::operator new(kHeader + bytes.size());
    p.block_ = ::new (raw) Block{{1}, bytes.size()};
    // memcpy implicitly creates the element objects view<T> later reads.
    std::memcpy(static_cast<std::byte*>(raw) + kHeader, bytes.data(),
                bytes.size());
    return p;
  }
  template <class T>
    requires std::is_trivially_copyable_v<T>
  [[nodiscard]] static Payload copy_of(std::span<const T> elems) {
    return copy_of(std::as_bytes(elems));
  }

  Payload(const Payload& other) noexcept : block_(other.block_) {
    if (block_ != nullptr) {
      block_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  Payload(Payload&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)) {}
  Payload& operator=(Payload other) noexcept {
    std::swap(block_, other.block_);
    return *this;
  }
  ~Payload() {
    if (block_ != nullptr &&
        block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      block_->~Block();
      ::operator delete(static_cast<void*>(block_));
    }
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return block_ == nullptr ? 0 : block_->size;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return {data(), size()};
  }

  /// The payload read in place as an array of T. Refuses (PreconditionError)
  /// a size that is not a multiple of sizeof(T) and a T aligned more
  /// strictly than kAlignment.
  template <class T>
    requires std::is_trivially_copyable_v<T>
  [[nodiscard]] std::span<const T> view() const {
    BLADED_REQUIRE_MSG(size() % sizeof(T) == 0,
                       "Payload::view payload size mismatch: " +
                           std::to_string(size()) +
                           " bytes is not a multiple of element size " +
                           std::to_string(sizeof(T)));
    BLADED_REQUIRE_MSG(alignof(T) <= kAlignment,
                       "Payload::view payload alignment mismatch: element "
                       "alignment " +
                           std::to_string(alignof(T)) +
                           " exceeds payload alignment " +
                           std::to_string(kAlignment));
    if (empty()) return {};
    return {std::launder(reinterpret_cast<const T*>(data())),
            size() / sizeof(T)};
  }

 private:
  struct Block {
    std::atomic<std::size_t> refs;
    std::size_t size;
  };
  /// Data starts one alignment unit past the header.
  static constexpr std::size_t kHeader = kAlignment;
  static_assert(sizeof(Block) <= kHeader);
  static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= kAlignment);

  [[nodiscard]] const std::byte* data() const noexcept {
    return block_ == nullptr
               ? nullptr
               : reinterpret_cast<const std::byte*>(block_) + kHeader;
  }

  Block* block_ = nullptr;
};

}  // namespace bladed::simnet
