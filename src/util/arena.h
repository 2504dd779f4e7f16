// A monotonic bump arena for per-propagation scratch allocations.
//
// The flat propagation engine (sim/flat_engine.h) allocates many tiny,
// identically-lived objects per prefix fixpoint — community-set copies,
// path scratch — and frees them all at once when the prefix converges.
// A monotonic arena turns each of those allocations into a pointer bump:
// `reset()` rewinds the cursor but keeps every block, so after the first
// prefix warms the arena a whole fixpoint runs without touching the global
// allocator.  `peak_bytes()` reports the high-water mark (the bench
// `peak_arena_bytes` row).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace bgpolicy::util {

class MonotonicArena {
 public:
  explicit MonotonicArena(std::size_t block_bytes = 64 * 1024)
      : block_bytes_(block_bytes) {}

  MonotonicArena(const MonotonicArena&) = delete;
  MonotonicArena& operator=(const MonotonicArena&) = delete;

  /// Uninitialized storage for `count` objects of trivially-destructible T.
  /// The arena never runs destructors — reset() simply forgets everything.
  template <typename T>
  [[nodiscard]] T* allocate(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is reclaimed without destructor calls");
    return static_cast<T*>(allocate_bytes(count * sizeof(T), alignof(T)));
  }

  /// Makes room for `bytes` more bytes in the current block, moving to a
  /// retained block that fits or adding one of exactly `bytes` when it
  /// lacks them (an empty one for 0 bytes): a copy whose total size is
  /// known takes one block sized to it rather than the default first
  /// block.  Allocations of that total whose sizes are multiples of their
  /// alignment then fit without padding, and a later allocation that
  /// overflows it adds a block sized from the bytes in use.
  void reserve(std::size_t bytes) {
    if (cursor_ != nullptr && remaining_ >= bytes) return;
    grow(bytes, /*exact=*/true);
  }

  /// Rewinds to empty, retaining every block for reuse.
  void reset() {
    used_ = 0;
    block_ = 0;
    cursor_ = blocks_.empty() ? nullptr : blocks_.front().data.get();
    remaining_ = blocks_.empty() ? 0 : blocks_.front().size;
  }

  /// Bytes handed out since the last reset.
  [[nodiscard]] std::size_t bytes_used() const { return used_; }
  /// Total bytes reserved across all blocks (live across resets).
  [[nodiscard]] std::size_t bytes_reserved() const { return reserved_; }
  /// High-water mark of bytes_used() across the arena's lifetime.
  [[nodiscard]] std::size_t peak_bytes() const { return peak_; }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    bool exact = false;  ///< sized by reserve()
  };

  [[nodiscard]] void* allocate_bytes(std::size_t bytes, std::size_t align) {
    const std::size_t pad =
        (align - reinterpret_cast<std::uintptr_t>(cursor_) % align) % align;
    if (cursor_ == nullptr || pad + bytes > remaining_) {
      grow(bytes + align);
      return allocate_bytes(bytes, align);
    }
    cursor_ += pad;
    void* out = cursor_;
    cursor_ += bytes;
    remaining_ -= pad + bytes;
    used_ += pad + bytes;
    if (used_ > peak_) peak_ = used_;
    return out;
  }

  void grow(std::size_t min_bytes, bool exact = false) {
    // Advance to the next retained block when it fits; otherwise append a
    // fresh one (doubling under pressure keeps block count logarithmic),
    // left uninitialized: every byte is written before it is read.  After
    // an exact block the new one is an eighth of the bytes in use (or the
    // request): doubling a block sized to a whole copy would reserve twice
    // the copy for the few sets a later wave adds.
    while (block_ + 1 < blocks_.size()) {
      ++block_;
      if (blocks_[block_].size >= min_bytes) {
        cursor_ = blocks_[block_].data.get();
        remaining_ = blocks_[block_].size;
        return;
      }
    }
    std::size_t size = block_bytes_;
    if (exact) {
      size = min_bytes;
    } else if (!blocks_.empty()) {
      size = blocks_.back().exact ? used_ / 8 : blocks_.back().size * 2;
    }
    if (size < min_bytes) size = min_bytes;
    blocks_.push_back(
        {std::make_unique_for_overwrite<std::byte[]>(size), size, exact});
    reserved_ += size;
    block_ = blocks_.size() - 1;
    cursor_ = blocks_.back().data.get();
    remaining_ = size;
  }

  std::size_t block_bytes_;
  std::vector<Block> blocks_;
  std::size_t block_ = 0;       // index of the block cursor_ points into
  std::byte* cursor_ = nullptr;
  std::size_t remaining_ = 0;
  std::size_t used_ = 0;
  std::size_t reserved_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace bgpolicy::util
