#pragma once
/// \file workspace.hpp
/// Grow-only working memory that pipeline stages borrow in turn, so a
/// session holds its largest stage's temporaries instead of their sum.
///
/// A stage opens a `Workspace::Frame` and takes uninitialised typed views;
/// they stay valid until that frame ends.  Frames nest last-in first-out,
/// and a take lands at the running total of the open frames' takes, so
/// views alive at once never alias.  State that a later call reads must
/// not live here.  The newest block covers every offset up to its size:
/// a take that does not fit opens a larger block (the views already taken
/// stay put), and when the outermost frame ends only the newest block is
/// kept.  A stage that `reserve`s its total up front grows the workspace in
/// one block; from then on frames of the same shape allocate nothing.

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"

namespace dirant {

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  class Frame {
   public:
    explicit Frame(Workspace& ws) : ws_(ws), mark_(ws.live_) { ++ws.depth_; }
    ~Frame() { ws_.release(mark_); }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

   private:
    Workspace& ws_;
    std::size_t mark_;
  };

  /// Bytes a `take<T>(n)` occupies (cache-line multiples, so per-thread
  /// views never share a line).
  template <class T>
  static constexpr std::size_t bytes(std::size_t n) {
    return (n * sizeof(T) + kAlign - 1) / kAlign * kAlign;
  }

  /// `n` uninitialised Ts, valid until the innermost open frame ends.
  /// Implicit-lifetime types only: no constructor or destructor runs.
  template <class T>
  std::span<T> take(std::size_t n) {
    static_assert(std::is_trivially_copy_constructible_v<T> &&
                  std::is_trivially_destructible_v<T> &&
                  alignof(T) <= kAlign);
    DIRANT_ASSERT_MSG(depth_ > 0, "Workspace::take outside a frame");
    const std::size_t size = bytes<T>(n);
    cover(live_ + size);
    T* p = reinterpret_cast<T*>(blocks_.back().data.get() + live_);
    live_ += size;
    return {p, n};
  }

  /// Make room for takes adding up to `size` bytes (sums of `bytes<T>`).
  void reserve(std::size_t size) { cover(live_ + size); }

 private:
  static constexpr std::size_t kAlign = 64;
  struct Free {
    void operator()(std::byte* p) const {
      ::operator delete(p, std::align_val_t{kAlign});
    }
  };
  struct Block {
    std::unique_ptr<std::byte, Free> data;
    std::size_t size;
  };

  /// Open a block covering offsets [0, end) unless the newest does; growth
  /// past a block takes half as much again, so a creeping high-water mark
  /// (a churn engine's alive count) reallocates rarely.
  void cover(std::size_t end) {
    if (!blocks_.empty() && blocks_.back().size >= end) return;
    const std::size_t size =
        blocks_.empty() ? end : std::max(end, blocks_.back().size / 2 * 3);
    blocks_.push_back({std::unique_ptr<std::byte, Free>(static_cast<std::byte*>(
                           ::operator new(size, std::align_val_t{kAlign}))),
                       size});
  }

  void release(std::size_t mark) {
    live_ = mark;
    if (--depth_ == 0 && blocks_.size() > 1) {  // older blocks hold no view
      blocks_.erase(blocks_.begin(), blocks_.end() - 1);
    }
  }

  std::vector<Block> blocks_;  ///< each covers [0, size); newest largest
  std::size_t live_ = 0;       ///< bytes taken by the open frames
  int depth_ = 0;              ///< open frames
};

/// Where a public scratch type borrows from: the Workspace a session
/// `share`s with it, else a private one made on first use.
class WorkspaceSource {
 public:
  void share(Workspace& ws) { shared_ = &ws; }
  Workspace& get() {
    if (shared_ != nullptr) return *shared_;
    if (!own_) own_ = std::make_unique<Workspace>();
    return *own_;
  }

 private:
  Workspace* shared_ = nullptr;
  std::unique_ptr<Workspace> own_;
};

}  // namespace dirant
