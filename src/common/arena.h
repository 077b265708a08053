// Bump-pointer arena. The compiler allocates all IR nodes from a per-function
// arena (nodes are never individually freed); the runtime uses arenas as
// memory pools for intermediate records, mirroring the paper's
// memory-allocation-hoisting transformation (Appendix D.1).
//
// Blocks are NOT zero-filled: callers write what they allocate before
// reading it (as the generated C's malloc-backed qc_pool_new requires too),
// so a pool pays only for the pages it touches.
#ifndef QC_COMMON_ARENA_H_
#define QC_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace qc {

class Arena {
 public:
  explicit Arena(size_t block_size = 1 << 16) : block_size_(block_size) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t)) {
    size_t cur = (offset_ + align - 1) & ~(align - 1);
    if (blocks_.empty() || cur + bytes > block_size_) {
      size_t sz = bytes > block_size_ ? bytes : block_size_;
      blocks_.emplace_back(new char[sz]);  // default-init: no memset
      capacity_ += sz;
      offset_ = 0;
      cur = 0;
    }
    offset_ = cur + bytes;
    used_ += bytes;
    return blocks_.back().get() + cur;
  }

  template <typename T, typename... Args>
  T* New(Args&&... args) {
    void* mem = Allocate(sizeof(T), alignof(T));
    return new (mem) T(std::forward<Args>(args)...);
  }

  // Total bytes handed out (memory-consumption accounting for Figure 8).
  size_t bytes_used() const { return used_; }
  size_t bytes_reserved() const { return capacity_; }

  void Reset() {
    blocks_.clear();
    offset_ = 0;
    used_ = 0;
    capacity_ = 0;
  }

 private:
  size_t block_size_;
  size_t offset_ = 0;
  size_t used_ = 0;
  size_t capacity_ = 0;
  std::vector<std::unique_ptr<char[]>> blocks_;
};

}  // namespace qc

#endif  // QC_COMMON_ARENA_H_
