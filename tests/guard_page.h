// Test buffers that end at a PROT_NONE guard page, so a kernel that
// reads or writes one element past the end faults instead of passing.
#pragma once

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <span>
#include <stdexcept>

namespace vran::test {

/// `n` elements of T that end exactly where an inaccessible page starts.
/// The memory is zero-filled; T must be trivially copyable.
template <typename T>
class GuardedBuffer {
 public:
  explicit GuardedBuffer(std::size_t n)
      : n_(n),
        page_(static_cast<std::size_t>(sysconf(_SC_PAGESIZE))),
        data_bytes_((n * sizeof(T) + page_ - 1) / page_ * page_),
        map_(mmap(nullptr, data_bytes_ + page_, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)) {
    if (map_ == MAP_FAILED) throw std::runtime_error("mmap failed");
    if (mprotect(static_cast<char*>(map_) + data_bytes_, page_, PROT_NONE) !=
        0) {
      munmap(map_, data_bytes_ + page_);
      throw std::runtime_error("mprotect failed");
    }
  }
  ~GuardedBuffer() { munmap(map_, data_bytes_ + page_); }
  GuardedBuffer(const GuardedBuffer&) = delete;
  GuardedBuffer& operator=(const GuardedBuffer&) = delete;

  std::span<T> span() {
    return {reinterpret_cast<T*>(static_cast<char*>(map_) + data_bytes_ -
                                 n_ * sizeof(T)),
            n_};
  }

 private:
  std::size_t n_;
  std::size_t page_;
  std::size_t data_bytes_;  ///< whole pages before the guard page
  void* map_;
};

}  // namespace vran::test
