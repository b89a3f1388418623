// A fixed-size array that reads as all zeros and costs nothing until used.
//
// A destroyed array's memory waits on the process-wide spare list
// (src/base/spare_list.h); the next array of its byte size takes it and
// zeroes only the prefix its last owner declared used (set_used), so a
// machine made after another pays for what the previous one touched and
// takes no page faults on it. Fresh memory comes from FreshZeroed: for a
// large array an anonymous mapping, so set-up pays only for the pages a run
// writes. T must be valid as all-zero bytes (an implicit-lifetime type such
// as an aggregate of integers); its default member initializers are not
// applied.

#ifndef SRC_BASE_ZEROED_ARRAY_H_
#define SRC_BASE_ZEROED_ARRAY_H_

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "src/base/spare_list.h"

namespace ckbase {

// Fresh memory of `bytes` bytes that reads as all zeros. From 128 KiB up it
// is an anonymous mapping: the operating system zeroes each page on first
// touch, so only the pages a run writes cost anything. Below that it comes
// from calloc. calloc alone would not keep large blocks untouched: once a
// large block is freed, glibc raises its mmap threshold and serves the next
// one from the heap, clearing all of it.
inline void* FreshZeroed(size_t bytes) {
  constexpr size_t kMappedBytes = size_t{128} << 10;  // glibc's initial mmap threshold
  void* p = bytes >= kMappedBytes
                ? mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)
                : std::calloc(bytes != 0 ? bytes : 1, 1);
  if (p == nullptr || p == MAP_FAILED) {
    std::fprintf(stderr, "FreshZeroed: cannot allocate %zu bytes\n", bytes);
    std::abort();
  }
  return p;
}

template <typename T>
class ZeroedArray {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>);

 public:
  explicit ZeroedArray(uint32_t size)
      : size_(size), used_(size), bytes_(size_t{size} * sizeof(T)) {
    size_t dirty = 0;  // bytes the last owner of a spare used
    void* p = Spares().Take(bytes_, dirty);
    if (p != nullptr) {
      std::memset(p, 0, dirty);
    } else {
      p = FreshZeroed(bytes_);
    }
    data_ = static_cast<T*>(p);
  }
  ~ZeroedArray() { Spares().Give(data_, bytes_, size_t{used_} * sizeof(T)); }
  ZeroedArray(const ZeroedArray&) = delete;
  ZeroedArray& operator=(const ZeroedArray&) = delete;

  uint32_t size() const { return size_; }
  T& operator[](uint32_t i) { return data_[i]; }
  const T& operator[](uint32_t i) const { return data_[i]; }

  // Elements from `n` on still read as zeros: the next array to take this
  // memory zeroes only [0, n). Until an owner says so, the whole array counts.
  void set_used(uint32_t n) { used_ = n; }

 private:
  static SpareList<size_t>& Spares() { return SpareList<size_t>::Get(); }

  T* data_ = nullptr;
  uint32_t size_;
  uint32_t used_;
  size_t bytes_;
};

}  // namespace ckbase

#endif  // SRC_BASE_ZEROED_ARRAY_H_
