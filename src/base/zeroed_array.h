// A fixed-size array that reads as all zeros and costs nothing until used.
//
// A large array is an anonymous mapping: the operating system zeroes each
// page on first touch, so set-up pays only for the pages a run writes.
// calloc alone does not do that for arrays freed and allocated again with
// every machine: once a large block is freed, glibc raises its mmap
// threshold and serves the next one from the heap, clearing all of it. A
// small array comes from calloc. T must be valid as all-zero bytes (an
// implicit-lifetime type such as an aggregate of integers); its default
// member initializers are not applied.

#ifndef SRC_BASE_ZEROED_ARRAY_H_
#define SRC_BASE_ZEROED_ARRAY_H_

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

namespace ckbase {

template <typename T>
class ZeroedArray {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>);

 public:
  explicit ZeroedArray(uint32_t size) : size_(size), bytes_(size_t{size} * sizeof(T)) {
    void* p = Mapped() ? mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                              MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)
                       : std::calloc(size != 0 ? size : 1, sizeof(T));
    if (p == nullptr || p == MAP_FAILED) {
      std::fprintf(stderr, "ZeroedArray: cannot allocate %zu bytes\n", bytes_);
      std::abort();
    }
    data_ = static_cast<T*>(p);
  }
  ~ZeroedArray() {
    if (Mapped()) {
      munmap(data_, bytes_);
    } else {
      std::free(data_);
    }
  }
  ZeroedArray(const ZeroedArray&) = delete;
  ZeroedArray& operator=(const ZeroedArray&) = delete;

  uint32_t size() const { return size_; }
  T& operator[](uint32_t i) { return data_[i]; }
  const T& operator[](uint32_t i) const { return data_[i]; }

 private:
  // glibc's own mmap threshold before any large block is freed.
  static constexpr size_t kMappedBytes = size_t{128} << 10;
  bool Mapped() const { return bytes_ >= kMappedBytes; }

  T* data_ = nullptr;
  uint32_t size_;
  size_t bytes_;
};

}  // namespace ckbase

#endif  // SRC_BASE_ZEROED_ARRAY_H_
