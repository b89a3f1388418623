// Status and Result types used across the Cache Kernel reproduction.
//
// The Cache Kernel interface is deliberately small and its calls fail in a
// small number of well-defined ways (most importantly kStale: an object
// identifier no longer names a loaded object because the object was written
// back concurrently -- the caller reloads the dependency and retries, per
// section 2 of the paper). We model those outcomes with CkStatus rather than
// exceptions so that the simulated supervisor path never unwinds.

#ifndef SRC_BASE_STATUS_H_
#define SRC_BASE_STATUS_H_

#include <cstdint>
#include <string_view>
#include <utility>

namespace ckbase {

// Outcome of a Cache Kernel call or an internal operation.
enum class CkStatus : uint8_t {
  kOk = 0,
  // The identifier does not name a currently loaded object (it was written
  // back, possibly concurrently). The application kernel must reload the
  // dependency and retry the operation.
  kStale,
  // The calling kernel is not authorized for the requested resource (for
  // example a physical page outside its memory access array, or a priority
  // above its cap).
  kDenied,
  // A fixed-capacity structure is exhausted and nothing can be reclaimed
  // (every candidate is locked). The paper treats this as an application
  // error: locked-object limits exist precisely to prevent it.
  kNoResources,
  // Arguments are malformed (unaligned address, bad priority, null handler).
  kInvalidArgument,
  // The object exists but is in a state that forbids the operation (for
  // example unloading a thread that is mid-exception on another CPU).
  kBusy,
  // The operation raced with a concurrent modification and should be retried
  // (surfaced by the version-based non-blocking synchronization).
  kRetry,
  // Object not found where one was required (e.g. no mapping for a flush).
  kNotFound,
};

// Human-readable name for a status value, for logs and test failures.
std::string_view CkStatusName(CkStatus status);

// A value-or-status pair. Minimal by design: the simulated kernel paths only
// need "did it work, and if so what is the identifier".
template <typename T>
class Result {
 public:
  // Implicit construction from a value or from an error status keeps call
  // sites readable: `return id;` or `return CkStatus::kStale;`.
  Result(T value) : status_(CkStatus::kOk), value_(std::move(value)) {}
  Result(CkStatus status) : status_(status) {}
  // An array slot that a call fills in later (NativeCtx::LoadWords): no value.
  Result() : status_(CkStatus::kNotFound) {}

  bool ok() const { return status_ == CkStatus::kOk; }
  CkStatus status() const { return status_; }

  // Precondition: ok(). Checked in debug builds via the caller's tests; the
  // value is default-constructed (not UB) when not ok.
  const T& value() const { return value_; }
  T& value() { return value_; }

 private:
  CkStatus status_;
  T value_{};
};

}  // namespace ckbase

#endif  // SRC_BASE_STATUS_H_
