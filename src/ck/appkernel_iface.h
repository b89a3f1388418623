// The upward interface from the Cache Kernel to application kernels.
//
// In the paper, these are user-mode entry points recorded in the kernel
// object ("a kernel object designates the application kernel address space,
// the trap and exception handlers for the kernel", section 2.4); the Cache
// Kernel redirects a faulting/trapping thread to them (Figure 2), and writes
// object state back over a writeback channel built on the RPC facility. In
// this reproduction application kernels are native C++ (as the originals
// were); the redirect is modeled by a synchronous call on the faulting
// thread's CPU with the same cycle charges the redirect would cost, and the
// writeback channel delivers typed records.

#ifndef SRC_CK_APPKERNEL_IFACE_H_
#define SRC_CK_APPKERNEL_IFACE_H_

#include <cstdint>

#include "src/ck/ids.h"
#include "src/isa/interpreter.h"
#include "src/sim/types.h"

namespace ck {

class CkApi;
struct PolicyTable;

// --- writeback records (object state returned to its managing kernel) ---

struct MappingWriteback {
  uint64_t space_cookie = 0;  // the owning kernel's cookie for the space
  cksim::VirtAddr vaddr = 0;  // page-aligned
  uint32_t pframe = 0;
  bool writable = false;
  bool message = false;
  bool referenced = false;  // state bits the app kernel uses to decide
  bool modified = false;    // whether backing store must be updated
  bool had_signal = false;  // a signal registration was flushed with it
};

struct ThreadWriteback {
  uint64_t cookie = 0;
  uint64_t space_cookie = 0;
  ckisa::VmContext context;  // full register state at writeback
  uint8_t priority = 0;
  bool was_blocked = false;  // blocked on a long-term event vs. runnable
  cksim::Cycles cpu_consumed = 0;
};

struct SpaceWriteback {
  uint64_t cookie = 0;
};

struct KernelWriteback {
  uint64_t cookie = 0;
};

// --- downward-forwarded events ---

struct FaultForward {
  ThreadId thread;
  uint64_t thread_cookie = 0;
  uint64_t space_cookie = 0;
  cksim::Fault fault;
  bool copy_on_write = false;  // protection fault on a deferred-copy page
};

struct TrapForward {
  ThreadId thread;
  uint64_t thread_cookie = 0;
  uint16_t number = 0;
  uint32_t args[6] = {0};  // guest a0..a5 at the trap
};

// What a forwarded-event handler decided. kResumed means the handler already
// restarted the thread itself (the optimized load-mapping-and-resume call);
// kBlock leaves the thread blocked until the app kernel resumes or unloads
// it; kTerminate ends the thread (the app kernel then unloads it).
enum class HandlerAction : uint8_t { kResume, kResumed, kBlock, kTerminate };

struct TrapAction {
  HandlerAction action = HandlerAction::kResume;
  bool has_return_value = false;
  uint32_t return_value = 0;  // placed in guest a0 on resume
};

// Implemented by every application kernel. All calls execute on the CPU that
// took the event; `api` carries the calling kernel's authority for nested
// Cache Kernel calls and charges cycles to that CPU.
class AppKernel {
 public:
  virtual ~AppKernel() = default;

  // Page fault / protection fault / consistency fault on one of this
  // kernel's threads (Figure 2 steps 2-5 happen inside this call).
  virtual HandlerAction HandleFault(const FaultForward& fault, CkApi& api) = 0;

  // Trap instruction executed by one of this kernel's threads ("system call"
  // to the application kernel, section 2.3).
  virtual TrapAction HandleTrap(const TrapForward& trap, CkApi& api) = 0;

  // Writeback channel: an object owned by this kernel was displaced (or
  // explicitly unloaded) and its state is returned for safekeeping.
  virtual void OnMappingWriteback(const MappingWriteback& record, CkApi& api) = 0;
  virtual void OnThreadWriteback(const ThreadWriteback& record, CkApi& api) = 0;
  virtual void OnSpaceWriteback(const SpaceWriteback& record, CkApi& api) = 0;

  // Only the kernel-managing kernel (normally the SRM) receives these.
  virtual void OnKernelWriteback(const KernelWriteback& record, CkApi& api) { (void)record; (void)api; }

  // A guest thread of this kernel executed HALT.
  virtual void OnThreadHalt(ThreadId thread, uint64_t cookie, CkApi& api) {
    (void)thread;
    (void)cookie;
    (void)api;
  }

  // Per-kernel replacement-policy state (src/ck/policy.h): the loaded guest
  // policy programs the Cache Kernel consults when reclaiming this kernel's
  // descriptors. nullptr (the default) means the kernel keeps no policy of
  // its own -- LoadPolicy fails and its descriptors reclaim by clock.
  virtual PolicyTable* policy_table() { return nullptr; }
};

// Long-running native "programs" (application-kernel internal threads such as
// schedulers, pagers, RPC servers, and whole native applications like the
// MP3D worker). Step() runs one bounded chunk of work and returns; the
// dispatcher charges the cycles the chunk reports. With kYield, quiet_until
// = T (0: none) promises that this step changed nothing and that the
// thread's steps before clock T will change and charge nothing unless
// something else changes first. Inside Machine::RunUntil the dispatcher then
// makes those polls without calling Step, so a program that counts its own
// steps may not promise.
struct NativeOutcome {
  enum class Action : uint8_t { kYield, kBlock, kHalt } action = Action::kYield;
  cksim::Cycles quiet_until = 0;
};

class NativeCtx;

class NativeProgram {
 public:
  virtual ~NativeProgram() = default;
  virtual NativeOutcome Step(NativeCtx& ctx) = 0;
  // Address-valued signal delivered to this thread (memory-based messaging).
  virtual void OnSignal(cksim::VirtAddr message_addr, NativeCtx& ctx) {
    (void)message_addr;
    (void)ctx;
  }
};

}  // namespace ck

#endif  // SRC_CK_APPKERNEL_IFACE_H_
