// Cache Kernel descriptor types: the cached objects of Table 1.
//
// Kernel, AddressSpace and Thread descriptors live in fixed-capacity pools
// sized at boot; MemMapEntry descriptors (the dominant type) live in the
// physical memory map (src/ck/physmap.h). The descriptors hold exactly the
// state the Cache Kernel needs to execute the performance-critical actions;
// everything else ("signal masks and an open file table ... are stored only
// in the application kernel", section 2.3) stays in application-kernel
// backing records.

#ifndef SRC_CK_OBJECTS_H_
#define SRC_CK_OBJECTS_H_

#include <cstdint>

#include "src/base/intrusive_list.h"
#include "src/ck/appkernel_iface.h"
#include "src/ck/ids.h"
#include "src/isa/interpreter.h"
#include "src/sim/types.h"

namespace ck {

inline constexpr uint32_t kMaxCpus = 4;

// Which descriptor cache an object belongs to, for locked-object quotas.
enum class ObjectType : uint8_t { kKernel = 0, kSpace = 1, kThread = 2, kMapping = 3 };
inline constexpr uint32_t kObjectTypeCount = 4;

// --- Thread ---

enum class ThreadState : uint8_t {
  kReady = 0,   // on a ready queue
  kRunning,     // current on some CPU
  kBlocked,     // waiting (signal wait, handler-initiated block)
  kHalted,      // executed HALT / terminated by its kernel, awaiting unload
};

struct ThreadObject {
  ckbase::ListNode pool_node;   // free list / allocated list
  ckbase::ListNode ready_node;  // per-CPU per-priority ready queue
  ckbase::ListNode space_node;  // chain of threads in the owning space

  ThreadState state = ThreadState::kReady;
  uint8_t priority = 0;
  uint8_t cpu = 0;  // processor affinity, assigned at load
  bool locked = false;
  bool in_signal = false;  // executing its signal function; new signals queue

  uint32_t space_slot = 0;  // owning address space (slot + generation)
  uint32_t space_gen = 0;
  uint32_t kernel_slot = 0;  // owning kernel slot (cached from the space)
  uint64_t cookie = 0;       // application kernel's correlation value

  // Execution state. Guest threads use the VM context; native threads carry
  // a program pointer (native register state lives in the program object,
  // which is the application kernel's backing store for it).
  ckisa::VmContext vm;
  NativeProgram* native = nullptr;

  cksim::VirtAddr signal_handler = 0;  // guest signal function entry (0: none)
  uint32_t saved_pc = 0;               // pc saved while in the signal function
  cksim::VirtAddr exception_stack = 0; // stack the app kernel supplied for
                                       // exception processing (section 2.1)

  // Pending address-valued signals (queued "within the Cache Kernel while the
  // thread is running in its signal function", section 2.2).
  static constexpr uint32_t kSignalQueueDepth = 8;
  uint32_t signal_queue[kSignalQueueDepth] = {0};
  uint8_t signal_head = 0;
  uint8_t signal_count = 0;
  // Take the oldest queued signal (signal_count > 0).
  uint32_t PopSignal() {
    uint32_t addr = signal_queue[signal_head];
    signal_head = (signal_head + 1) % kSignalQueueDepth;
    signal_count--;
    signals_taken++;
    return addr;
  }

  // Number of live signal-registration records naming this thread; unloading
  // the thread must remove them (Figure 6 dependency). The records form a
  // singly-linked chain threaded through their spare context bits
  // (MemMapEntry::signal_next), headed in the kernel's per-slot side array
  // (the descriptor itself keeps its Table 1 shape), so teardown is
  // O(registrations), not an arena scan.
  uint16_t signal_reg_count = 0;

  // Scheduling accounting.
  cksim::Cycles slice_remaining = 0;
  cksim::Cycles cpu_consumed = 0;
  uint64_t signals_taken = 0;
  uint64_t signals_dropped = 0;
};

// --- Address space ---

struct AddressSpaceObject {
  ckbase::ListNode pool_node;

  cksim::PhysAddr root_table = 0;  // L1 page table in physical memory
  uint32_t kernel_slot = 0;        // owning kernel
  uint32_t kernel_gen = 0;
  uint64_t cookie = 0;
  uint32_t mapping_count = 0;  // loaded MemMapEntries for this space
  bool locked = false;

  ckbase::IntrusiveList<ThreadObject, &ThreadObject::space_node> threads;
};

// --- Kernel ---

// Per-page-group access rights (2 bits per group over the nominal 4 GiB
// physical space -- the 2 KiB memory access array of section 4.3).
enum class GroupAccess : uint8_t { kNone = 0, kRead = 1, kReadWrite = 3 };

struct KernelObject {
  ckbase::ListNode pool_node;

  AppKernel* handlers = nullptr;  // trap/fault/writeback entry points
  uint64_t cookie = 0;
  uint32_t manager_slot = 0;  // the kernel that loads/receives this one (SRM)
  bool locked = false;

  // Resource grants (set by the SRM through the modify operations).
  uint8_t memory_access[cksim::kAccessArrayBytes] = {0};  // 2 bits/page group
  uint8_t cpu_percent[kMaxCpus] = {0};  // percent of each processor
  uint8_t max_priority = 0;             // priority cap for its threads
  uint8_t locked_limit[kObjectTypeCount] = {0};
  uint8_t locked_count[kObjectTypeCount] = {0};

  // Consumption accounting (section 4.3): weighted cycles consumed this
  // window per CPU; over_quota degrades the kernel's threads to run only
  // when a processor is otherwise idle.
  uint64_t weighted_consumed[kMaxCpus] = {0};
  bool over_quota[kMaxCpus] = {false};

  uint32_t space_count = 0;   // loaded spaces owned by this kernel
  uint32_t thread_count = 0;  // loaded threads owned by this kernel

  // -- access array helpers --
  GroupAccess GroupAccessOf(uint32_t group) const {
    uint32_t byte = group / 4;
    uint32_t shift = (group % 4) * 2;
    if (byte >= cksim::kAccessArrayBytes) {
      return GroupAccess::kNone;
    }
    return static_cast<GroupAccess>((memory_access[byte] >> shift) & 3u);
  }

  void SetGroupAccess(uint32_t group, GroupAccess access) {
    uint32_t byte = group / 4;
    uint32_t shift = (group % 4) * 2;
    if (byte >= cksim::kAccessArrayBytes) {
      return;
    }
    memory_access[byte] =
        static_cast<uint8_t>((memory_access[byte] & ~(3u << shift)) |
                             (static_cast<uint32_t>(access) << shift));
  }

  bool AllowsPhysical(cksim::PhysAddr addr, bool write) const {
    GroupAccess a = GroupAccessOf(cksim::PageGroupOf(addr));
    if (write) {
      return a == GroupAccess::kReadWrite;
    }
    return a != GroupAccess::kNone;
  }
};

}  // namespace ck

#endif  // SRC_CK_OBJECTS_H_
