// Cache Kernel implementation: object lifecycle, dependency-ordered
// writeback, page tables and resource enforcement. Scheduling/dispatch lives
// in ck_sched.cc and memory-based messaging in ck_signal.cc.

#include "src/ck/cache_kernel.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "src/ck/policy.h"
#include "src/isa/sandbox.h"
#include "src/obs/metrics.h"

namespace ck {

using cksim::Cycles;
using cksim::PhysAddr;
using cksim::VirtAddr;

CacheKernel::CacheKernel(cksim::Machine& machine, const CacheKernelConfig& config)
    : machine_(machine),
      config_(config),
      kernels_(config.kernel_slots),
      spaces_(config.space_slots),
      threads_(config.thread_slots),
      pmap_(config.mapping_slots),
      table_arena_(machine.memory(),
                   machine.memory().size() - config.page_table_arena_bytes,
                   config.page_table_arena_bytes),
      tier_ref_(machine.memory().page_count(), 0),
      remote_frames_(machine.memory().page_count(), 0) {
  tenant_.resize(config.kernel_slots);
  profile_pcs_.resize(config.kernel_slots);
  samplers_.resize(machine.cpu_count());
  ready_.resize(machine.cpu_count());
  for (auto& queues : ready_) {
    queues = std::vector<ReadyQueue>(kPriorityLevels);
  }
  ready_mask_.assign(machine.cpu_count(), 0);
  pending_signals_.resize(machine.cpu_count());
  quota_window_start_.assign(machine.cpu_count(), 0);
  signal_reg_head_.assign(config.thread_slots, kNilSignalChain);
  micro_tlbs_.resize(machine.cpu_count());
  trace_caches_.resize(machine.cpu_count());
  for (uint32_t c = 0; c < machine.cpu_count(); ++c) {
    trace_caches_[c] = std::make_unique<ckisa::TraceCache>();
  }
  machine.AttachKernel(this);
}

KernelId CacheKernel::BootFirstKernel(AppKernel* handlers, uint64_t cookie) {
  KernelObject* k = kernels_.Allocate();
  *k = KernelObject{};
  k->handlers = handlers;
  k->cookie = cookie;
  k->locked = true;
  k->max_priority = static_cast<uint8_t>(kPriorityLevels - 1);
  for (uint32_t c = 0; c < kMaxCpus; ++c) {
    k->cpu_percent[c] = 100;
  }
  // Full permissions on all physical resources (section 3). The page-table
  // arena stays exclusive to the Cache Kernel.
  uint32_t usable_groups =
      (machine_.memory().size() - config_.page_table_arena_bytes) / cksim::kPageGroupBytes;
  for (uint32_t g = 0; g < usable_groups; ++g) {
    k->SetGroupAccess(g, GroupAccess::kReadWrite);
  }
  for (uint32_t t = 0; t < kObjectTypeCount; ++t) {
    k->locked_limit[t] = 255;
  }
  k->manager_slot = kernels_.SlotOf(k);
  first_kernel_ = KernelId{kernels_.IdOf(k)};
  // The first kernel loads itself: the boot load lands on its own account,
  // its lock on itself charges no budget, and no CPU runs yet to trace it.
  CommitLoad(ObjectType::kKernel, k, /*locked=*/false, /*cpu=*/nullptr, 0);
  return first_kernel_;
}

// ---------------------------------------------------------------------------
// The call gate and the object lifecycle commits
// ---------------------------------------------------------------------------

KernelObject* CacheKernel::GateKernelObject(KernelId caller, KernelId kernel, CkStatus& status) {
  if (!(caller == first_kernel_)) {
    // Kernel objects are loaded by, and written back to, the first kernel.
    status = CkStatus::kDenied;
    return nullptr;
  }
  return GateCaller(kernel, status);
}

void CacheKernel::CommitLoad(ObjectType type, KernelObject* owner, bool locked, cksim::Cpu* cpu,
                             uint32_t trace_arg) {
  uint32_t t = static_cast<uint32_t>(type);
  if (locked) {
    owner->locked_count[t]++;
  }
  stats_.loads[t]++;
  Tenant(kernels_.SlotOf(owner)).loads[t]++;
  if (cpu != nullptr) {
    CK_TRACE(Ring(*cpu), obs::EventType::kObjectLoad, cpu->clock(), t, trace_arg);
  }
}

template <typename Upcall>
void CacheKernel::CommitWriteback(cksim::Cpu& cpu, UnloadCause cause, ObjectType type,
                                  uint32_t account_slot, KernelObject* receiver,
                                  uint32_t trace_arg, Cycles extra, Upcall upcall) {
  if (cause == UnloadCause::kDiscard) {
    return;
  }
  cpu.Advance(machine_.cost().writeback_record + extra);
  uint32_t t = static_cast<uint32_t>(type);
  if (cause == UnloadCause::kExplicit) {
    stats_.explicit_unloads[t]++;
    Tenant(account_slot).explicit_unloads[t]++;
  } else {
    stats_.writebacks[t]++;
    Tenant(account_slot).writebacks[t]++;
  }
  CK_TRACE(Ring(cpu), obs::EventType::kObjectWriteback, cpu.clock(), t, trace_arg);
  CkApi api(*this, IdOfKernel(receiver), cpu);
  upcall(*receiver->handlers, api);
}

// ---------------------------------------------------------------------------
// Kernel objects
// ---------------------------------------------------------------------------

Result<KernelId> CacheKernel::LoadKernel(KernelId caller, cksim::Cpu& cpu, AppKernel* handlers,
                                         uint64_t cookie, bool locked) {
  const cksim::CostModel& cost = machine_.cost();
  cpu.Advance(cost.trap_entry + cost.call_gate);
  CkStatus status = CkStatus::kOk;
  KernelObject* mgr = GateCaller(caller, status);
  if (mgr == nullptr) {
    return status;
  }
  if (!(caller == first_kernel_) || handlers == nullptr) {
    return CkStatus::kDenied;
  }
  if (kernels_.full() && !ReclaimVictim(ObjectType::kKernel, cpu, kernels_.SlotOf(mgr))) {
    stats_.load_failures++;
    return CkStatus::kNoResources;
  }
  if (locked && LockBudgetFull(mgr, ObjectType::kKernel)) {
    return CkStatus::kDenied;
  }
  KernelObject* k = kernels_.Allocate();
  *k = KernelObject{};
  k->handlers = handlers;
  k->cookie = cookie;
  k->locked = locked;
  k->manager_slot = kernels_.SlotOf(mgr);
  cpu.Advance(cost.descriptor_init + cost.mem_word * (cksim::kAccessArrayBytes / 4));
  CommitLoad(ObjectType::kKernel, mgr, locked, &cpu, kernels_.SlotOf(k));
  cpu.Advance(cost.trap_exit);
  return KernelId{kernels_.IdOf(k)};
}

CkStatus CacheKernel::UnloadKernel(KernelId caller, cksim::Cpu& cpu, KernelId kernel) {
  const cksim::CostModel& cost = machine_.cost();
  cpu.Advance(cost.trap_entry + cost.call_gate);
  CkStatus status = CkStatus::kOk;
  if (GateCaller(caller, status) == nullptr) {
    return status;
  }
  KernelObject* k = GateKernelObject(caller, kernel, status);
  if (k == nullptr) {
    return status;
  }
  if (kernel == first_kernel_) {
    return CkStatus::kDenied;  // the SRM never unloads itself
  }
  UnloadKernelInternal(k, cpu, UnloadCause::kExplicit);
  cpu.Advance(cost.trap_exit);
  return CkStatus::kOk;
}

CkStatus CacheKernel::GrantPageGroups(KernelId caller, cksim::Cpu& cpu, KernelId kernel,
                                      uint32_t first_group, uint32_t count, GroupAccess access) {
  const cksim::CostModel& cost = machine_.cost();
  cpu.Advance(cost.trap_entry + cost.call_gate);
  CkStatus status = CkStatus::kOk;
  KernelObject* k = GateKernelObject(caller, kernel, status);
  if (k == nullptr) {
    return status;
  }
  for (uint32_t g = first_group; g < first_group + count; ++g) {
    k->SetGroupAccess(g, access);
  }
  // Revoking access must also evict any of the kernel's loaded mappings into
  // the revoked groups, or the grant would be advisory. Walk the kernel's
  // spaces and unload offending mappings.
  if (access != GroupAccess::kReadWrite) {
    for (uint32_t slot = 0; slot < spaces_.capacity(); ++slot) {
      if (!spaces_.IsAllocated(slot)) {
        continue;
      }
      AddressSpaceObject* space = spaces_.SlotAt(slot);
      if (kernels_.SlotAt(space->kernel_slot) != k) {
        continue;
      }
      // Scan pv records belonging to this space; collect first (unload
      // mutates the map).
      std::vector<uint32_t> victims;
      for (uint32_t i = 0; i < pmap_.used_extent(); ++i) {
        const MemMapEntry& rec = pmap_.record(i);
        if (rec.type() != RecordType::kPhysToVirt || rec.pv_space_slot() != slot) {
          continue;
        }
        uint32_t group = cksim::FrameBase(rec.pv_frame()) / cksim::kPageGroupBytes;
        GroupAccess now = k->GroupAccessOf(group);
        bool writable = (rec.pv_flags() & kPvWritable) != 0;
        if (now == GroupAccess::kNone || (writable && now != GroupAccess::kReadWrite)) {
          victims.push_back(i);
        }
      }
      for (uint32_t pv : victims) {
        if (pmap_.record(pv).type() == RecordType::kPhysToVirt) {
          UnloadPvRecord(pv, cpu, UnloadCause::kCascade);
        }
      }
    }
  }
  cpu.Advance(cost.mem_word * ((count + 3) / 4) + cost.trap_exit);
  return CkStatus::kOk;
}

CkStatus CacheKernel::SetCpuQuota(KernelId caller, cksim::Cpu& cpu, KernelId kernel,
                                  const uint8_t percent[kMaxCpus], uint8_t max_priority) {
  const cksim::CostModel& cost = machine_.cost();
  cpu.Advance(cost.trap_entry + cost.call_gate);
  CkStatus status = CkStatus::kOk;
  KernelObject* k = GateKernelObject(caller, kernel, status);
  if (k == nullptr) {
    return status;
  }
  if (max_priority >= kPriorityLevels) {
    return CkStatus::kInvalidArgument;
  }
  for (uint32_t c = 0; c < kMaxCpus; ++c) {
    k->cpu_percent[c] = percent[c];
  }
  k->max_priority = max_priority;
  cpu.Advance(cost.descriptor_init + cost.trap_exit);
  return CkStatus::kOk;
}

CkStatus CacheKernel::SetLockLimits(KernelId caller, cksim::Cpu& cpu, KernelId kernel,
                                    const uint8_t limits[kObjectTypeCount]) {
  const cksim::CostModel& cost = machine_.cost();
  cpu.Advance(cost.trap_entry + cost.call_gate);
  CkStatus status = CkStatus::kOk;
  KernelObject* k = GateKernelObject(caller, kernel, status);
  if (k == nullptr) {
    return status;
  }
  // A limit below what the kernel already holds would leave it over budget.
  for (uint32_t t = 0; t < kObjectTypeCount; ++t) {
    if (limits[t] < k->locked_count[t]) {
      return CkStatus::kInvalidArgument;
    }
  }
  for (uint32_t t = 0; t < kObjectTypeCount; ++t) {
    k->locked_limit[t] = limits[t];
  }
  cpu.Advance(cost.descriptor_init + cost.trap_exit);
  return CkStatus::kOk;
}

// ---------------------------------------------------------------------------
// Address spaces
// ---------------------------------------------------------------------------

Result<SpaceId> CacheKernel::LoadSpace(KernelId caller, cksim::Cpu& cpu, uint64_t cookie,
                                       bool locked) {
  const cksim::CostModel& cost = machine_.cost();
  cpu.Advance(cost.trap_entry + cost.call_gate);
  CkStatus status = CkStatus::kOk;
  KernelObject* owner = GateCaller(caller, status);
  if (owner == nullptr) {
    return status;
  }
  if (spaces_.full() && !ReclaimVictim(ObjectType::kSpace, cpu, kernels_.SlotOf(owner))) {
    stats_.load_failures++;
    return CkStatus::kNoResources;
  }
  if (locked && LockBudgetFull(owner, ObjectType::kSpace)) {
    return CkStatus::kDenied;
  }
  PhysAddr root = table_arena_.Allocate(cksim::kL1TableBytes);
  if (root == 0) {
    stats_.load_failures++;
    return CkStatus::kNoResources;
  }
  AddressSpaceObject* space = spaces_.Allocate();
  space->root_table = root;
  space->kernel_slot = kernels_.SlotOf(owner);
  space->kernel_gen = kernels_.IdOf(owner).generation;
  space->cookie = cookie;
  space->mapping_count = 0;
  space->locked = locked;
  owner->space_count++;
  // Descriptor init plus zeroing the 512-byte root table.
  cpu.Advance(cost.descriptor_init + cost.table_alloc +
              cost.mem_word * (cksim::kL1TableBytes / 4));
  CommitLoad(ObjectType::kSpace, owner, locked, &cpu, spaces_.SlotOf(space));
  cpu.Advance(cost.trap_exit);
  return SpaceId{spaces_.IdOf(space)};
}

CkStatus CacheKernel::UnloadSpace(KernelId caller, cksim::Cpu& cpu, SpaceId space_id) {
  const cksim::CostModel& cost = machine_.cost();
  cpu.Advance(cost.trap_entry + cost.call_gate);
  CkStatus status = CkStatus::kOk;
  AddressSpaceObject* space = GateOwned(GateCaller(caller, status), GetSpace(space_id), status);
  if (space == nullptr) {
    return status;
  }
  UnloadSpaceInternal(space, cpu, UnloadCause::kExplicit);
  cpu.Advance(cost.trap_exit);
  return CkStatus::kOk;
}

// ---------------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------------

Result<ThreadId> CacheKernel::LoadThread(KernelId caller, cksim::Cpu& cpu,
                                         const ThreadSpec& spec) {
  const cksim::CostModel& cost = machine_.cost();
  cpu.Advance(cost.trap_entry + cost.call_gate);
  CkStatus status = CkStatus::kOk;
  KernelObject* owner = GateCaller(caller, status);
  AddressSpaceObject* space = GateOwned(owner, GetSpace(spec.space), status);
  if (space == nullptr) {
    return status;
  }
  if (spec.priority >= kPriorityLevels || spec.priority > owner->max_priority) {
    return CkStatus::kDenied;  // priority cap, section 4.3
  }
  if (threads_.full() && !ReclaimVictim(ObjectType::kThread, cpu, kernels_.SlotOf(owner))) {
    stats_.load_failures++;
    return CkStatus::kNoResources;
  }
  if (spec.locked && LockBudgetFull(owner, ObjectType::kThread)) {
    return CkStatus::kDenied;
  }

  ThreadObject* thread = threads_.Allocate();
  // Reset everything but the embedded list nodes (freshly unlinked).
  thread->state = spec.start_blocked ? ThreadState::kBlocked : ThreadState::kReady;
  thread->priority = spec.priority;
  thread->cpu = spec.cpu_hint != 0xff && spec.cpu_hint < machine_.cpu_count()
                    ? spec.cpu_hint
                    : static_cast<uint8_t>(next_cpu_rr_++ % machine_.cpu_count());
  thread->locked = spec.locked;
  thread->in_signal = false;
  thread->space_slot = spaces_.SlotOf(space);
  thread->space_gen = spaces_.IdOf(space).generation;
  thread->kernel_slot = space->kernel_slot;
  thread->cookie = spec.cookie;
  thread->vm = spec.vm;
  thread->native = spec.native;
  thread->signal_handler = spec.signal_handler;
  thread->saved_pc = 0;
  thread->exception_stack = spec.exception_stack;
  thread->signal_head = 0;
  thread->signal_count = 0;
  thread->signal_reg_count = 0;
  signal_reg_head_[threads_.SlotOf(thread)] = kNilSignalChain;
  thread->slice_remaining = kTimeSlice;
  thread->cpu_consumed = 0;
  thread->signals_taken = 0;
  thread->signals_dropped = 0;

  space->threads.PushBack(thread);
  owner->thread_count++;
  if (thread->state == ThreadState::kReady) {
    Enqueue(thread);
  }
  // Loading a thread copies the full descriptor (register context, stack
  // pointers, signal state) across the interface.
  cpu.Advance(cost.descriptor_init + cost.context_restore + cost.list_op +
              cost.mem_word * (kThreadDescriptorBytes / 4 / 2));
  CommitLoad(ObjectType::kThread, owner, spec.locked, &cpu, threads_.SlotOf(thread));
  cpu.Advance(cost.trap_exit);
  return ThreadId{threads_.IdOf(thread)};
}

CkStatus CacheKernel::UnloadThread(KernelId caller, cksim::Cpu& cpu, ThreadId thread_id) {
  const cksim::CostModel& cost = machine_.cost();
  cpu.Advance(cost.trap_entry + cost.call_gate);
  CkStatus status = CkStatus::kOk;
  ThreadObject* thread = GateOwned(GateCaller(caller, status), GetThread(thread_id), status);
  if (thread == nullptr) {
    return status;
  }
  UnloadThreadInternal(thread, cpu, UnloadCause::kExplicit);
  cpu.Advance(cost.trap_exit);
  return CkStatus::kOk;
}

CkStatus CacheKernel::SetThreadPriority(KernelId caller, cksim::Cpu& cpu, ThreadId thread_id,
                                        uint8_t priority) {
  const cksim::CostModel& cost = machine_.cost();
  cpu.Advance(cost.trap_entry + cost.call_gate);
  CkStatus status = CkStatus::kOk;
  KernelObject* owner = GateCaller(caller, status);
  ThreadObject* thread = GateOwned(owner, GetThread(thread_id), status);
  if (thread == nullptr) {
    return status;
  }
  if (priority >= kPriorityLevels || priority > owner->max_priority) {
    return CkStatus::kDenied;
  }
  // The special call that avoids unload-modify-reload (section 2.3).
  bool requeue = thread->ready_node.linked();
  if (requeue) {
    Dequeue(thread);
  }
  thread->priority = priority;
  if (requeue) {
    Enqueue(thread);
  }
  cpu.Advance(cost.list_op * 2 + cost.trap_exit);
  return CkStatus::kOk;
}

CkStatus CacheKernel::BlockThread(KernelId caller, cksim::Cpu& cpu, ThreadId thread_id) {
  const cksim::CostModel& cost = machine_.cost();
  cpu.Advance(cost.trap_entry + cost.call_gate);
  CkStatus status = CkStatus::kOk;
  ThreadObject* thread = GateOwned(GateCaller(caller, status), GetThread(thread_id), status);
  if (thread == nullptr) {
    return status;
  }
  if (thread->state == ThreadState::kRunning) {
    cksim::Cpu& target = machine_.cpu(thread->cpu);
    if (CurrentOn(target) == thread) {
      target.current_thread = nullptr;
      cpu.Advance(cost.context_save);
    }
  } else if (thread->ready_node.linked()) {
    Dequeue(thread);
  }
  thread->state = ThreadState::kBlocked;
  cpu.Advance(cost.list_op + cost.trap_exit);
  return CkStatus::kOk;
}

CkStatus CacheKernel::ResumeThread(KernelId caller, cksim::Cpu& cpu, ThreadId thread_id,
                                   bool has_return, uint32_t return_value) {
  const cksim::CostModel& cost = machine_.cost();
  cpu.Advance(cost.trap_entry + cost.call_gate);
  CkStatus status = CkStatus::kOk;
  ThreadObject* thread = GateOwned(GateCaller(caller, status), GetThread(thread_id), status);
  if (thread == nullptr) {
    return status;
  }
  if (thread->state != ThreadState::kBlocked) {
    return CkStatus::kBusy;
  }
  if (has_return) {
    thread->vm.regs[ckisa::kRegA0] = return_value;
  }
  Enqueue(thread);
  cpu.Advance(cost.list_op + cost.trap_exit);
  return CkStatus::kOk;
}

CkStatus CacheKernel::RedirectThread(KernelId caller, cksim::Cpu& cpu, ThreadId thread_id,
                                     cksim::VirtAddr pc, uint32_t a0) {
  const cksim::CostModel& cost = machine_.cost();
  cpu.Advance(cost.trap_entry + cost.call_gate);
  CkStatus status = CkStatus::kOk;
  ThreadObject* thread = GateOwned(GateCaller(caller, status), GetThread(thread_id), status);
  if (thread == nullptr) {
    return status;
  }
  thread->vm.pc = pc;
  thread->vm.regs[ckisa::kRegA0] = a0;
  if (thread->state == ThreadState::kBlocked || thread->state == ThreadState::kHalted) {
    Enqueue(thread);
  }
  cpu.Advance(cost.trap_exit);
  return CkStatus::kOk;
}

// ---------------------------------------------------------------------------
// Page mappings
// ---------------------------------------------------------------------------

cksim::PhysAddr CacheKernel::LeafPteAddr(AddressSpaceObject* space, VirtAddr vaddr, bool create,
                                         cksim::Cpu& cpu) {
  const cksim::CostModel& cost = machine_.cost();
  cksim::PhysicalMemory& mem = machine_.memory();
  PhysAddr slot = space->root_table + cksim::L1Index(vaddr) * 4;
  for (uint32_t level = 1; level <= 2; ++level) {
    uint32_t pte = mem.ReadWord(slot);
    cpu.Advance(cost.table_walk_level);
    if (!cksim::PteValid(pte)) {
      PhysAddr table =
          create ? table_arena_.Allocate(level == 1 ? cksim::kL2TableBytes : cksim::kL3TableBytes)
                 : 0;
      if (table == 0) {
        return 0;
      }
      pte = cksim::MakePte(table, cksim::kPteValid);
      mem.WriteWord(slot, pte);
      cpu.Advance(cost.table_alloc + cost.pte_write);
    }
    slot = cksim::PteAddress(pte) +
           (level == 1 ? cksim::L2Index(vaddr) : cksim::L3Index(vaddr)) * 4;
  }
  return slot;
}

CkStatus CacheKernel::LoadMapping(KernelId caller, cksim::Cpu& cpu, const MappingSpec& spec) {
  const cksim::CostModel& cost = machine_.cost();
  cpu.Advance(cost.trap_entry + cost.call_gate);
  CkStatus status = [&] {
    CkStatus gate = CkStatus::kOk;
    KernelObject* owner = GateCaller(caller, gate);
    AddressSpaceObject* space = GateOwned(owner, GetSpace(spec.space), gate);
    if (space == nullptr) {
      return gate;
    }
    if ((spec.vaddr & cksim::kPageOffsetMask) != 0 || (spec.paddr & cksim::kPageOffsetMask) != 0 ||
        !machine_.memory().Contains(spec.paddr, cksim::kPageSize)) {
      return CkStatus::kInvalidArgument;
    }
    // "the physical address and the access that the application kernel can
    // specify in a new mapping are restricted by its authorized access to
    // physical memory" (section 2.1).
    if (!owner->AllowsPhysical(spec.paddr, spec.flags.writable)) {
      return CkStatus::kDenied;
    }
    ThreadObject* signal_thread = nullptr;
    if (spec.signal_thread.valid() &&
        (signal_thread = GateOwned(owner, GetThread(spec.signal_thread), gate)) == nullptr) {
      return gate;
    }
    if (spec.locked && LockBudgetFull(owner, ObjectType::kMapping)) {
      return CkStatus::kDenied;
    }

    // Replace any existing mapping at this (space, vaddr).
    PhysAddr leaf = LeafPteAddr(space, spec.vaddr, /*create=*/true, cpu);
    if (leaf == 0) {
      stats_.load_failures++;
      return CkStatus::kNoResources;
    }
    uint32_t old_pte = machine_.memory().ReadWord(leaf);
    if (cksim::PteValid(old_pte)) {
      uint32_t old_pv = pmap_.FindPv(cksim::PageFrame(cksim::PteAddress(old_pte)),
                                     spaces_.SlotOf(space), spec.vaddr);
      if (old_pv != kNilRecord) {
        UnloadPvRecord(old_pv, cpu, UnloadCause::kCascade);
      }
    }

    // Room for the pv record plus its optional annotation records.
    uint32_t needed = 1 + (signal_thread != nullptr ? 1u : 0u) + (spec.cow_source != 0 ? 1u : 0u);
    while (pmap_.capacity() - pmap_.in_use() < needed) {
      if (!ReclaimVictim(ObjectType::kMapping, cpu, space->kernel_slot)) {
        stats_.load_failures++;
        return CkStatus::kNoResources;
      }
    }

    uint32_t frame = cksim::PageFrame(spec.paddr);
    uint32_t flags = (spec.locked ? kPvLocked : 0) | (spec.flags.message ? kPvMessage : 0) |
                     (spec.flags.writable ? kPvWritable : 0);
    uint32_t pv = pmap_.Insert(frame, (spec.vaddr & ~0xfffu) | flags, spaces_.SlotOf(space),
                               RecordType::kPhysToVirt);
    pmap_.set_leaf_pte(pv, leaf);
    cpu.Advance(cost.hash_op);

    if (signal_thread != nullptr) {
      uint32_t gen24 = threads_.IdOf(signal_thread).generation & 0xffffffu;
      uint32_t sig_slot = threads_.SlotOf(signal_thread);
      uint32_t sig = pmap_.Insert(pv, (gen24 << 8) | sig_slot, signal_reg_head_[sig_slot],
                                  RecordType::kSignal);
      signal_reg_head_[sig_slot] = sig;
      signal_thread->signal_reg_count++;
      cpu.Advance(cost.hash_op);
      // New signal mapping invalidates stale reverse-TLB entries for the frame.
      FlushReverseTlbFrameAllCpus(frame);
    }
    if (spec.cow_source != 0) {
      pmap_.Insert(pv, cksim::PageFrame(spec.cow_source), 0, RecordType::kCopyOnWrite);
      cpu.Advance(cost.hash_op);
    }

    cksim::MapFlags pte_flags = spec.flags;
    machine_.memory().WriteWord(leaf, cksim::MakePte(spec.paddr,
                                                     cksim::kPteValid | pte_flags.ToPteBits()));
    cpu.Advance(cost.pte_write);
    space->mapping_count++;
    CommitLoad(ObjectType::kMapping, owner, spec.locked, &cpu, spec.vaddr);
    TierAdmitFrame(frame, &cpu, space->kernel_slot);
    return CkStatus::kOk;
  }();
  cpu.Advance(cost.trap_exit);
  return status;
}

CkStatus CacheKernel::LoadMappingAndResume(KernelId caller, cksim::Cpu& cpu,
                                           const MappingSpec& spec, ThreadId faulting_thread) {
  // One trap instead of two: the combined load+resume optimization.
  const cksim::CostModel& cost = machine_.cost();
  CkStatus status = LoadMapping(caller, cpu, spec);
  if (status != CkStatus::kOk) {
    return status;
  }
  // The mapping is loaded first; the caller may resume only its own thread.
  ThreadObject* thread = GateOwned(GateCaller(caller, status), GetThread(faulting_thread), status);
  if (thread == nullptr) {
    return status;
  }
  // Combined-call discount: the separate trap entry/exit and the full resume
  // call are folded into the mapping load (charge only the restore).
  cpu.Advance(cost.context_restore);
  fault_trace_.mapping_loaded = cpu.clock();
  CK_TRACE(Ring(cpu), obs::EventType::kFaultMappingLoaded, cpu.clock(),
           static_cast<uint32_t>(ObjectType::kMapping), spec.vaddr);
  if (thread->state == ThreadState::kBlocked) {
    Enqueue(thread, /*front=*/true);
  }
  return CkStatus::kOk;
}

uint32_t CacheKernel::FindMapping(AddressSpaceObject* space, VirtAddr vaddr, cksim::Cpu& cpu,
                                  uint32_t& pte) {
  pte = LeafPte(space, vaddr, cpu);
  if (!cksim::PteValid(pte)) {
    return kNilRecord;
  }
  return pmap_.FindPv(cksim::PageFrame(cksim::PteAddress(pte)), spaces_.SlotOf(space), vaddr);
}

CkStatus CacheKernel::UnloadMapping(KernelId caller, cksim::Cpu& cpu, SpaceId space_id,
                                    VirtAddr vaddr) {
  const cksim::CostModel& cost = machine_.cost();
  cpu.Advance(cost.trap_entry + cost.call_gate);
  CkStatus status = CkStatus::kOk;
  AddressSpaceObject* space = GateOwned(GateCaller(caller, status), GetSpace(space_id), status);
  if (space != nullptr) {
    uint32_t pte = 0;
    uint32_t pv = FindMapping(space, vaddr, cpu, pte);
    if (pv == kNilRecord) {
      status = CkStatus::kNotFound;
    } else {
      UnloadPvRecord(pv, cpu, UnloadCause::kExplicit);
    }
  }
  cpu.Advance(cost.trap_exit);
  return status;
}

CkStatus CacheKernel::UnloadMappingRange(KernelId caller, cksim::Cpu& cpu, SpaceId space,
                                         VirtAddr vaddr, uint32_t pages) {
  CkStatus last = CkStatus::kNotFound;
  for (uint32_t i = 0; i < pages; ++i) {
    CkStatus s = UnloadMapping(caller, cpu, space, vaddr + i * cksim::kPageSize);
    if (s == CkStatus::kOk || s == CkStatus::kNotFound) {
      if (s == CkStatus::kOk) {
        last = CkStatus::kOk;
      }
      continue;
    }
    return s;  // stale/denied aborts the sweep
  }
  return last;
}

Result<MappingInfo> CacheKernel::QueryMapping(KernelId caller, cksim::Cpu& cpu, SpaceId space_id,
                                              VirtAddr vaddr) {
  const cksim::CostModel& cost = machine_.cost();
  cpu.Advance(cost.trap_entry + cost.call_gate);
  CkStatus status = CkStatus::kOk;
  AddressSpaceObject* space = GateOwned(GateCaller(caller, status), GetSpace(space_id), status);
  if (space == nullptr) {
    return status;
  }
  uint32_t pte = 0;
  uint32_t pv = FindMapping(space, vaddr, cpu, pte);
  cpu.Advance(cost.trap_exit);
  if (!cksim::PteValid(pte)) {
    return CkStatus::kNotFound;
  }
  MappingInfo info;
  info.paddr = cksim::PteAddress(pte);
  info.writable = (pte & cksim::kPteWritable) != 0;
  info.message = (pte & cksim::kPteMessage) != 0;
  info.referenced = (pte & cksim::kPteReferenced) != 0;
  info.modified = (pte & cksim::kPteModified) != 0;
  info.locked = pv != kNilRecord && pmap_.record(pv).pv_locked();
  return info;
}

CkStatus CacheKernel::LockMapping(KernelId caller, cksim::Cpu& cpu, SpaceId space_id,
                                  VirtAddr vaddr, bool locked) {
  const cksim::CostModel& cost = machine_.cost();
  cpu.Advance(cost.trap_entry + cost.call_gate);
  CkStatus status = [&] {
    CkStatus gate = CkStatus::kOk;
    KernelObject* owner = GateCaller(caller, gate);
    AddressSpaceObject* space = GateOwned(owner, GetSpace(space_id), gate);
    if (space == nullptr) {
      return gate;
    }
    uint32_t pte = 0;
    uint32_t pv = FindMapping(space, vaddr, cpu, pte);
    if (pv == kNilRecord) {
      return CkStatus::kNotFound;
    }
    MemMapEntry& rec = pmap_.record(pv);
    if (locked && !rec.pv_locked()) {
      if (LockBudgetFull(owner, ObjectType::kMapping)) {
        return CkStatus::kDenied;
      }
      owner->locked_count[static_cast<uint32_t>(ObjectType::kMapping)]++;
      rec.dependent |= kPvLocked;
    } else if (!locked && rec.pv_locked()) {
      ReleaseLock(owner, ObjectType::kMapping, true);
      rec.dependent &= ~kPvLocked;
    }
    return CkStatus::kOk;
  }();
  cpu.Advance(cost.trap_exit);
  return status;
}

// ---------------------------------------------------------------------------
// Effective lock chains (section 4.2: "a locked mapping can be reclaimed
// unless its address space, its kernel object and its signal thread (if any)
// are locked")
// ---------------------------------------------------------------------------

bool CacheKernel::SpaceEffectivelyLocked(AddressSpaceObject* s) {
  if (!s->locked) {
    return false;
  }
  return kernels_.SlotAt(s->kernel_slot)->locked;
}

bool CacheKernel::ThreadEffectivelyLocked(ThreadObject* t) {
  if (!t->locked) {
    return false;
  }
  AddressSpaceObject* space = spaces_.Lookup(ckbase::PoolId{t->space_slot, t->space_gen});
  return space != nullptr && SpaceEffectivelyLocked(space);
}

bool CacheKernel::MappingEffectivelyLocked(uint32_t pv_index) {
  MemMapEntry& rec = pmap_.record(pv_index);
  if (!rec.pv_locked()) {
    return false;
  }
  AddressSpaceObject* space = spaces_.SlotAt(rec.pv_space_slot());
  if (!SpaceEffectivelyLocked(space)) {
    return false;
  }
  // Every signal thread on this mapping must itself be effectively locked.
  for (uint32_t cur = pmap_.FindFirst(pv_index); cur != kNilRecord;
       cur = pmap_.NextWithKey(cur)) {
    const MemMapEntry& dep = pmap_.record(cur);
    if (dep.type() != RecordType::kSignal) {
      continue;
    }
    ThreadObject* t = threads_.SlotAt(dep.signal_thread_slot());
    if (!ThreadEffectivelyLocked(t)) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Reclamation (capacity-forced victims)
//
// The scans themselves live in ObjectCache (src/ck/object_cache.h);
// these Ops structs are the per-type glue: occupancy, the section 4.2
// effective-lock pin chains, pass eligibility, the hardware referenced bit,
// and eviction (stats + trace + the Figure 6 writeback cascade).
// ---------------------------------------------------------------------------

struct CacheKernel::KernelVictimOps {
  static constexpr int kPasses = 1;
  static constexpr bool kScanOccupiedSteps = false;
  CacheKernel& ck;
  cksim::Cpu& cpu;
  bool Occupied(uint32_t slot) const { return ck.kernels_.IsAllocated(slot); }
  bool Eligible(uint32_t, int) const { return true; }
  bool Pinned(uint32_t slot) { return ck.KernelEffectivelyLocked(ck.kernels_.SlotAt(slot)); }
  bool TestAndClearReferenced(uint32_t) { return false; }  // no hardware bit
  // -- policy-engine feature glue (src/ck/policy.h) --
  bool PeekReferenced(uint32_t, Cycles&) const { return false; }
  // A kernel descriptor is its own owner (it is written back to the first
  // kernel, but policy scoping follows the descriptor's identity).
  uint32_t OwnerSlot(uint32_t slot) const { return slot; }
  uint32_t StateClass(uint32_t) const { return 0; }
  void Evict(uint32_t slot) {
    ck.stats_.reclamations[static_cast<uint32_t>(ObjectType::kKernel)]++;
    CK_TRACE(ck.Ring(cpu), obs::EventType::kObjectReclaim, cpu.clock(),
             static_cast<uint32_t>(ObjectType::kKernel), slot);
    ck.UnloadKernelInternal(ck.kernels_.SlotAt(slot), cpu, UnloadCause::kReclaim);
  }
};

struct CacheKernel::SpaceVictimOps {
  static constexpr int kPasses = 1;
  static constexpr bool kScanOccupiedSteps = false;
  CacheKernel& ck;
  cksim::Cpu& cpu;
  bool Occupied(uint32_t slot) const { return ck.spaces_.IsAllocated(slot); }
  bool Eligible(uint32_t, int) const { return true; }
  bool Pinned(uint32_t slot) { return ck.SpaceEffectivelyLocked(ck.spaces_.SlotAt(slot)); }
  bool TestAndClearReferenced(uint32_t) { return false; }
  bool PeekReferenced(uint32_t, Cycles&) const { return false; }
  uint32_t OwnerSlot(uint32_t slot) const { return ck.spaces_.SlotAt(slot)->kernel_slot; }
  uint32_t StateClass(uint32_t) const { return 0; }
  void Evict(uint32_t slot) {
    ck.stats_.reclamations[static_cast<uint32_t>(ObjectType::kSpace)]++;
    CK_TRACE(ck.Ring(cpu), obs::EventType::kObjectReclaim, cpu.clock(),
             static_cast<uint32_t>(ObjectType::kSpace), slot);
    ck.UnloadSpaceInternal(ck.spaces_.SlotAt(slot), cpu, UnloadCause::kReclaim);
  }
};

struct CacheKernel::ThreadVictimOps {
  // Prefer blocked threads, then ready/halted, then running (a running
  // victim costs a context switch, section 4.2).
  static constexpr int kPasses = 3;
  static constexpr bool kScanOccupiedSteps = false;
  CacheKernel& ck;
  cksim::Cpu& cpu;
  bool Occupied(uint32_t slot) const { return ck.threads_.IsAllocated(slot); }
  bool Eligible(uint32_t slot, int pass) const {
    ThreadObject* t = ck.threads_.SlotAt(slot);
    return (pass == 0 && t->state == ThreadState::kBlocked) ||
           (pass == 1 &&
            (t->state == ThreadState::kReady || t->state == ThreadState::kHalted)) ||
           pass == 2;
  }
  bool Pinned(uint32_t slot) { return ck.ThreadEffectivelyLocked(ck.threads_.SlotAt(slot)); }
  bool TestAndClearReferenced(uint32_t) { return false; }
  bool PeekReferenced(uint32_t, Cycles&) const { return false; }
  uint32_t OwnerSlot(uint32_t slot) const { return ck.threads_.SlotAt(slot)->kernel_slot; }
  // Mirrors the pass preference: blocked victims are cheapest, running ones
  // cost a context switch.
  uint32_t StateClass(uint32_t slot) const {
    ThreadObject* t = ck.threads_.SlotAt(slot);
    if (t->state == ThreadState::kBlocked) {
      return 0;
    }
    if (t->state == ThreadState::kReady || t->state == ThreadState::kHalted) {
      return 1;
    }
    return 2;
  }
  void Evict(uint32_t slot) {
    ck.stats_.reclamations[static_cast<uint32_t>(ObjectType::kThread)]++;
    CK_TRACE(ck.Ring(cpu), obs::EventType::kObjectReclaim, cpu.clock(),
             static_cast<uint32_t>(ObjectType::kThread), slot);
    ck.UnloadThreadInternal(ck.threads_.SlotAt(slot), cpu, UnloadCause::kReclaim);
  }
};

struct CacheKernel::MappingVictimOps {
  static constexpr bool kScanOccupiedSteps = true;  // budget counts pv visits
  CacheKernel& ck;
  cksim::Cpu& cpu;
  bool Occupied(uint32_t index) const {
    return ck.pmap_.record(index).type() == RecordType::kPhysToVirt;
  }
  // Most records are unlocked: test the bit before the call walks the pin chain.
  bool Pinned(uint32_t index) {
    return ck.pmap_.record(index).pv_locked() && ck.MappingEffectivelyLocked(index);
  }
  // The mapping caches' referenced bit is the real one in the leaf PTE; the
  // walk and the clearing write are charged like any other table access.
  bool TestAndClearReferenced(uint32_t index) {
    PhysAddr leaf = ck.PvLeaf(index, [this](Cycles cycles) { cpu.Advance(cycles); });
    uint32_t pte = ck.machine_.memory().ReadWord(leaf);
    if ((pte & cksim::kPteReferenced) == 0) {
      return false;
    }
    ck.machine_.memory().WriteWord(leaf, pte & ~cksim::kPteReferenced);
    cpu.Advance(ck.machine_.cost().pte_write);
    return true;
  }
  // Non-destructive referenced-bit read for feature extraction: scoring a
  // candidate must not consume its second chance (a fallback clock scan
  // after a guest fault has to see the same bits the built-in would have).
  // The walk is not charged here: its cost adds to `walk`.
  bool PeekReferenced(uint32_t index, Cycles& walk) const {
    PhysAddr leaf = ck.PvLeaf(index, [&walk](Cycles cycles) { walk += cycles; });
    return (ck.machine_.memory().ReadWord(leaf) & cksim::kPteReferenced) != 0;
  }
  uint32_t OwnerSlot(uint32_t index) const {
    MemMapEntry& rec = ck.pmap_.record(index);
    return ck.spaces_.SlotAt(rec.pv_space_slot())->kernel_slot;
  }
  uint32_t StateClass(uint32_t) const { return 0; }
  void Evict(uint32_t index) {
    ck.stats_.reclamations[static_cast<uint32_t>(ObjectType::kMapping)]++;
    CK_TRACE(ck.Ring(cpu), obs::EventType::kObjectReclaim, cpu.clock(),
             static_cast<uint32_t>(ObjectType::kMapping), ck.pmap_.record(index).pv_vaddr());
    ck.UnloadPvRecord(index, cpu, UnloadCause::kReclaim);
  }
};

PolicyTable* CacheKernel::PolicyTableOf(uint32_t kernel_slot) {
  if (kernel_slot >= config_.kernel_slots || !kernels_.IsAllocated(kernel_slot)) {
    return nullptr;
  }
  KernelObject* k = kernels_.SlotAt(kernel_slot);
  return k->handlers != nullptr ? k->handlers->policy_table() : nullptr;
}

// Policy-engine victim selection for one scan: the requesting kernel's
// loaded guest policy program (LoadPolicy) when it has one, else the
// built-in clock scan. A guest scan goes through ObjectCache::ReclaimScored;
// any abort (sandbox fault, budget exhaustion, nothing to score) falls back
// to clock with a kPolicyFallback trace event, so a load never fails because
// a policy program misbehaved.
template <typename Cache, typename Ops>
bool CacheKernel::ReclaimWithPolicy(Cache& cache, Ops& ops, ObjectType type, cksim::Cpu& cpu,
                                    uint32_t requester_slot, uint64_t& scan_steps) {
  uint32_t t = static_cast<uint32_t>(type);
  PolicyTable* table = PolicyTableOf(requester_slot);
  if (table == nullptr || !table->guest[t].enabled) {
    return cache.ReclaimClock(ops, scan_steps);
  }

  const GuestPolicy& guest = table->guest[t];
  constexpr uint32_t kLanes = ckisa::PolicyVm::kLanes;
  uint32_t budget = config_.policy_step_budget;
  uint64_t vm_steps = 0;
  PolicyFallback abort_reason = PolicyFallback::kNoCandidate;
  // The program only ever scores the requester's own descriptors: the admit
  // filter keeps other kernels' candidates out of the window, so a malicious
  // program cannot even observe them, let alone evict them.
  auto admit = [&](uint32_t slot) { return ops.OwnerSlot(slot) == requester_slot; };
  // Gather records a chunk's slots in window row 0. Score fills the other
  // rows (word w of lane k is window[w][k], the VictimFeatures word order)
  // and what each candidate's referenced-bit walk cost. It runs one engine
  // pass over the chunk (scoring has no side effects, so the program cannot
  // change mid-scan), then replays the lanes in slot order through the one
  // that stopped the scan: their counters and walk charges as a
  // one-at-a-time scan would have made them.
  uint32_t window[kPolicyFeatureWords][kLanes];
  Cycles walk[kLanes];
  auto gather = [&](uint32_t slot, uint32_t lane) { window[0][lane] = slot; };
  ckisa::PolicyVm vm(guest.words.data(), static_cast<uint32_t>(guest.words.size()),
                     kPolicyCodeBase, kPolicyFeatureBase);
  auto score = [&](uint32_t lanes, int64_t* scores) {
    for (uint32_t i = 0; i < lanes; ++i) {
      uint64_t stamp = cache.load_seq(window[0][i]);
      uint64_t age = cache.load_clock() - stamp;
      window[1][i] = age > 0xffffffffu ? 0xffffffffu : static_cast<uint32_t>(age);
      window[4][i] = static_cast<uint32_t>(stamp);
    }
    for (uint32_t i = 0; i < lanes; ++i) {
      walk[i] = 0;
      window[2][i] = ops.PeekReferenced(window[0][i], walk[i]) ? 1 : 0;
      window[5][i] = ops.StateClass(window[0][i]);
    }
    std::fill_n(window[3], lanes, 1u);  // soft_ref: every candidate is loaded
    std::fill_n(window[6], lanes, 1u);  // owner_is_self: admit shows no other
    std::fill_n(window[7], lanes, t);   // object_type
    union Results {  // Run fills every lane that the replay reads
      Results() {}
      ckisa::PolicyVmResult lane[kLanes];
    } results;
    uint32_t scored =
        vm.Run(&window[0][0], kPolicyFeatureWords, kLanes, lanes, budget, results.lane);
    uint32_t ran = std::min(scored + 1, lanes);
    uint64_t steps = 0;
    Cycles walked = 0;
    for (uint32_t i = 0; i < ran; ++i) {
      steps += results.lane[i].steps;
      walked += walk[i];
      scores[i] = static_cast<int64_t>(results.lane[i].score);
    }
    if (scored < lanes && results.lane[scored].event == ckisa::PolicyVmEvent::kBudget) {
      stats_.policy_vm_budget++;
      abort_reason = PolicyFallback::kBudget;
    } else if (scored < lanes) {
      stats_.policy_vm_faults++;
      abort_reason = PolicyFallback::kFault;
    }
    stats_.policy_vm_runs += ran;
    stats_.policy_vm_steps += steps;
    vm_steps += steps;
    budget -= static_cast<uint32_t>(steps);
    cpu.Advance(walked);
    return scored;
  };
  ScoredScan result = cache.template ReclaimScored<kLanes>(ops, scan_steps, admit, gather, score);
  // Host-side VM work is attributed to the kernel whose program ran,
  // whatever the scan's outcome.
  Tenant(requester_slot).policy_vm_steps += vm_steps;
  if (result == ScoredScan::kEvicted) {
    CK_TRACE(Ring(cpu), obs::EventType::kPolicyGuest, cpu.clock(), requester_slot,
             static_cast<uint32_t>(vm_steps));
    return true;
  }
  stats_.policy_fallbacks++;
  Tenant(requester_slot).policy_fallbacks++;
  CK_TRACE(Ring(cpu), obs::EventType::kPolicyFallback, cpu.clock(), requester_slot,
           (t << 8) | static_cast<uint32_t>(abort_reason));
  return cache.ReclaimClock(ops, scan_steps);
}

bool CacheKernel::ReclaimVictim(ObjectType type, cksim::Cpu& cpu, uint32_t requester_slot) {
  uint32_t t = static_cast<uint32_t>(type);
  uint64_t steps = 0;
  bool evicted = false;
  switch (type) {
    case ObjectType::kKernel: {
      KernelVictimOps ops{*this, cpu};
      evicted = ReclaimWithPolicy(kernels_, ops, type, cpu, requester_slot, steps);
      break;
    }
    case ObjectType::kSpace: {
      SpaceVictimOps ops{*this, cpu};
      evicted = ReclaimWithPolicy(spaces_, ops, type, cpu, requester_slot, steps);
      break;
    }
    case ObjectType::kThread: {
      ThreadVictimOps ops{*this, cpu};
      evicted = ReclaimWithPolicy(threads_, ops, type, cpu, requester_slot, steps);
      break;
    }
    case ObjectType::kMapping: {
      MappingVictimOps ops{*this, cpu};
      evicted = ReclaimWithPolicy(pmap_, ops, type, cpu, requester_slot, steps);
      break;
    }
  }
  stats_.reclaim_scan_steps[t] += steps;
  // The scan was forced by the requester's load, not by whoever owns the
  // victims examined, so it bills the loading kernel.
  Tenant(requester_slot).reclaim_scan_steps[t] += steps;
  return evicted;
}

CkStatus CacheKernel::LoadPolicy(KernelId caller, cksim::Cpu& cpu, ObjectType type,
                                 const uint32_t* words, uint32_t count) {
  const cksim::CostModel& cost = machine_.cost();
  cpu.Advance(cost.trap_entry + cost.call_gate);
  CkStatus status = CkStatus::kOk;
  KernelObject* k = GateCaller(caller, status);
  if (k == nullptr) {
    return status;
  }
  if (words == nullptr || count == 0 || count > kMaxPolicyProgramWords) {
    return CkStatus::kInvalidArgument;
  }
  PolicyTable* table = k->handlers != nullptr ? k->handlers->policy_table() : nullptr;
  if (table == nullptr) {
    return CkStatus::kDenied;  // the kernel keeps no policy state
  }
  uint32_t t = static_cast<uint32_t>(type);
  table->guest[t].words.assign(words, words + count);
  table->guest[t].enabled = true;
  // Install cost: one policy-record lookup plus copying the program words.
  cpu.Advance(cost.app_policy_lookup + cost.mem_word * count);
  CK_TRACE(Ring(cpu), obs::EventType::kPolicyLoad, cpu.clock(), kernels_.SlotOf(k), t);
  cpu.Advance(cost.trap_exit);
  return CkStatus::kOk;
}

CkStatus CacheKernel::ClearPolicy(KernelId caller, cksim::Cpu& cpu, ObjectType type) {
  const cksim::CostModel& cost = machine_.cost();
  cpu.Advance(cost.trap_entry + cost.call_gate);
  CkStatus status = CkStatus::kOk;
  KernelObject* k = GateCaller(caller, status);
  if (k == nullptr) {
    return status;
  }
  PolicyTable* table = k->handlers != nullptr ? k->handlers->policy_table() : nullptr;
  if (table != nullptr) {
    uint32_t t = static_cast<uint32_t>(type);
    table->guest[t].enabled = false;
    table->guest[t].words.clear();
  }
  cpu.Advance(cost.trap_exit);
  return CkStatus::kOk;
}

// ---------------------------------------------------------------------------
// Tiered physical memory (docs/TIERING.md)
//
// DRAM is a cache over the slow tier the same way the descriptor pools are
// caches over application-kernel state: admission on load, the same clock
// victim scan under pressure, and a cheaper writeback -- demotion keeps a
// cold frame's mappings loaded at slow-tier fill cost where full eviction
// pays the dependency-ordered unload cascade. Every transition runs at a
// deterministic point in the machine's dispatch order (kernel calls, the
// maintenance scan at the head of each turn).
// ---------------------------------------------------------------------------

void CacheKernel::SetFrameTierInternal(uint32_t frame, cksim::MemTier to, TierChange why,
                                       uint32_t tenant_slot) {
  cksim::PhysicalMemory& mem = machine_.memory();
  cksim::MemTier from = mem.tier_of(frame);
  if (from == to) {
    return;
  }
  mem.SetFrameTier(frame, to);
  tier_ref_[frame] = 0;  // referenced evidence does not survive a transition
  bool valid_slot = tenant_slot < tenant_.size();
  switch (why) {
    case TierChange::kAdmit:
      stats_.tier_admissions++;
      if (valid_slot) {
        Tenant(tenant_slot).tier_admissions++;
      }
      break;
    case TierChange::kDemote:
      stats_.tier_demotions++;
      if (valid_slot) {
        Tenant(tenant_slot).tier_demotions++;
      }
      break;
    case TierChange::kPromote:
      stats_.tier_promotions++;
      if (valid_slot) {
        Tenant(tenant_slot).tier_promotions++;
      }
      break;
    case TierChange::kEvict:
      stats_.tier_evictions++;
      if (valid_slot) {
        Tenant(tenant_slot).tier_evictions++;
      }
      break;
    case TierChange::kRelease:
      if (from == cksim::MemTier::kDram) {
        stats_.tier_release_dram++;
      } else {
        stats_.tier_release_slow++;
      }
      break;
  }
}

void CacheKernel::TierAdmitFrame(uint32_t frame, cksim::Cpu* cpu, uint32_t requester_slot) {
  if (!TierEnabled() || frame >= machine_.memory().page_count()) {
    return;
  }
  cksim::PhysicalMemory& mem = machine_.memory();
  if (mem.tier_of(frame) != cksim::MemTier::kNone) {
    return;  // already tracked
  }
  // Make room first. Pool-hook admissions arrive without a CPU to charge the
  // reclaim work to; they admit over budget and the next maintenance scan
  // trims DRAM back down.
  if (cpu != nullptr) {
    while (mem.tier_count(cksim::MemTier::kDram) >= config_.tier_dram_frames) {
      if (!TierReclaimOne(*cpu, requester_slot, frame)) {
        break;  // every candidate pinned: admit over budget
      }
    }
  }
  SetFrameTierInternal(frame, cksim::MemTier::kDram, TierChange::kAdmit, requester_slot);
  if (cpu != nullptr) {
    CK_TRACE(Ring(*cpu), obs::EventType::kTierAdmit, cpu->clock(), requester_slot, frame);
  }
}

// The demotion victim scan: the descriptor caches' ClockScan, run with the
// one tier hand over physical frames. Occupied slots are DRAM-resident frames.
struct CacheKernel::FrameTierOps {
  static constexpr bool kScanOccupiedSteps = true;  // budget counts DRAM visits
  CacheKernel& ck;
  cksim::Cpu& cpu;
  uint32_t requester_slot;
  uint32_t exclude;
  // The frame's first pv record, or kNilRecord.
  uint32_t FirstPv(uint32_t frame) const {
    return ck.pmap_.VisitPv(frame, [](uint32_t, const MemMapEntry&) { return true; });
  }
  bool Occupied(uint32_t frame) const {
    if (ck.machine_.memory().tier_of(frame) != cksim::MemTier::kDram || frame == exclude) {
      return false;
    }
    // Full-evict mode reclaims through the mapping writeback path, so only
    // frames with at least one virtual mapping are candidates: mapping-less
    // pool pages (file-cache data) pin DRAM under that mode -- exactly the
    // contrast bench/memory_tiers.cc measures against demotion.
    return ck.config_.tier_demote || FirstPv(frame) != kNilRecord;
  }
  bool Pinned(uint32_t frame) { return ck.TierFramePinned(frame); }
  bool TestAndClearReferenced(uint32_t frame) {
    return ck.TierTestAndClearReferenced(frame, cpu);
  }
  void Evict(uint32_t frame) {
    uint32_t owner = ck.TierOwnerSlot(frame, requester_slot);
    if (ck.config_.tier_demote) {
      // Demote: the mappings stay loaded; accesses re-fill their TLB entries
      // and pay the slow tier's fill latency until promotion brings the frame
      // back.
      ck.TierFlushFrame(frame, cpu);
      cpu.Advance(ck.machine_.cost().tier_demote);
      ck.SetFrameTierInternal(frame, cksim::MemTier::kSlow, TierChange::kDemote, owner);
      CK_TRACE(ck.Ring(cpu), obs::EventType::kTierDemote, cpu.clock(), owner, frame);
    } else {
      // Full evict: unload (and write back) every virtual mapping of the
      // frame, then drop it from tier tracking -- the pre-tiering reclaim
      // behavior the bench compares demotion against.
      for (uint32_t pv = FirstPv(frame); pv != kNilRecord; pv = FirstPv(frame)) {
        ck.UnloadPvRecord(pv, cpu, UnloadCause::kReclaim);
      }
      ck.SetFrameTierInternal(frame, cksim::MemTier::kNone, TierChange::kEvict, owner);
      CK_TRACE(ck.Ring(cpu), obs::EventType::kTierEvict, cpu.clock(), owner, frame);
    }
  }
};

bool CacheKernel::TierReclaimOne(cksim::Cpu& cpu, uint32_t requester_slot, uint32_t exclude) {
  FrameTierOps ops{*this, cpu, requester_slot, exclude};
  uint64_t steps = 0;
  bool evicted = ClockScan(tier_hand_, machine_.memory().page_count(), ops, steps);
  stats_.tier_scan_steps += steps;
  return evicted;
}

void CacheKernel::TierMaintenance(cksim::Cpu& cpu) {
  tier_next_scan_ = cpu.clock() + config_.tier_promote_period;
  cksim::PhysicalMemory& mem = machine_.memory();
  uint32_t fallback_slot = first_kernel_.id.slot;
  // Trim DRAM back to budget: pool-hook admissions overshoot (no CPU to
  // charge reclaim work to at allocation time) and settle here.
  while (mem.tier_count(cksim::MemTier::kDram) > config_.tier_dram_frames) {
    if (!TierReclaimOne(cpu, fallback_slot, kNoFrame)) {
      break;
    }
  }
  // Hot-page promotion: a bounded round-robin sweep over slow-tier frames,
  // harvesting referenced evidence; hot frames migrate back to DRAM. Every
  // promotion opens a causal span so the migration's downstream cost (the
  // demotions it forces, the TLB refills) is attributable.
  //
  // The sweep covers at most one revolution from the hand and jumps between
  // slow frames through the memory's slow-frame index, asking it again after
  // every visit: a promotion's reclaim may demote a frame ahead of the hand,
  // and the sweep visits that frame too. The hand ends one past the last
  // visit when the budget runs out, else (a full revolution) where it began.
  uint32_t page_count = mem.page_count();
  uint32_t budget = config_.tier_scan_frames;
  uint32_t hand = tier_promote_hand_;
  uint32_t left = page_count;  // positions the sweep has yet to cover
  while (budget > 0) {
    uint32_t frame = mem.NextSlowFrame(hand);
    uint32_t skipped = frame - hand;
    if (frame == page_count) {
      frame = mem.NextSlowFrame(0);
      skipped = page_count - hand + frame;
    }
    if (skipped >= left) {
      hand = tier_promote_hand_;
      break;
    }
    left -= skipped + 1;
    hand = frame + 1 == page_count ? 0 : frame + 1;
    --budget;
    stats_.tier_scan_steps++;
    if (!TierTestAndClearReferenced(frame, cpu)) {
      continue;
    }
    while (mem.tier_count(cksim::MemTier::kDram) >= config_.tier_dram_frames) {
      if (!TierReclaimOne(cpu, fallback_slot, frame)) {
        break;
      }
    }
    uint32_t owner = TierOwnerSlot(frame, fallback_slot);
    uint32_t span = machine_.AllocSpanId();
    CK_TRACE(Ring(cpu), obs::EventType::kSpanBegin, cpu.clock(),
             static_cast<uint16_t>(obs::EventType::kTierPromote), span);
    TierFlushFrame(frame, cpu);
    cpu.Advance(machine_.cost().tier_promote);
    SetFrameTierInternal(frame, cksim::MemTier::kDram, TierChange::kPromote, owner);
    CK_TRACE(Ring(cpu), obs::EventType::kTierPromote, cpu.clock(), owner, frame);
  }
  tier_promote_hand_ = hand;
}

bool CacheKernel::TierTestAndClearReferenced(uint32_t frame, cksim::Cpu& cpu) {
  bool hot = tier_ref_[frame] != 0;
  tier_ref_[frame] = 0;
  // OR over the hardware referenced bits of every virtual mapping; all are
  // consumed so the next scan sees only fresh use. The walks and clearing
  // writes are charged like any other table access.
  pmap_.VisitPv(frame, [&](uint32_t pv, const MemMapEntry&) {
    PhysAddr leaf = PvLeaf(pv, [&cpu](Cycles cycles) { cpu.Advance(cycles); });
    uint32_t pte = machine_.memory().ReadWord(leaf);
    if ((pte & cksim::kPteReferenced) != 0) {
      machine_.memory().WriteWord(leaf, pte & ~cksim::kPteReferenced);
      cpu.Advance(machine_.cost().pte_write);
      hot = true;
    }
    return false;
  });
  return hot;
}

bool CacheKernel::TierFramePinned(uint32_t frame) {
  return pmap_.VisitPv(frame, [&](uint32_t pv, const MemMapEntry&) {
           return MappingEffectivelyLocked(pv);
         }) != kNilRecord;
}

void CacheKernel::TierFlushFrame(uint32_t frame, cksim::Cpu& cpu) {
  // A migration retargets the frame's physical medium: every TLB entry
  // naming it is flushed so the next access re-fills and pays the new tier's
  // fill cost (the micro-TLBs hold hints into the real TLBs, so they
  // revalidate automatically).
  pmap_.VisitPv(frame, [&](uint32_t, const MemMapEntry& rec) {
    FlushTlbPageAllCpus(static_cast<uint16_t>(rec.pv_space_slot()),
                        rec.pv_vaddr() >> cksim::kPageShift, cpu);
    return false;
  });
  FlushReverseTlbFrameAllCpus(frame);
}

uint32_t CacheKernel::TierOwnerSlot(uint32_t frame, uint32_t fallback) {
  uint32_t owner = fallback;
  pmap_.VisitPv(frame, [&](uint32_t, const MemMapEntry& rec) {
    uint32_t space_slot = rec.pv_space_slot();
    if (space_slot < spaces_.capacity() && spaces_.IsAllocated(space_slot)) {
      owner = spaces_.SlotAt(space_slot)->kernel_slot;
      return true;
    }
    return false;
  });
  return owner;
}

cksim::Cycles CacheKernel::TierSlowTouchCycles(PhysAddr addr, uint32_t len) const {
  if (!TierEnabled() || len == 0) {
    return 0;
  }
  const cksim::PhysicalMemory& mem = machine_.memory();
  Cycles extra = 0;
  uint32_t last = cksim::PageFrame(addr + len - 1);
  for (uint32_t f = cksim::PageFrame(addr); f <= last; ++f) {
    if (mem.tier_of(f) == cksim::MemTier::kSlow) {
      extra += machine_.cost().tier_slow_fill;
    }
  }
  return extra;
}

void CacheKernel::TierTouch(PhysAddr addr) {
  uint32_t frame = cksim::PageFrame(addr);
  if (!TierEnabled() || frame >= machine_.memory().page_count()) {
    return;
  }
  tier_ref_[frame] = 1;
}

void CacheKernel::TierFramePoolEvent(KernelId owner, PhysAddr frame_addr, bool allocated) {
  uint32_t frame = cksim::PageFrame(frame_addr);
  if (frame >= machine_.memory().page_count()) {
    return;
  }
  if (allocated) {
    TierAdmitFrame(frame, /*cpu=*/nullptr, owner.id.slot);
  } else if (machine_.memory().tier_of(frame) != cksim::MemTier::kNone) {
    SetFrameTierInternal(frame, cksim::MemTier::kNone, TierChange::kRelease, owner.id.slot);
  }
}

uint8_t CacheKernel::FrameTierOf(PhysAddr addr) const {
  uint32_t frame = cksim::PageFrame(addr);
  if (frame >= machine_.memory().page_count()) {
    return static_cast<uint8_t>(cksim::MemTier::kNone);
  }
  return static_cast<uint8_t>(machine_.memory().tier_of(frame));
}

void CacheKernel::RestoreFrameTier(PhysAddr addr, uint8_t tier) {
  uint32_t frame = cksim::PageFrame(addr);
  if (frame >= machine_.memory().page_count() ||
      tier >= static_cast<uint8_t>(cksim::kMemTierCount)) {
    return;
  }
  cksim::MemTier target = static_cast<cksim::MemTier>(tier);
  cksim::MemTier cur = machine_.memory().tier_of(frame);
  if (cur == target) {
    return;
  }
  // Reinstate the placement through the normal transitions (no charges, no
  // budget enforcement -- this replays state, it does not simulate work), so
  // the CkStats conservation identities keep holding after a round trip.
  uint32_t slot = first_kernel_.id.slot;
  switch (target) {
    case cksim::MemTier::kNone:
      SetFrameTierInternal(frame, cksim::MemTier::kNone, TierChange::kRelease, slot);
      break;
    case cksim::MemTier::kDram:
      if (cur == cksim::MemTier::kNone) {
        SetFrameTierInternal(frame, cksim::MemTier::kDram, TierChange::kAdmit, slot);
      } else {
        SetFrameTierInternal(frame, cksim::MemTier::kDram, TierChange::kPromote, slot);
      }
      break;
    case cksim::MemTier::kSlow:
      if (cur == cksim::MemTier::kNone) {
        SetFrameTierInternal(frame, cksim::MemTier::kDram, TierChange::kAdmit, slot);
      }
      SetFrameTierInternal(frame, cksim::MemTier::kSlow, TierChange::kDemote, slot);
      break;
  }
}

// ---------------------------------------------------------------------------
// Cascaded unloads (Figure 6 dependency order)
// ---------------------------------------------------------------------------

namespace {

// Dependents of an unloading object are involuntary writebacks; only a
// kDiscard parent (invariant repair, no writeback) propagates as-is.
UnloadCause CascadeCause(UnloadCause parent) {
  return parent == UnloadCause::kDiscard ? UnloadCause::kDiscard : UnloadCause::kCascade;
}

}  // namespace

void CacheKernel::UnloadPvRecord(uint32_t pv_index, cksim::Cpu& cpu, UnloadCause cause,
                                 bool consistency_cascade) {
  const cksim::CostModel& cost = machine_.cost();
  MemMapEntry& rec = pmap_.record(pv_index);
  uint32_t frame = rec.pv_frame();
  VirtAddr vaddr = rec.pv_vaddr();
  uint32_t space_slot = rec.pv_space_slot();
  AddressSpaceObject* space = spaces_.SlotAt(space_slot);
  KernelObject* owner = kernels_.SlotAt(space->kernel_slot);

  // Gather and clear the hardware state.
  MappingWriteback record;
  record.space_cookie = space->cookie;
  record.vaddr = vaddr;
  record.pframe = frame;
  record.writable = (rec.pv_flags() & kPvWritable) != 0;
  record.message = rec.pv_message();

  PhysAddr leaf = PvLeaf(pv_index, [&cpu](Cycles cycles) { cpu.Advance(cycles); });
  uint32_t pte = machine_.memory().ReadWord(leaf);
  if (cksim::PteValid(pte)) {
    record.referenced = (pte & cksim::kPteReferenced) != 0;
    record.modified = (pte & cksim::kPteModified) != 0;
    machine_.memory().WriteWord(leaf, 0);
    cpu.Advance(cost.pte_write);
  }
  FlushTlbPageAllCpus(static_cast<uint16_t>(space_slot), vaddr >> cksim::kPageShift, cpu);
  FlushReverseTlbFrameAllCpus(frame);

  // Remove annotation records (signal registrations, cow source).
  bool had_signal = false;
  uint32_t cur = pmap_.FindFirst(pv_index);
  while (cur != kNilRecord) {
    uint32_t next = pmap_.NextWithKey(cur);
    MemMapEntry& dep = pmap_.record(cur);
    if (dep.type() == RecordType::kSignal) {
      had_signal = true;
      UnlinkSignalRecord(cur);
      pmap_.Remove(cur);
      cpu.Advance(cost.hash_op);
    } else if (dep.type() == RecordType::kCopyOnWrite) {
      pmap_.Remove(cur);
      cpu.Advance(cost.hash_op);
    }
    cur = next;
  }
  record.had_signal = had_signal;

  ReleaseLock(owner, ObjectType::kMapping, rec.pv_locked());
  pmap_.Remove(pv_index);
  cpu.Advance(cost.hash_op);
  space->mapping_count--;

  // Multi-mapping consistency (section 4.2): flushing a signal mapping
  // flushes every writable mapping of the frame, so a sender can never
  // signal into a page whose receivers have lost their mappings.
  if (had_signal && consistency_cascade) {
    std::vector<uint32_t> writable_peers;
    pmap_.VisitPv(frame, [&](uint32_t peer, const MemMapEntry& p) {
      if ((p.pv_flags() & kPvWritable) != 0) {
        writable_peers.push_back(peer);
      }
      return false;
    });
    for (uint32_t peer : writable_peers) {
      if (pmap_.record(peer).type() == RecordType::kPhysToVirt) {
        UnloadPvRecord(peer, cpu, CascadeCause(cause), /*consistency_cascade=*/false);
      }
    }
  }

  CommitWriteback(cpu, cause, ObjectType::kMapping, kernels_.SlotOf(owner), owner, record.vaddr, 0,
                  [&](AppKernel& h, CkApi& api) { h.OnMappingWriteback(record, api); });
}

void CacheKernel::UnloadThreadInternal(ThreadObject* thread, cksim::Cpu& cpu, UnloadCause cause) {
  const cksim::CostModel& cost = machine_.cost();
  KernelObject* owner = kernels_.SlotAt(thread->kernel_slot);
  AddressSpaceObject* space = spaces_.SlotAt(thread->space_slot);

  // Detach from the processor / queues.
  if (thread->state == ThreadState::kRunning) {
    cksim::Cpu& target = machine_.cpu(thread->cpu);
    if (CurrentOn(target) == thread) {
      target.current_thread = nullptr;
      cpu.Advance(cost.context_save);
    }
  }
  if (thread->ready_node.linked()) {
    Dequeue(thread);
  }
  RemoveSignalRecordsForThread(thread, cpu);
  for (uint32_t c = 0; c < machine_.cpu_count(); ++c) {
    machine_.cpu(c).reverse_tlb().InvalidateThread(threads_.IdOf(thread).Packed());
  }

  ThreadWriteback record;
  record.cookie = thread->cookie;
  record.space_cookie = space->cookie;
  record.context = thread->vm;
  record.priority = thread->priority;
  record.was_blocked = thread->state == ThreadState::kBlocked;
  record.cpu_consumed = thread->cpu_consumed;

  ReleaseLock(owner, ObjectType::kThread, thread->locked);
  space->threads.Remove(thread);
  owner->thread_count--;
  threads_.Release(thread);
  cpu.Advance(cost.context_save + cost.list_op);
  // The writeback record carries the register context (half a descriptor).
  CommitWriteback(cpu, cause, ObjectType::kThread, kernels_.SlotOf(owner), owner,
                  static_cast<uint32_t>(record.cookie),
                  cost.mem_word * (kThreadDescriptorBytes / 4 / 2),
                  [&](AppKernel& h, CkApi& api) { h.OnThreadWriteback(record, api); });
}

void CacheKernel::FreeSpaceTables(AddressSpaceObject* space) {
  cksim::PhysicalMemory& mem = machine_.memory();
  for (uint32_t i1 = 0; i1 < cksim::kL1Entries; ++i1) {
    uint32_t l1 = mem.ReadWord(space->root_table + i1 * 4);
    if (!cksim::PteValid(l1)) {
      continue;
    }
    PhysAddr l2_table = cksim::PteAddress(l1);
    for (uint32_t i2 = 0; i2 < cksim::kL2Entries; ++i2) {
      uint32_t l2 = mem.ReadWord(l2_table + i2 * 4);
      if (cksim::PteValid(l2)) {
        table_arena_.Free(cksim::PteAddress(l2), cksim::kL3TableBytes);
      }
    }
    table_arena_.Free(l2_table, cksim::kL2TableBytes);
  }
  table_arena_.Free(space->root_table, cksim::kL1TableBytes);
  space->root_table = 0;
}

void CacheKernel::UnloadSpaceInternal(AddressSpaceObject* space, cksim::Cpu& cpu,
                                      UnloadCause cause) {
  const cksim::CostModel& cost = machine_.cost();
  KernelObject* owner = kernels_.SlotAt(space->kernel_slot);
  uint32_t space_slot = spaces_.SlotOf(space);

  // "Before an address space object is written back, all the page mappings
  // in the address space and all the associated threads are written back."
  while (ThreadObject* t = space->threads.Front()) {
    UnloadThreadInternal(t, cpu, CascadeCause(cause));
  }

  // Walk the page tables to find every loaded mapping of this space.
  cksim::PhysicalMemory& mem = machine_.memory();
  for (uint32_t i1 = 0; i1 < cksim::kL1Entries && space->mapping_count > 0; ++i1) {
    uint32_t l1 = mem.ReadWord(space->root_table + i1 * 4);
    if (!cksim::PteValid(l1)) {
      continue;
    }
    for (uint32_t i2 = 0; i2 < cksim::kL2Entries && space->mapping_count > 0; ++i2) {
      uint32_t l2 = mem.ReadWord(cksim::PteAddress(l1) + i2 * 4);
      if (!cksim::PteValid(l2)) {
        continue;
      }
      for (uint32_t i3 = 0; i3 < cksim::kL3Entries && space->mapping_count > 0; ++i3) {
        uint32_t leaf = mem.ReadWord(cksim::PteAddress(l2) + i3 * 4);
        if (!cksim::PteValid(leaf)) {
          continue;
        }
        VirtAddr vaddr = (i1 << 25) | (i2 << 18) | (i3 << cksim::kPageShift);
        uint32_t pv = pmap_.FindPv(cksim::PageFrame(cksim::PteAddress(leaf)), space_slot, vaddr);
        if (pv != kNilRecord) {
          UnloadPvRecord(pv, cpu, CascadeCause(cause));
        } else {
          mem.WriteWord(cksim::PteAddress(l2) + i3 * 4, 0);
        }
      }
    }
  }

  FreeSpaceTables(space);
  for (uint32_t c = 0; c < machine_.cpu_count(); ++c) {
    machine_.cpu(c).mmu().tlb().FlushAsid(static_cast<uint16_t>(space_slot));
    cpu.Advance(cost.tlb_flush_asid);
  }

  SpaceWriteback record;
  record.cookie = space->cookie;
  ReleaseLock(owner, ObjectType::kSpace, space->locked);
  owner->space_count--;
  spaces_.Release(space);
  cpu.Advance(cost.descriptor_init);
  CommitWriteback(cpu, cause, ObjectType::kSpace, kernels_.SlotOf(owner), owner,
                  static_cast<uint32_t>(record.cookie), 0,
                  [&](AppKernel& h, CkApi& api) { h.OnSpaceWriteback(record, api); });
}

void CacheKernel::UnloadKernelInternal(KernelObject* kernel, cksim::Cpu& cpu, UnloadCause cause) {
  const cksim::CostModel& cost = machine_.cost();
  uint32_t kernel_slot = kernels_.SlotOf(kernel);

  // Unload every address space (and thereby thread and mapping) it owns.
  // "Unloading a kernel object is an expensive operation" -- this loop is
  // why (section 2.4).
  for (uint32_t slot = 0; slot < spaces_.capacity(); ++slot) {
    if (!spaces_.IsAllocated(slot)) {
      continue;
    }
    AddressSpaceObject* space = spaces_.SlotAt(slot);
    if (space->kernel_slot == kernel_slot) {
      UnloadSpaceInternal(space, cpu, CascadeCause(cause));
    }
  }

  KernelObject* manager = kernels_.SlotAt(kernel->manager_slot);
  KernelWriteback record;
  record.cookie = kernel->cookie;
  ReleaseLock(manager, ObjectType::kKernel, kernel->locked);
  kernels_.Release(kernel);
  cpu.Advance(cost.descriptor_init);
  // A kernel object's unload is charged to its own slot (captured before the
  // release; the slot index survives the descriptor) and written back to its
  // manager.
  CommitWriteback(cpu, cause, ObjectType::kKernel, kernel_slot, manager,
                  static_cast<uint32_t>(record.cookie), 0,
                  [&](AppKernel& h, CkApi& api) { h.OnKernelWriteback(record, api); });
}

// ---------------------------------------------------------------------------
// Page contents / physical access
// ---------------------------------------------------------------------------

bool CacheKernel::CheckPhysicalAccess(KernelObject* kernel, PhysAddr addr, uint32_t len,
                                      bool write) {
  if (!machine_.memory().Contains(addr, len)) {
    return false;
  }
  for (PhysAddr a = addr & ~(cksim::kPageGroupBytes - 1); a < addr + len;
       a += cksim::kPageGroupBytes) {
    if (!kernel->AllowsPhysical(a, write)) {
      return false;
    }
  }
  return true;
}

CkStatus CacheKernel::CopyPage(KernelId caller, cksim::Cpu& cpu, PhysAddr dst, PhysAddr src) {
  const cksim::CostModel& cost = machine_.cost();
  cpu.Advance(cost.trap_entry + cost.call_gate);
  CkStatus status = CkStatus::kOk;
  KernelObject* k = GateCaller(caller, status);
  if (k == nullptr) {
    return status;
  }
  if ((dst & cksim::kPageOffsetMask) != 0 || (src & cksim::kPageOffsetMask) != 0 ||
      !CheckPhysicalAccess(k, dst, cksim::kPageSize, true) ||
      !CheckPhysicalAccess(k, src, cksim::kPageSize, false)) {
    return CkStatus::kDenied;
  }
  std::vector<uint8_t> buf(cksim::kPageSize);
  machine_.memory().Read(src, buf.data(), cksim::kPageSize);
  machine_.memory().Write(dst, buf.data(), cksim::kPageSize);
  cpu.Advance(cost.cache_line_fill * (cksim::kPageSize / 32));  // line-at-a-time copy
  cpu.Advance(TierSlowTouchCycles(src, cksim::kPageSize) +
              TierSlowTouchCycles(dst, cksim::kPageSize));
  cpu.Advance(cost.trap_exit);
  return CkStatus::kOk;
}

CkStatus CacheKernel::ZeroPage(KernelId caller, cksim::Cpu& cpu, PhysAddr dst) {
  const cksim::CostModel& cost = machine_.cost();
  cpu.Advance(cost.trap_entry + cost.call_gate);
  CkStatus status = CkStatus::kOk;
  KernelObject* k = GateCaller(caller, status);
  if (k == nullptr) {
    return status;
  }
  if ((dst & cksim::kPageOffsetMask) != 0 ||
      !CheckPhysicalAccess(k, dst, cksim::kPageSize, true)) {
    return CkStatus::kDenied;
  }
  machine_.memory().Zero(dst, cksim::kPageSize);
  cpu.Advance(cost.mem_word * (cksim::kPageSize / 8));  // burst zeroing
  cpu.Advance(TierSlowTouchCycles(dst, cksim::kPageSize));
  cpu.Advance(cost.trap_exit);
  return CkStatus::kOk;
}

CkStatus CacheKernel::WritePhys(KernelId caller, cksim::Cpu& cpu, PhysAddr addr, const void* data,
                                uint32_t len) {
  const cksim::CostModel& cost = machine_.cost();
  CkStatus status = CkStatus::kOk;
  KernelObject* k = GateCaller(caller, status);
  if (k == nullptr) {
    return status;
  }
  if (!CheckPhysicalAccess(k, addr, len, true)) {
    return CkStatus::kDenied;
  }
  machine_.memory().Write(addr, data, len);
  cpu.Advance(cost.mem_word * ((len + 3) / 4) + TierSlowTouchCycles(addr, len));
  return CkStatus::kOk;
}

CkStatus CacheKernel::ReadPhys(KernelId caller, cksim::Cpu& cpu, PhysAddr addr, void* out,
                               uint32_t len) {
  const cksim::CostModel& cost = machine_.cost();
  CkStatus status = CkStatus::kOk;
  KernelObject* k = GateCaller(caller, status);
  if (k == nullptr) {
    return status;
  }
  if (!CheckPhysicalAccess(k, addr, len, false)) {
    return CkStatus::kDenied;
  }
  machine_.memory().Read(addr, out, len);
  cpu.Advance(cost.mem_word * ((len + 3) / 4) + TierSlowTouchCycles(addr, len));
  return CkStatus::kOk;
}

void CacheKernel::MarkFrameRemote(uint32_t pframe, bool remote) {
  if (pframe < remote_frames_.size()) {
    remote_frames_[pframe] = remote ? 1 : 0;
  }
}

void CacheKernel::ScheduleAppEvent(cksim::Cycles at, KernelId kernel,
                                   std::function<void(CkApi&)> fn) {
  AppEvent event{at, kernel.id, std::move(fn)};
  auto it = app_events_.begin();
  while (it != app_events_.end() && it->at <= at) {
    ++it;
  }
  app_events_.insert(it, std::move(event));
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

uint32_t CacheKernel::loaded_count(ObjectType type) const {
  switch (type) {
    case ObjectType::kKernel:
      return kernels_.in_use();
    case ObjectType::kSpace:
      return spaces_.in_use();
    case ObjectType::kThread:
      return threads_.in_use();
    case ObjectType::kMapping:
      // Only pv records are cached mapping objects; signal/cow annotation
      // records occupy pool slots but are loaded/written back with their pv.
      return pmap_.loaded();
  }
  return 0;
}

std::array<uint32_t, kObjectTypeCount> CacheKernel::LoadedCountsFor(KernelId kernel) {
  std::array<uint32_t, kObjectTypeCount> counts{};
  KernelObject* k = GetKernel(kernel);
  if (k == nullptr) {
    return counts;
  }
  counts[static_cast<uint32_t>(ObjectType::kKernel)] = 1;
  counts[static_cast<uint32_t>(ObjectType::kSpace)] = k->space_count;
  counts[static_cast<uint32_t>(ObjectType::kThread)] = k->thread_count;
  // Each loaded space counts its own pv records (ValidateInvariants checks
  // every count against the map).
  uint32_t mappings = 0;
  for (uint32_t slot = 0; slot < spaces_.capacity(); ++slot) {
    if (spaces_.IsAllocated(slot) && spaces_.SlotAt(slot)->kernel_slot == kernel.id.slot) {
      mappings += spaces_.SlotAt(slot)->mapping_count;
    }
  }
  counts[static_cast<uint32_t>(ObjectType::kMapping)] = mappings;
  return counts;
}

uint32_t CacheKernel::capacity(ObjectType type) const {
  switch (type) {
    case ObjectType::kKernel:
      return kernels_.capacity();
    case ObjectType::kSpace:
      return spaces_.capacity();
    case ObjectType::kThread:
      return threads_.capacity();
    case ObjectType::kMapping:
      return pmap_.capacity();
  }
  return 0;
}

Result<ThreadState> CacheKernel::GetThreadState(ThreadId id) {
  ThreadObject* t = GetThread(id);
  if (t == nullptr) {
    return CkStatus::kStale;
  }
  return t->state;
}

Result<cksim::Cycles> CacheKernel::GetThreadCpuConsumed(ThreadId id) {
  ThreadObject* t = GetThread(id);
  if (t == nullptr) {
    return CkStatus::kStale;
  }
  return t->cpu_consumed;
}

Result<uint32_t> CacheKernel::GetThreadCpu(ThreadId id) {
  ThreadObject* t = GetThread(id);
  if (t == nullptr) {
    return CkStatus::kStale;
  }
  return static_cast<uint32_t>(t->cpu);
}

void CacheKernel::FlushTlbPageAllCpus(uint16_t asid, uint32_t vpage, cksim::Cpu& cpu) {
  const cksim::CostModel& cost = machine_.cost();
  for (uint32_t c = 0; c < machine_.cpu_count(); ++c) {
    machine_.cpu(c).mmu().tlb().FlushPage(asid, vpage);
    cpu.Advance(c == cpu.id() ? cost.tlb_flush_entry : cost.tlb_flush_entry + cost.ipi);
  }
}

void CacheKernel::FlushReverseTlbFrameAllCpus(uint32_t pframe) {
  for (uint32_t c = 0; c < machine_.cpu_count(); ++c) {
    machine_.cpu(c).reverse_tlb().InvalidateFrame(pframe);
  }
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

void CacheKernel::RecordFaultTrace(const FaultTrace& trace) {
  using cksim::CostModel;
  fault_step_stats_.transfer.Add(CostModel::ToMicroseconds(trace.handler_start -
                                                           trace.trap_entry));
  fault_step_stats_.total.Add(CostModel::ToMicroseconds(trace.resumed - trace.trap_entry));
  if (trace.mapping_loaded != 0) {
    // Faults resolved without a mapping load (e.g. the app kernel chose to
    // block or kill the thread) have no step-4 stamp; only the combined
    // transfer/total distributions see them.
    fault_step_stats_.handle_load.Add(
        CostModel::ToMicroseconds(trace.mapping_loaded - trace.handler_start));
    fault_step_stats_.resume.Add(CostModel::ToMicroseconds(trace.resumed -
                                                           trace.mapping_loaded));
  }

  uint32_t depth = config_.fault_history_depth;
  if (depth == 0) {
    return;
  }
  if (fault_history_.size() < depth) {
    fault_history_.push_back(trace);
  } else {
    fault_history_[fault_history_pushed_ % depth] = trace;
  }
  fault_history_pushed_++;
}

std::vector<FaultTrace> CacheKernel::FaultHistory() const {
  std::vector<FaultTrace> out;
  uint32_t depth = config_.fault_history_depth;
  if (depth == 0 || fault_history_.empty()) {
    return out;
  }
  out.reserve(fault_history_.size());
  uint64_t oldest = fault_history_pushed_ > fault_history_.size()
                        ? fault_history_pushed_ - fault_history_.size()
                        : 0;
  for (uint64_t i = oldest; i < fault_history_pushed_; ++i) {
    out.push_back(fault_history_[i % depth]);
  }
  return out;
}

void CacheKernel::RegisterMetrics(obs::Registry& registry) {
  static const char* const kTypeNames[kObjectTypeCount] = {"kernel", "space", "thread",
                                                           "mapping"};
  const CkStats* s = &stats_;
  for (uint32_t t = 0; t < kObjectTypeCount; ++t) {
    std::string type = kTypeNames[t];
    registry.AddCounter("ck.loads." + type, [s, t] { return s->loads[t]; });
    registry.AddCounter("ck.writebacks." + type, [s, t] { return s->writebacks[t]; });
    registry.AddCounter("ck.reclamations." + type, [s, t] { return s->reclamations[t]; });
    registry.AddCounter("ck.reclaim.scan_steps." + type,
                        [s, t] { return s->reclaim_scan_steps[t]; });
    registry.AddCounter("ck.explicit_unloads." + type,
                        [s, t] { return s->explicit_unloads[t]; });
  }
  registry.AddCounter("ck.load_failures", [s] { return s->load_failures; });
  registry.AddCounter("ck.faults_forwarded", [s] { return s->faults_forwarded; });
  registry.AddCounter("ck.traps_forwarded", [s] { return s->traps_forwarded; });
  registry.AddCounter("ck.signals.fast", [s] { return s->signals_delivered_fast; });
  registry.AddCounter("ck.signals.slow", [s] { return s->signals_delivered_slow; });
  registry.AddCounter("ck.signals.queued", [s] { return s->signals_queued; });
  registry.AddCounter("ck.signals.dropped", [s] { return s->signals_dropped; });
  registry.AddCounter("ck.consistency_faults", [s] { return s->consistency_faults; });
  registry.AddCounter("ck.exec.trace_hits", [s] { return s->exec_trace_hits; });
  registry.AddCounter("ck.exec.trace_misses", [s] { return s->exec_trace_misses; });
  registry.AddCounter("ck.exec.trace_invalidations",
                      [s] { return s->exec_trace_invalidations; });
  registry.AddCounter("ck.exec.trace_builds", [s] { return s->exec_trace_builds; });
  registry.AddCounter("ck.sched.context_switches", [s] { return s->context_switches; });
  registry.AddCounter("ck.sched.preemptions", [s] { return s->preemptions; });
  registry.AddCounter("ck.sched.idle_turns", [s] { return s->idle_turns; });
  registry.AddCounter("ck.sched.idle_skips", [this] { return idle_skips_; });
  registry.AddCounter("ck.sched.poll_skips", [this] { return poll_skips_; });
  registry.AddCounter("ck.sched.quota_degradations", [s] { return s->quota_degradations; });
  registry.AddCounter("ck.stale_id_errors", [s] { return s->stale_id_errors; });
  registry.AddCounter("ck.tier.admissions", [s] { return s->tier_admissions; });
  registry.AddCounter("ck.tier.demotions", [s] { return s->tier_demotions; });
  registry.AddCounter("ck.tier.promotions", [s] { return s->tier_promotions; });
  registry.AddCounter("ck.tier.evictions", [s] { return s->tier_evictions; });
  registry.AddCounter("ck.tier.release_dram", [s] { return s->tier_release_dram; });
  registry.AddCounter("ck.tier.release_slow", [s] { return s->tier_release_slow; });
  registry.AddCounter("ck.tier.scan_steps", [s] { return s->tier_scan_steps; });
  registry.AddCounter("ck.policy.vm_runs", [s] { return s->policy_vm_runs; });
  registry.AddCounter("ck.policy.vm_steps", [s] { return s->policy_vm_steps; });
  registry.AddCounter("ck.policy.vm_faults", [s] { return s->policy_vm_faults; });
  registry.AddCounter("ck.policy.vm_budget", [s] { return s->policy_vm_budget; });
  registry.AddCounter("ck.policy.fallbacks", [s] { return s->policy_fallbacks; });
  const cksim::PhysicalMemory* pm = &machine_.memory();
  registry.AddCounter("ck.tier.dram_count",
                      [pm] { return pm->tier_count(cksim::MemTier::kDram); });
  registry.AddCounter("ck.tier.slow_count",
                      [pm] { return pm->tier_count(cksim::MemTier::kSlow); });

  cksim::Machine* m = &machine_;
  for (uint32_t c = 0; c < machine_.cpu_count(); ++c) {
    std::string cpu = std::to_string(c);
    registry.AddCounter("hw.tlb.hits.cpu" + cpu,
                        [m, c] { return m->cpu(c).mmu().tlb().hits(); });
    registry.AddCounter("hw.tlb.misses.cpu" + cpu,
                        [m, c] { return m->cpu(c).mmu().tlb().misses(); });
  }

  const FaultStepStats* f = &fault_step_stats_;
  registry.AddHistogram("ck.fault_us.transfer", [f] { return f->transfer; });
  registry.AddHistogram("ck.fault_us.handle_load", [f] { return f->handle_load; });
  registry.AddHistogram("ck.fault_us.resume", [f] { return f->resume; });
  registry.AddHistogram("ck.fault_us.total", [f] { return f->total; });

  // Per-kernel cost attribution, one counter family per kernel slot
  // (ck.tenant.<slot>.*). Summing a family across slots reproduces the
  // matching machine-level ck.* counter. reclaim_scan_steps/loads/... are
  // summed over object types here; the per-type split is available through
  // tenant_accounts() for tests.
  const std::vector<CostAccount>* tenants = &tenant_;
  for (uint32_t slot = 0; slot < config_.kernel_slots; ++slot) {
    std::string prefix = "ck.tenant." + std::to_string(slot) + ".";
    auto sum = [tenants, slot](const uint64_t(CostAccount::*field)[kObjectTypeCount]) {
      const CostAccount& a = (*tenants)[slot];
      uint64_t total = 0;
      for (uint32_t t = 0; t < kObjectTypeCount; ++t) {
        total += (a.*field)[t];
      }
      return total;
    };
    registry.AddCounter(prefix + "loads", [sum] { return sum(&CostAccount::loads); });
    registry.AddCounter(prefix + "writebacks", [sum] { return sum(&CostAccount::writebacks); });
    registry.AddCounter(prefix + "explicit_unloads",
                        [sum] { return sum(&CostAccount::explicit_unloads); });
    registry.AddCounter(prefix + "reclaim_scan_steps",
                        [sum] { return sum(&CostAccount::reclaim_scan_steps); });
    registry.AddCounter(prefix + "guest_instructions",
                        [tenants, slot] { return (*tenants)[slot].guest_instructions; });
    registry.AddCounter(prefix + "guest_cycles",
                        [tenants, slot] { return (*tenants)[slot].guest_cycles; });
    registry.AddCounter(prefix + "faults",
                        [tenants, slot] { return (*tenants)[slot].faults_forwarded; });
    registry.AddCounter(prefix + "prof_samples",
                        [tenants, slot] { return (*tenants)[slot].prof_samples; });
    registry.AddCounter(prefix + "trace_hits",
                        [tenants, slot] { return (*tenants)[slot].exec_trace_hits; });
    registry.AddCounter(prefix + "trace_misses",
                        [tenants, slot] { return (*tenants)[slot].exec_trace_misses; });
    registry.AddCounter(prefix + "trace_invalidations",
                        [tenants, slot] { return (*tenants)[slot].exec_trace_invalidations; });
    registry.AddCounter(prefix + "trace_builds",
                        [tenants, slot] { return (*tenants)[slot].exec_trace_builds; });
    registry.AddCounter(prefix + "tier_admissions",
                        [tenants, slot] { return (*tenants)[slot].tier_admissions; });
    registry.AddCounter(prefix + "tier_demotions",
                        [tenants, slot] { return (*tenants)[slot].tier_demotions; });
    registry.AddCounter(prefix + "policy_vm_steps",
                        [tenants, slot] { return (*tenants)[slot].policy_vm_steps; });
    registry.AddCounter(prefix + "policy_fallbacks",
                        [tenants, slot] { return (*tenants)[slot].policy_fallbacks; });
    registry.AddCounter(prefix + "tier_promotions",
                        [tenants, slot] { return (*tenants)[slot].tier_promotions; });
    registry.AddCounter(prefix + "tier_evictions",
                        [tenants, slot] { return (*tenants)[slot].tier_evictions; });
  }
}

void CacheKernel::set_profile_period(cksim::Cycles period) {
  for (uint32_t c = 0; c < machine_.cpu_count(); ++c) {
    samplers_[c].Arm(machine_.cpu(c).clock(), period);
  }
}

void CacheKernel::RecordPcSample(uint32_t kernel_slot, uint32_t pc, cksim::Cpu& cpu) {
  profile_pcs_[kernel_slot][pc]++;
  profile_samples_total_++;
  Tenant(kernel_slot).prof_samples++;
  CK_TRACE(Ring(cpu), obs::EventType::kProfSample, cpu.clock(),
           static_cast<uint16_t>(kernel_slot), pc);
}

}  // namespace ck
