// Memory-based messaging: address-valued signal delivery (sections 2.2, 4.1).

#include "src/ck/cache_kernel.h"

namespace ck {

using cksim::Cycles;
using cksim::PhysAddr;
using cksim::VirtAddr;

CkStatus CacheKernel::Signal(KernelId caller, cksim::Cpu& cpu, SpaceId sender_space,
                             VirtAddr vaddr) {
  const cksim::CostModel& cost = machine_.cost();
  cpu.Advance(cost.trap_entry + cost.call_gate);
  CkStatus status = CkStatus::kOk;
  AddressSpaceObject* space = GateOwned(GateCaller(caller, status), GetSpace(sender_space), status);
  cksim::Fault fault;
  if (space != nullptr) {
    status = SendSignal(space, vaddr, cpu, fault);
  }
  cpu.Advance(cost.trap_exit);
  return status;
}

CkStatus CacheKernel::SendSignal(AddressSpaceObject* space, VirtAddr vaddr, cksim::Cpu& cpu,
                                 cksim::Fault& fault) {
  uint16_t asid = static_cast<uint16_t>(spaces_.SlotOf(space));
  cksim::Mmu::TranslateResult t =
      cpu.mmu().Translate(space->root_table, asid, vaddr, cksim::Access::kRead);
  cpu.Advance(t.cycles);
  if (!t.ok) {
    fault = t.fault;
    return CkStatus::kNotFound;  // the sender's mapping must be loaded
  }
  uint32_t pte = LeafPte(space, vaddr, cpu);
  if (!cksim::PteValid(pte) || (pte & cksim::kPteMessage) == 0) {
    return CkStatus::kInvalidArgument;  // not a message-mode page
  }
  machine_.DeliverDoorbell(t.paddr, cpu.clock());
  DeliverSignalToFrame(cksim::PageFrame(t.paddr), t.paddr & cksim::kPageOffsetMask, cpu.clock(),
                       &cpu);
  return CkStatus::kOk;
}

void CacheKernel::SignalPhysical(PhysAddr addr, Cycles when) {
  // Device-originated signals (reception slots, clock ticks). Devices run off
  // the machine clock, not a CPU, so delivery always goes through the
  // per-CPU pending queues.
  DeliverSignalToFrame(cksim::PageFrame(addr), addr & cksim::kPageOffsetMask, when, nullptr);
}

void CacheKernel::DeliverSignalToFrame(uint32_t pframe, uint32_t offset, Cycles when,
                                       cksim::Cpu* origin_cpu) {
  const cksim::CostModel& cost = machine_.cost();

  // Two-stage lookup (section 4.1): PhysToVirt records for the frame, then
  // Signal records keyed by each. Targets are collected first because
  // delivery can mutate the map (stale-thread records are dropped).
  struct Target {
    ckbase::PoolId thread;
    VirtAddr vaddr;
  };
  std::vector<Target> targets;

  pmap_.VisitPv(pframe, [&](uint32_t pv, const MemMapEntry& rec) {
    VirtAddr vbase = rec.pv_vaddr();
    for (uint32_t sig = pmap_.FindFirst(pv); sig != kNilRecord; sig = pmap_.NextWithKey(sig)) {
      const MemMapEntry& dep = pmap_.record(sig);
      if (dep.type() != RecordType::kSignal) {
        continue;
      }
      uint32_t slot = dep.signal_thread_slot();
      if (!threads_.IsAllocated(slot)) {
        continue;
      }
      ThreadObject* t = threads_.SlotAt(slot);
      ckbase::PoolId tid = threads_.IdOf(t);
      if ((tid.generation & 0xffffffu) != dep.signal_thread_gen24()) {
        continue;  // record names a previous occupant of the slot
      }
      targets.push_back(Target{tid, vbase + offset});
    }
    return false;
  });

  for (const Target& target : targets) {
    ThreadObject* t = threads_.Lookup(target.thread);
    if (t == nullptr) {
      continue;
    }
    if (origin_cpu != nullptr && t->cpu == origin_cpu->id()) {
      DeliverToThread(t, target.vaddr, pframe, *origin_cpu);
    } else {
      // Cross-processor delivery: timestamped, processed on the receiver's
      // next turn after the IPI latency.
      if (origin_cpu != nullptr) {
        origin_cpu->Advance(cost.ipi);
      }
      Cycles due = when + cost.ipi;
      auto& queue = pending_signals_[t->cpu];
      auto it = queue.end();
      while (it != queue.begin() && (it - 1)->due > due) {
        --it;
      }
      queue.insert(it, PendingSignal{target.thread, target.vaddr, pframe, due});
    }
  }
}

void CacheKernel::DrainPendingSignals(cksim::Cpu& cpu) {
  auto& queue = pending_signals_[cpu.id()];
  while (!queue.empty() && queue.front().due <= cpu.clock()) {
    PendingSignal pending = queue.front();
    queue.pop_front();
    ThreadObject* t = threads_.Lookup(pending.thread);
    if (t == nullptr) {
      continue;  // unloaded while the signal was in flight
    }
    DeliverToThread(t, pending.vaddr, pending.pframe, cpu);
  }
}

void CacheKernel::DeliverToThread(ThreadObject* thread, VirtAddr vaddr, uint32_t pframe,
                                  cksim::Cpu& cpu) {
  const cksim::CostModel& cost = machine_.cost();

  // Fast path: the per-processor reverse-TLB maps the physical frame to its
  // signal thread; a hit delivers to the active thread with no map lookup
  // (section 4.1).
  bool fast = false;
  if (config_.reverse_tlb_enabled) {
    const cksim::ReverseTlb::Entry* entry = cpu.reverse_tlb().Lookup(pframe);
    if (entry != nullptr && entry->thread_id == threads_.IdOf(thread).Packed()) {
      fast = true;
    }
  }
  if (fast) {
    cpu.Advance(cost.signal_deliver_fast);
    stats_.signals_delivered_fast++;
    CK_TRACE(Ring(cpu), obs::EventType::kSignalFast, cpu.clock(), pframe, vaddr);
  } else {
    cpu.Advance(cost.signal_deliver_slow);
    stats_.signals_delivered_slow++;
    CK_TRACE(Ring(cpu), obs::EventType::kSignalSlow, cpu.clock(), pframe, vaddr);
    if (config_.reverse_tlb_enabled) {
      cpu.reverse_tlb().Insert({true, pframe, threads_.IdOf(thread).Packed()});
    }
  }

  // Queue the address-valued signal.
  if (thread->signal_count >= ThreadObject::kSignalQueueDepth) {
    thread->signals_dropped++;
    stats_.signals_dropped++;
    CK_TRACE(Ring(cpu), obs::EventType::kSignalDropped, cpu.clock(),
             threads_.IdOf(thread).Packed(), vaddr);
    return;
  }
  uint32_t tail =
      (thread->signal_head + thread->signal_count) % ThreadObject::kSignalQueueDepth;
  thread->signal_queue[tail] = vaddr;
  thread->signal_count++;
  if (thread->in_signal) {
    stats_.signals_queued++;
    CK_TRACE(Ring(cpu), obs::EventType::kSignalQueued, cpu.clock(),
             threads_.IdOf(thread).Packed(), vaddr);
  }

  switch (thread->state) {
    case ThreadState::kBlocked: {
      // Wake the waiter; "the overhead of signal delivery to the non-active
      // thread ... is dominated by the rescheduling time".
      thread->state = ThreadState::kReady;
      if (thread->native == nullptr && thread->signal_handler == 0) {
        // await-signal style: return the address in a0.
        thread->vm.regs[ckisa::kRegA0] = thread->PopSignal();
      }
      Enqueue(thread, /*front=*/true);
      cpu.Advance(cost.list_op);
      break;
    }
    case ThreadState::kRunning:
      // Guest threads enter the signal function at their next instruction
      // boundary (the dispatcher calls MaybeEnterSignalHandler); native
      // threads get OnSignal before their next Step.
      if (CurrentOn(cpu) == thread && thread->native == nullptr) {
        MaybeEnterSignalHandler(thread, cpu);
      }
      break;
    case ThreadState::kReady:
      break;  // handled at dispatch
    case ThreadState::kHalted:
      break;  // signal kept queued; the kernel will unload the thread anyway
  }
}

void CacheKernel::MaybeEnterSignalHandler(ThreadObject* thread, cksim::Cpu& cpu) {
  if (thread->in_signal || thread->signal_count == 0 || thread->signal_handler == 0 ||
      thread->native != nullptr) {
    return;
  }
  VirtAddr addr = thread->PopSignal();

  // Enter the signal function: save pc, pass the translated message address
  // in a0, run the handler until it executes the signal-return trap.
  thread->saved_pc = thread->vm.pc;
  thread->vm.pc = thread->signal_handler;
  thread->vm.regs[ckisa::kRegA0] = addr;
  thread->in_signal = true;
  cpu.Advance(machine_.cost().list_op);
}

void CacheKernel::RemoveSignalRecordsForThread(ThreadObject* thread, cksim::Cpu& cpu) {
  // Walk the thread's registration chain (linked through the records' spare
  // context bits) instead of scanning the whole pmap arena: teardown is
  // O(registrations), independent of map capacity or occupancy. The cost
  // model is unchanged -- one hash_op per removed record, as before; the
  // arena scan was pure host-side overhead.
  const cksim::CostModel& cost = machine_.cost();
  uint32_t slot = threads_.SlotOf(thread);
  uint32_t gen24 = threads_.IdOf(thread).generation & 0xffffffu;
  uint32_t cur = signal_reg_head_[slot];
  while (cur != kNilSignalChain) {
    const MemMapEntry& rec = pmap_.record(cur);
    uint32_t next = rec.signal_next();
    // Chain integrity is enforced by ValidateInvariants; re-check the record
    // before freeing it anyway so a stale head can never free a reused slot.
    if (rec.type() == RecordType::kSignal && rec.signal_thread_slot() == slot &&
        rec.signal_thread_gen24() == gen24) {
      pmap_.Remove(cur);
      cpu.Advance(cost.hash_op);
      if (thread->signal_reg_count > 0) {
        thread->signal_reg_count--;
      }
    }
    cur = next;
  }
  signal_reg_head_[slot] = kNilSignalChain;
  thread->signal_reg_count = 0;
}

void CacheKernel::UnlinkSignalRecord(uint32_t index) {
  const MemMapEntry& rec = pmap_.record(index);
  uint32_t slot = rec.signal_thread_slot();
  if (slot >= threads_.capacity() || !threads_.IsAllocated(slot)) {
    return;
  }
  ThreadObject* thread = threads_.SlotAt(slot);
  if ((threads_.IdOf(thread).generation & 0xffffffu) != rec.signal_thread_gen24()) {
    return;  // names a previous occupant; its chain ended with that thread
  }
  uint32_t cur = signal_reg_head_[slot];
  if (cur == index) {
    signal_reg_head_[slot] = rec.signal_next();
  } else {
    while (cur != kNilSignalChain) {
      MemMapEntry& link = pmap_.record(cur);
      if (link.signal_next() == index) {
        link.set_signal_next(rec.signal_next());
        break;
      }
      cur = link.signal_next();
    }
  }
  if (thread->signal_reg_count > 0) {
    thread->signal_reg_count--;
  }
}

}  // namespace ck
