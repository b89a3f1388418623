// Cache Kernel scheduling, dispatch, and trap/fault forwarding (Figure 2).

#include "src/ck/cache_kernel.h"

namespace ck {

using cksim::Cycles;
using cksim::PhysAddr;
using cksim::VirtAddr;

// Guest memory bus: binds the running thread's address space to the CPU's
// MMU. All guest instruction fetches, loads and stores flow through here.
class GuestBusImpl : public ckisa::GuestBus {
 public:
  GuestBusImpl(CacheKernel& ck, cksim::Cpu& cpu, AddressSpaceObject* space, uint16_t asid)
      : ck_(ck), cpu_(cpu), space_(space), asid_(asid) {
    fp_.cpu = &cpu;
    if (ck.samplers_[cpu.id()].period != 0) {
      fp_.sampler = &ck.samplers_[cpu.id()];
    }
    if (ck.config_.fastpath) {
      // Superblock traces: the translation state a trace reads, the owning
      // CPU's trace cache and this quantum's trace counters.
      fp_.mtlb = &ck.micro_tlbs_[cpu.id()];
      fp_.tlb = &cpu.mmu().tlb();
      fp_.mem = &ck.machine_.memory();
      fp_.remote_frame_bits = ck.remote_frames_.data();
      fp_.frame_count = static_cast<uint32_t>(ck.remote_frames_.size());
      fp_.asid = asid;
      fp_.cost_tlb_hit = ck.machine_.cost().tlb_hit;
      fp_.cost_mem_word = ck.machine_.cost().mem_word;
      fp_.cost_instruction = ck.machine_.cost().instruction;
      fp_.tcache = ck.trace_caches_[cpu.id()].get();
      fp_.trace_stats = &trace_stats_;
    }
  }

  ckisa::FastPath* fast_path() override { return &fp_; }

  const ckisa::TraceStats& trace_stats() const { return trace_stats_; }

  MemResult Fetch(uint32_t vaddr) override {
    return Access(vaddr, cksim::Access::kExecute, 0, 4);
  }
  MemResult Load(uint32_t vaddr, uint32_t width) override {
    return Access(vaddr, cksim::Access::kRead, 0, width);
  }
  MemResult Store(uint32_t vaddr, uint32_t value, uint32_t width) override {
    return Access(vaddr, cksim::Access::kWrite, value, width);
  }

  void ChargeInstruction() override { cpu_.Advance(ck_.machine_.cost().instruction); }

  void OnMessageWrite(uint32_t vaddr) override {
    // Signal-on-write hardware assist (section 2.2 footnote): the write
    // itself generates the address-valued signal.
    if (!ck_.config_.signal_on_write) {
      return;
    }
    cksim::Mmu::TranslateResult t =
        cpu_.mmu().Translate(space_->root_table, asid_, vaddr, cksim::Access::kRead);
    if (t.ok) {
      ck_.DeliverSignalToFrame(cksim::PageFrame(t.paddr), t.paddr & cksim::kPageOffsetMask,
                               cpu_.clock(), &cpu_);
    }
  }

 private:
  MemResult Access(uint32_t vaddr, cksim::Access access, uint32_t value, uint32_t size) {
    MemResult result;
    if (size == 4 && (vaddr & 3u) != 0) {
      result.fault.type = cksim::FaultType::kBadAlignment;
      result.fault.address = vaddr;
      result.fault.access = access;
      return result;
    }
    cksim::Mmu::TranslateResult t =
        cpu_.mmu().Translate(space_->root_table, asid_, vaddr, access);
    cpu_.Advance(t.cycles);
    if (!t.ok) {
      result.fault = t.fault;
      return result;
    }
    uint32_t pframe = cksim::PageFrame(t.paddr);
    if (ck_.FrameIsRemote(pframe)) {
      // Consistency fault: the line is held on a remote node or the memory
      // module failed (section 2.1).
      ck_.stats_.consistency_faults++;
      result.fault.type = cksim::FaultType::kConsistency;
      result.fault.address = vaddr;
      result.fault.access = access;
      return result;
    }
    cksim::PhysicalMemory& mem = ck_.machine_.memory();
    cpu_.Advance(ck_.machine_.cost().mem_word);
    if (access == cksim::Access::kWrite) {
      if (size == 4) {
        mem.WriteWord(t.paddr, value);
      } else {
        mem.WriteByte(t.paddr, static_cast<uint8_t>(value));
      }
      result.message_write = t.message_write;
    } else {
      result.value = size == 4 ? mem.ReadWord(t.paddr) : mem.ReadByte(t.paddr);
    }
    result.ok = true;
    // Seed the micro-TLB so a trace's next data access to this page stays in
    // the trace. Probe is side-effect free; the TLB entry is resident (the
    // translation above just hit or filled it).
    if (fp_.mtlb != nullptr && access != cksim::Access::kExecute) {
      fp_.mtlb->Fill(access, asid_, vaddr >> cksim::kPageShift,
                     fp_.tlb->Probe(asid_, vaddr >> cksim::kPageShift));
    }
    return result;
  }

  CacheKernel& ck_;
  cksim::Cpu& cpu_;
  AddressSpaceObject* space_;
  uint16_t asid_;
  ckisa::TraceStats trace_stats_;
  ckisa::FastPath fp_;
};

// ---------------------------------------------------------------------------
// Native application memory access
// ---------------------------------------------------------------------------

Result<uint32_t> CacheKernel::GuestAccessSlow(ThreadObject* thread, cksim::Cpu& cpu,
                                              ThreadId thread_id, VirtAddr vaddr,
                                              cksim::Access access, uint32_t value,
                                              cksim::Mmu::TranslateResult t) {
  for (int attempt = 1;; ++attempt) {
    cpu.Advance(t.cycles);
    if (t.ok && FrameIsRemote(cksim::PageFrame(t.paddr))) {
      stats_.consistency_faults++;
      ForwardFault(thread, cpu, {cksim::FaultType::kConsistency, vaddr, access});
    } else if (t.ok) {
      cpu.Advance(machine_.cost().mem_word);
      if (access == cksim::Access::kRead) {
        return machine_.memory().ReadWord(t.paddr & ~3u);
      }
      machine_.memory().WriteWord(t.paddr & ~3u, value);
      if (t.message_write && config_.signal_on_write) {
        DeliverSignalToFrame(cksim::PageFrame(t.paddr), t.paddr & cksim::kPageOffsetMask,
                             cpu.clock(), &cpu);
      }
      return value;
    } else {
      ForwardFault(thread, cpu, t.fault);
    }
    if (GetThread(thread_id) == nullptr || thread->state == ThreadState::kHalted ||
        thread->state == ThreadState::kBlocked) {
      return CkStatus::kBusy;  // the handler blocked or killed the thread
    }
    if (attempt == 3) {
      return CkStatus::kNotFound;
    }
    AddressSpaceObject* space =
        spaces_.Lookup(ckbase::PoolId{thread->space_slot, thread->space_gen});
    if (space == nullptr) {
      return CkStatus::kStale;
    }
    t = cpu.mmu().Translate(space->root_table, static_cast<uint16_t>(thread->space_slot), vaddr,
                            access);
  }
}

// A word that follows a successful load on the same page does what the
// inline path of GuestAccess does: nothing has run since that load, so the
// thread and its space are still loaded and the word's one TLB Lookup hits
// the entry Probe finds. A run of such words adds its hits at once, leaves
// the entry's lru at the last hit's tick and charges its cycles together.
void CacheKernel::LoadWords(KernelId caller, cksim::Cpu& cpu, ThreadId thread_id,
                            VirtAddr first, uint32_t stride, uint32_t count, Cycles charge_each,
                            Result<uint32_t>* out) {
  const cksim::CostModel& cost = machine_.cost();
  cksim::Tlb& tlb = cpu.mmu().tlb();
  auto word = [&](uint32_t i) -> VirtAddr { return first + i * stride; };
  for (uint32_t i = 0; i < count;) {
    uint32_t vpage = word(i) >> cksim::kPageShift;
    out[i] = GuestAccess(caller, cpu, thread_id, word(i), cksim::Access::kRead, 0);
    cpu.Advance(charge_each);
    if (!out[i++].ok()) {
      continue;
    }
    uint32_t end = i;
    while (end < count && word(end) >> cksim::kPageShift == vpage) {
      ++end;
    }
    int32_t entry =
        end > i ? tlb.Probe(static_cast<uint16_t>(GetThread(thread_id)->space_slot), vpage) : -1;
    if (entry < 0 || FrameIsRemote(tlb.EntryAt(entry).pframe)) {
      continue;
    }
    cpu.Advance((end - i) * (cost.tlb_hit + cost.mem_word + charge_each));
    tlb.CommitFastHits(end - i);
    tlb.SetLruAt(static_cast<uint32_t>(entry), tlb.tick());
    PhysAddr frame = cksim::FrameBase(tlb.EntryAt(entry).pframe);
    for (; i < end; ++i) {
      out[i] = machine_.memory().ReadWord(frame | (word(i) & cksim::kPageOffsetMask & ~3u));
    }
  }
}

// ---------------------------------------------------------------------------
// Ready queues
// ---------------------------------------------------------------------------

void CacheKernel::Enqueue(ThreadObject* thread, bool front) {
  ReadyQueue& queue = ready_[thread->cpu][thread->priority];
  if (front) {
    queue.PushFront(thread);
  } else {
    queue.PushBack(thread);
  }
  ready_mask_[thread->cpu] |= uint64_t{1} << thread->priority;
  thread->state = ThreadState::kReady;
}

void CacheKernel::Dequeue(ThreadObject* thread) {
  ReadyQueue& queue = ready_[thread->cpu][thread->priority];
  queue.Remove(thread);
  if (queue.empty()) {
    ready_mask_[thread->cpu] &= ~(uint64_t{1} << thread->priority);
  }
}

ThreadObject* CacheKernel::PickNext(cksim::Cpu& cpu) {
  RollQuotaWindow(cpu);
  // Pass 0 honors quotas; pass 1 runs over-quota threads only when the
  // processor is otherwise idle ("reduced to a low priority so that they only
  // run when the processor is otherwise idle", section 4.3).
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t scan = ready_mask_[cpu.id()]; scan != 0;) {
      int prio = 63 - __builtin_clzll(scan);
      scan &= ~(uint64_t{1} << prio);
      ReadyQueue& queue = ready_[cpu.id()][prio];
      for (ThreadObject* t : queue) {
        KernelObject* owner = kernels_.SlotAt(t->kernel_slot);
        bool degraded = config_.enforce_quotas && owner->over_quota[cpu.id()];
        if (pass == 0 && degraded) {
          continue;
        }
        Dequeue(t);
        return t;
      }
    }
  }
  return nullptr;
}

void CacheKernel::PreemptCurrent(cksim::Cpu& cpu) {
  ThreadObject* cur = CurrentOn(cpu);
  if (cur == nullptr) {
    return;
  }
  cpu.Advance(machine_.cost().context_save);
  cur->state = ThreadState::kReady;
  Enqueue(cur);
  cpu.current_thread = nullptr;
  stats_.preemptions++;
  CK_TRACE(Ring(cpu), obs::EventType::kPreemption, cpu.clock(), cur->priority,
           threads_.IdOf(cur).Packed());
}

void CacheKernel::RollQuotaWindow(cksim::Cpu& cpu) {
  if (cpu.clock() - quota_window_start_[cpu.id()] < config_.quota_window) {
    return;
  }
  quota_window_start_[cpu.id()] = cpu.clock();
  for (uint32_t slot = 0; slot < kernels_.capacity(); ++slot) {
    if (!kernels_.IsAllocated(slot)) {
      continue;
    }
    KernelObject* k = kernels_.SlotAt(slot);
    k->weighted_consumed[cpu.id()] = 0;
    k->over_quota[cpu.id()] = false;
  }
}

void CacheKernel::ChargeThread(ThreadObject* thread, cksim::Cpu& cpu, Cycles cycles) {
  thread->cpu_consumed += cycles;
  thread->slice_remaining = thread->slice_remaining > cycles
                                ? thread->slice_remaining - cycles
                                : 0;
  cpu.busy_cycles += cycles;
  Tenant(thread->kernel_slot).guest_cycles += cycles;

  KernelObject* owner = kernels_.SlotAt(thread->kernel_slot);
  // Graduated charging (section 4.3): a premium for high-priority execution,
  // a discount for low. weight/16 ranges from 0.5 at priority 0 to ~2.4 at 31.
  uint64_t weighted = cycles * (8 + thread->priority) / 16;
  owner->weighted_consumed[cpu.id()] += weighted;
  cpu.Advance(machine_.cost().quota_account);

  if (config_.enforce_quotas && owner->cpu_percent[cpu.id()] < 100 &&
      !owner->over_quota[cpu.id()]) {
    uint64_t budget =
        static_cast<uint64_t>(owner->cpu_percent[cpu.id()]) * config_.quota_window / 100;
    if (owner->weighted_consumed[cpu.id()] > budget) {
      owner->over_quota[cpu.id()] = true;
      stats_.quota_degradations++;
      CK_TRACE(Ring(cpu), obs::EventType::kQuotaDegrade, cpu.clock(),
               owner->cpu_percent[cpu.id()], thread->kernel_slot);
    }
  }
}

// ---------------------------------------------------------------------------
// The dispatch loop
// ---------------------------------------------------------------------------

void CacheKernel::OnCpuTurn(cksim::Cpu& cpu) {
  // Tiered-memory maintenance (DRAM trim + hot-page promotion) runs at the
  // head of every turn it is due in, so every tier transition happens at a
  // deterministic point in the machine's dispatch order.
  if (TierEnabled() && config_.tier_promote_period != 0 && cpu.clock() >= tier_next_scan_) {
    TierMaintenance(cpu);
  }

  // Application-kernel deferred events due on this CPU's clock.
  while (!app_events_.empty() && app_events_.front().at <= cpu.clock()) {
    AppEvent event = std::move(app_events_.front());
    app_events_.erase(app_events_.begin());
    KernelObject* k = kernels_.Lookup(event.kernel);
    if (k != nullptr) {
      CkApi api(*this, KernelId{event.kernel}, cpu);
      event.fn(api);
    }
  }

  DrainPendingSignals(cpu);

  ThreadObject* current = CurrentOn(cpu);
  if (current != nullptr) {
    // Priority preemption: a higher-priority thread readied since last turn.
    // (Double shift: current->priority may be 63, and a single >>64 is UB.)
    if ((ready_mask_[cpu.id()] >> current->priority) >> 1 != 0) {
      PreemptCurrent(cpu);
      current = nullptr;
    }
    // Quota preemption: a degraded kernel's thread runs only when the
    // processor is otherwise idle (section 4.3), so any ready non-degraded
    // thread takes the processor at the next dispatch boundary.
    if (current != nullptr && config_.enforce_quotas &&
        kernels_.SlotAt(current->kernel_slot)->over_quota[cpu.id()]) {
      bool other_waiting = false;
      for (uint32_t prio = 0; prio < kPriorityLevels && !other_waiting; ++prio) {
        for (ThreadObject* t : ready_[cpu.id()][prio]) {
          if (!kernels_.SlotAt(t->kernel_slot)->over_quota[cpu.id()]) {
            other_waiting = true;
            break;
          }
        }
      }
      if (other_waiting) {
        PreemptCurrent(cpu);
        current = nullptr;
      }
    }
  }

  if (current == nullptr) {
    current = PickNext(cpu);
    if (current == nullptr) {
      IdleTurn(cpu);
      return;
    }
    current->state = ThreadState::kRunning;
    cpu.current_thread = current;
    current->slice_remaining = kTimeSlice;
    cpu.Advance(machine_.cost().context_restore);
    stats_.context_switches++;
    CK_TRACE(Ring(cpu), obs::EventType::kContextSwitch, cpu.clock(), current->priority,
             threads_.IdOf(current).Packed());
  }

  if (current->native != nullptr) {
    RunNative(current, cpu);
  } else {
    RunGuest(current, cpu);
  }

  // Time-slice expiry: round-robin within the priority (section 4.3).
  ThreadObject* still = CurrentOn(cpu);
  if (still != nullptr && still->slice_remaining == 0) {
    PreemptCurrent(cpu);
  }
}

// The horizon H of a turn of `cpu`: the earliest clock at which a turn of
// this CPU could see a change. Its turns before H can change nothing but its
// own clock and accounting, so inside Machine::RunUntil one idle turn
// (IdleTurn) or one quiet poller's turn (RunNative) covers them all, and
// clocks and CkStats match the crawl exactly; an H earlier than the true
// next change only costs an extra turn. H is the minimum of:
//   - the machine's horizon: the next device event and the RunUntil
//     deadline (0 outside RunUntil, so a bare Step covers one tick or poll);
//   - the clock of every other CPU that can run a thread (a current thread
//     or a ready queue), plus 1 if its index is higher: Step runs the
//     lowest clock, the lowest index on a tie. Idle CPUs do not bound each
//     other, because their turns before H are no-ops too;
//   - the first app event, every CPU's first pending signal and the next
//     tier scan, which run on whichever CPU reaches them first.
Cycles CacheKernel::TurnHorizon(cksim::Cpu& cpu) {
  const uint32_t self = cpu.id();
  Cycles horizon = machine_.Horizon();
  if (!app_events_.empty()) {
    horizon = std::min(horizon, app_events_.front().at);
  }
  if (TierEnabled() && config_.tier_promote_period != 0) {
    horizon = std::min(horizon, tier_next_scan_);
  }
  for (uint32_t i = 0; i < machine_.cpu_count(); ++i) {
    if (!pending_signals_[i].empty()) {
      horizon = std::min(horizon, pending_signals_[i].front().due);
    }
    cksim::Cpu& other = machine_.cpu(i);
    if (i != self && (other.current_thread != nullptr || ready_mask_[i] != 0)) {
      horizon = std::min(horizon, other.clock() + (i > self ? 1 : 0));
    }
  }
  return horizon;
}

// An idle CPU advances idle_tick cycles per turn. One turn covers every tick
// before the horizon, or before this CPU's next quota-window roll (its
// PickNext stamps the roll with its own clock), and lands on the grid point
// of the crawl's first turn at or after that.
void CacheKernel::IdleTurn(cksim::Cpu& cpu) {
  const Cycles now = cpu.clock();
  const Cycles tick = machine_.cost().idle_tick;
  const uint32_t self = cpu.id();
  const Cycles window_start = quota_window_start_[self];
  const Cycles horizon = std::min(
      TurnHorizon(cpu), window_start + std::min(config_.quota_window, ~Cycles{0} - window_start));

  // Whole ticks to the first grid point at or after H: at least one, and
  // never past the end of the clock's range.
  uint64_t ticks = 1;
  if (horizon > now && horizon - now > tick) {
    const Cycles gap = horizon - now;
    ticks = std::max<uint64_t>(
        1, std::min<uint64_t>(gap / tick + (gap % tick != 0), (~Cycles{0} - now) / tick));
  }
  Cycles target = now + ticks * tick;
  // This CPU's own next signal lands off the grid, exactly when it is due.
  if (!pending_signals_[self].empty()) {
    target = std::max(now + 1, std::min(target, pending_signals_[self].front().due));
    ticks = (target - now + tick - 1) / tick;
  }
  stats_.idle_turns += ticks;
  if (ticks > 1) {
    idle_skips_++;
  }
  cpu.AdvanceTo(target);
}

// One guest quantum: up to kDispatchBudget instructions, then the charges
// and the quantum's exit event (trap, fault or halt).
void CacheKernel::RunGuest(ThreadObject* thread, cksim::Cpu& cpu) {
  AddressSpaceObject* space =
      spaces_.Lookup(ckbase::PoolId{thread->space_slot, thread->space_gen});
  if (space == nullptr) {
    // Invariant violation: threads are unloaded with their space.
    UnloadThreadInternal(thread, cpu, UnloadCause::kDiscard);
    return;
  }

  MaybeEnterSignalHandler(thread, cpu);

  Cycles before = cpu.clock();
  GuestBusImpl bus(*this, cpu, space, static_cast<uint16_t>(thread->space_slot));
  ckisa::RunResult run = ckisa::Run(thread->vm, bus, kDispatchBudget);
  const ckisa::TraceStats& traces = bus.trace_stats();

  ChargeThread(thread, cpu, cpu.clock() - before);
  stats_.guest_instructions += run.instructions;
  stats_.exec_trace_hits += traces.hits;
  stats_.exec_trace_misses += traces.misses;
  stats_.exec_trace_invalidations += traces.invalidations;
  stats_.exec_trace_builds += traces.builds;
  CostAccount& account = Tenant(thread->kernel_slot);
  account.guest_instructions += run.instructions;
  account.exec_trace_hits += traces.hits;
  account.exec_trace_misses += traces.misses;
  account.exec_trace_invalidations += traces.invalidations;
  account.exec_trace_builds += traces.builds;

  // Harvest the quantum's profiler sample (if one came due) while the owning
  // kernel slot is still known -- the interpreter only latched the PC.
  ckisa::PcSampler& sampler = samplers_[cpu.id()];
  if (sampler.pending) {
    sampler.pending = false;
    RecordPcSample(thread->kernel_slot, sampler.last_pc, cpu);
  }

  switch (run.event) {
    case ckisa::RunEvent::kBudgetExhausted:
      break;
    case ckisa::RunEvent::kTrap:
      if (run.trap_number < kFirstAppTrap) {
        HandleCkTrap(thread, cpu, run.trap_number);
      } else {
        ForwardTrap(thread, cpu, run.trap_number);
      }
      break;
    case ckisa::RunEvent::kFault:
      ForwardFault(thread, cpu, run.fault);
      break;
    case ckisa::RunEvent::kHalt:
      HaltThread(thread, cpu);
      break;
  }
}

void CacheKernel::RunNative(ThreadObject* thread, cksim::Cpu& cpu) {
  KernelObject* owner = kernels_.SlotAt(thread->kernel_slot);
  ThreadId id = IdOfThread(thread);
  NativeCtx ctx(CkApi(*this, IdOfKernel(owner), cpu), id, thread->cookie);

  // Deliver queued address-valued signals before the step.
  while (thread->signal_count > 0) {
    thread->native->OnSignal(thread->PopSignal(), ctx);
    if (GetThread(id) != thread || thread->state != ThreadState::kRunning) {
      return;  // the handler unloaded or blocked the thread
    }
  }

  Cycles before = cpu.clock();
  NativeOutcome outcome = thread->native->Step(ctx);
  if (GetThread(id) != thread) {
    return;  // the step unloaded this thread
  }
  Cycles consumed = cpu.clock() - before;
  const bool charged_nothing = consumed == 0;
  if (charged_nothing) {
    cpu.Advance(machine_.cost().instruction);
    consumed = machine_.cost().instruction;
  }
  ChargeThread(thread, cpu, consumed);

  switch (outcome.action) {
    case NativeOutcome::Action::kYield:
      if (charged_nothing && outcome.quiet_until > cpu.clock()) {
        SkipQuietPolls(thread, owner, cpu, outcome.quiet_until);
      }
      break;
    case NativeOutcome::Action::kBlock:
      if (thread->state == ThreadState::kRunning) {
        // A signal may have raced in during the step; stay runnable then.
        if (thread->signal_count > 0) {
          break;
        }
        thread->state = ThreadState::kBlocked;
        cpu.current_thread = nullptr;
        cpu.Advance(machine_.cost().context_save);
      }
      break;
    case NativeOutcome::Action::kHalt:
      HaltThread(thread, cpu);
      break;
  }
}

// After a step that charged nothing and promised quiet until T
// (NativeOutcome::quiet_until), the turn makes every poll the crawl would
// make before min(T, TurnHorizon), each with the crawl's own bookkeeping (one
// instruction advanced and charged), while the crawl's next turn would poll
// again: no signal queued, the thread current and running, nothing of higher
// priority ready here, slice left and its kernel not over quota. A poll that
// empties the slice or degrades the kernel ends it; the turn's tail then
// preempts where the crawl would.
void CacheKernel::SkipQuietPolls(ThreadObject* thread, KernelObject* owner, cksim::Cpu& cpu,
                                 Cycles quiet_until) {
  if (thread->signal_count > 0 || CurrentOn(cpu) != thread ||
      thread->state != ThreadState::kRunning ||
      (ready_mask_[cpu.id()] >> thread->priority) >> 1 != 0) {
    return;
  }
  const Cycles limit = std::min(quiet_until, TurnHorizon(cpu));
  const Cycles poll = machine_.cost().instruction;
  const Cycles start = cpu.clock();
  while (cpu.clock() < limit && thread->slice_remaining > 0 && !owner->over_quota[cpu.id()]) {
    cpu.Advance(poll);
    ChargeThread(thread, cpu, poll);
  }
  if (cpu.clock() != start) {
    poll_skips_++;
  }
}

// ---------------------------------------------------------------------------
// Forwarding (Figure 2)
// ---------------------------------------------------------------------------

void CacheKernel::ForwardFault(ThreadObject* thread, cksim::Cpu& cpu, const cksim::Fault& fault) {
  const cksim::CostModel& cost = machine_.cost();
  stats_.faults_forwarded++;
  Tenant(thread->kernel_slot).faults_forwarded++;
  // Every forwarded fault opens a causal span. Allocation is unconditional
  // (the counter is machine-local deterministic state), so enabling tracing
  // never changes the id sequence the differential suites compare.
  uint32_t fault_span = machine_.AllocSpanId();
  fault_trace_ = FaultTrace{};
  fault_trace_.trap_entry = cpu.clock();
  CK_TRACE(Ring(cpu), obs::EventType::kSpanBegin, cpu.clock(),
           static_cast<uint16_t>(fault.type), fault_span);
  CK_TRACE(Ring(cpu), obs::EventType::kFaultTrapEntry, cpu.clock(),
           static_cast<uint32_t>(fault.type), fault.address);

  // Step 1-2: the access error handler stores the faulting thread's state,
  // switches it to the application kernel's space and exception stack, and
  // starts it in the kernel's fault handler.
  cpu.Advance(cost.trap_entry + cost.context_save + cost.handler_dispatch);

  AddressSpaceObject* space = spaces_.SlotAt(thread->space_slot);
  KernelObject* owner = kernels_.SlotAt(thread->kernel_slot);

  FaultForward forward;
  ThreadId id = IdOfThread(thread);
  forward.thread = id;
  forward.thread_cookie = thread->cookie;
  forward.space_cookie = space->cookie;
  forward.fault = fault;
  if (fault.type == cksim::FaultType::kProtection) {
    uint32_t pte = LeafPte(space, fault.address, cpu);
    forward.copy_on_write = cksim::PteValid(pte) && (pte & cksim::kPteCopyOnWrite) != 0;
  }

  fault_trace_.handler_start = cpu.clock();
  CK_TRACE(Ring(cpu), obs::EventType::kFaultHandlerStart, cpu.clock(),
           static_cast<uint32_t>(fault.type), id.id.Packed());
  CkApi api(*this, IdOfKernel(owner), cpu);
  cpu.Advance(cost.app_handler_base);
  HandlerAction action = owner->handlers->HandleFault(forward, api);
  if (!EndForward(thread, id, action, nullptr, cpu)) {
    return;
  }
  if (action == HandlerAction::kTerminate) {
    // The owning kernel declined to handle the fault: a fatal fault. Let
    // the observability layer dump a flight record before state moves on.
    if (fatal_hook_) {
      fatal_hook_("fatal-fault");
    }
  } else if (action != HandlerAction::kBlock) {
    fault_trace_.resumed = cpu.clock();
    CK_TRACE(Ring(cpu), obs::EventType::kFaultResumed, cpu.clock(),
             static_cast<uint32_t>(fault.type), id.id.Packed());
    RecordFaultTrace(fault_trace_);
  }
}

void CacheKernel::ForwardTrap(ThreadObject* thread, cksim::Cpu& cpu, uint16_t number) {
  const cksim::CostModel& cost = machine_.cost();
  stats_.traps_forwarded++;
  CK_TRACE(Ring(cpu), obs::EventType::kTrapForward, cpu.clock(), number,
           threads_.IdOf(thread).Packed());

  // Same redirect mechanism as faults (section 2.3 trap forwarding).
  cpu.Advance(cost.trap_entry + cost.handler_dispatch);

  KernelObject* owner = kernels_.SlotAt(thread->kernel_slot);
  TrapForward forward;
  ThreadId id = IdOfThread(thread);
  forward.thread = id;
  forward.thread_cookie = thread->cookie;
  forward.number = number;
  for (int i = 0; i < 6; ++i) {
    forward.args[i] = thread->vm.regs[ckisa::kRegA0 + i];
  }

  CkApi api(*this, IdOfKernel(owner), cpu);
  cpu.Advance(cost.app_handler_base);
  TrapAction action = owner->handlers->HandleTrap(forward, api);
  EndForward(thread, id, action.action, action.has_return_value ? &action.return_value : nullptr,
             cpu);
}

bool CacheKernel::EndForward(ThreadObject* thread, ThreadId id, HandlerAction action,
                             const uint32_t* a0, cksim::Cpu& cpu) {
  const cksim::CostModel& cost = machine_.cost();
  if (GetThread(id) == nullptr) {
    if (CurrentOn(cpu) == thread) {
      cpu.current_thread = nullptr;
    }
    return false;
  }
  switch (action) {
    case HandlerAction::kResume:
    case HandlerAction::kResumed:
      // Exception processing complete: the thread re-executes the faulting
      // access, or returns from its trap.
      if (a0 != nullptr) {
        thread->vm.regs[ckisa::kRegA0] = *a0;
      }
      cpu.Advance(cost.trap_exit);
      if (thread->state == ThreadState::kBlocked) {
        Enqueue(thread, /*front=*/true);
      }
      break;
    case HandlerAction::kBlock:
      if (CurrentOn(cpu) == thread) {
        cpu.current_thread = nullptr;
      }
      if (thread->ready_node.linked()) {
        Dequeue(thread);
      }
      thread->state = ThreadState::kBlocked;
      cpu.Advance(cost.context_save);
      break;
    case HandlerAction::kTerminate:
      HaltThread(thread, cpu);
      break;
  }
  return true;
}

void CacheKernel::HaltThread(ThreadObject* thread, cksim::Cpu& cpu) {
  if (CurrentOn(cpu) == thread) {
    cpu.current_thread = nullptr;
  }
  if (thread->ready_node.linked()) {
    Dequeue(thread);
  }
  thread->state = ThreadState::kHalted;
  KernelObject* owner = kernels_.SlotAt(thread->kernel_slot);
  CkApi api(*this, IdOfKernel(owner), cpu);
  owner->handlers->OnThreadHalt(IdOfThread(thread), thread->cookie, api);
}

void CacheKernel::HandleCkTrap(ThreadObject* thread, cksim::Cpu& cpu, uint16_t number) {
  const cksim::CostModel& cost = machine_.cost();
  switch (number) {
    case kTrapSignalReturn:
      cpu.Advance(cost.signal_return);
      if (thread->in_signal) {
        thread->in_signal = false;
        thread->vm.pc = thread->saved_pc;
        // Drain the next queued signal, if any.
        MaybeEnterSignalHandler(thread, cpu);
      }
      break;

    case kTrapSignal: {
      // a0 = virtual address of the new message in the sender's space; a
      // page that is not a message page is ignored (the guest misused the
      // trap).
      cpu.Advance(cost.trap_entry + cost.call_gate);
      cksim::Fault fault;
      if (SendSignal(spaces_.SlotAt(thread->space_slot), thread->vm.regs[ckisa::kRegA0], cpu,
                     fault) == CkStatus::kNotFound) {
        // Sender's mapping is not loaded: deliver the mapping fault so the
        // application kernel loads all mappings for the message page
        // (multi-mapping consistency, section 4.2).
        thread->vm.pc -= 4;  // re-execute the trap after the fault resolves
        ForwardFault(thread, cpu, fault);
        return;
      }
      cpu.Advance(cost.trap_exit);
      break;
    }

    case kTrapAwaitSignal:
      cpu.Advance(cost.call_gate);
      if (thread->signal_count > 0) {
        if (thread->signal_handler != 0) {
          MaybeEnterSignalHandler(thread, cpu);
        } else {
          thread->vm.regs[ckisa::kRegA0] = thread->PopSignal();
        }
      } else {
        // Suspend, staying loaded, so the arrival resumes quickly
        // ("a thread can also remain loaded ... when it suspends itself by
        // waiting on a signal", section 2.3).
        thread->state = ThreadState::kBlocked;
        cpu.current_thread = nullptr;
        cpu.Advance(cost.context_save);
      }
      break;

    case kTrapYield:
      thread->slice_remaining = 0;
      break;

    default:
      // Unknown Cache Kernel trap: treat as an application trap so the owning
      // kernel can decide (it usually terminates the thread).
      ForwardTrap(thread, cpu, number);
      break;
  }
}

}  // namespace ck
