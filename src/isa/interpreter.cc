#include "src/isa/interpreter.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/isa/fastpath.h"
#include "src/sim/cpu.h"
#include "src/sim/pagetable.h"

namespace ckisa {
namespace {

// Guest memory is little-endian host memory: copying `width` bytes into a
// zeroed word is the zero-extending load, and out of a word the store of its
// low bytes.
static_assert(std::endian::native == std::endian::little);

// Outcome of a superblock-trace execution attempt at the current pc.
enum class TraceOutcome : uint8_t {
  kNone,      // no usable trace; single-step this instruction
  kAdvanced,  // executed >= 1 step; ctx.pc and the instruction count advanced
  kTerminal,  // run-terminating event (trap/fault/halt); result is filled
};

// Whether a store to a page with these PTE flags is a plain write: the bus
// then does no COW break, protection check or first-store modified-bit
// write-through, so a trace may serve it.
constexpr bool WriteReady(uint8_t flags) {
  return (flags & (cksim::kPteWritable | cksim::kPteModified | cksim::kPteCopyOnWrite)) ==
         (cksim::kPteWritable | cksim::kPteModified);
}

// What a bus without a fast_path() runs with: no traces, no profiler.
constexpr FastPath kNoFastPath{};

// Guest policy: every single step goes through the virtual GuestBus and
// charges the CPU clock immediately -- the reference interpreter, and all
// that runs with CacheKernelConfig::fastpath off. With a trace cache
// (fp.tcache) the run loop also enters superblock traces, which run their
// steps straight from host memory and accumulate the cycle charges in `acc`.
//
// Cycle-exactness rules (see docs/PERFORMANCE.md):
//  * A trace step performs exactly the simulated-state updates the bus
//    would: its TLB touches mirror the Lookup hit bookkeeping (LRU age, hit
//    counter), and the charges added to `acc` are the same tlb_hit /
//    mem_word / instruction costs the bus would have charged.
//  * `acc` is flushed before ANY virtual bus call, so every point that can
//    observe the CPU clock (signal delivery, trace stamping inside the MMU,
//    run termination) sees the fully charged clock.
//  * The trace's precondition checks commit no state: only when an access is
//    known to stay in the trace does it touch the TLB or the accumulator, so
//    a fallback replays through the bus exactly once.
struct GuestPolicy {
  GuestBus& bus;
  const FastPath& fp;
  cksim::Cycles acc = 0;

  void Flush() {
    if (acc != 0) {
      fp.cpu->Advance(acc);
      acc = 0;
    }
  }

  // Run-loop exit flush: also the profiler's sampling point. The clock is
  // fully charged after Flush(), so the sample timestamp compare is exact;
  // the whole addition is one branch on an already-cold edge.
  void FlushAt(uint32_t pc) {
    Flush();
    if (fp.sampler != nullptr) {
      fp.sampler->MaybeSample(fp.cpu->clock(), pc);
    }
  }

  bool FetchDecoded(uint32_t pc, Decoded& d, cksim::Fault& fault) {
    Flush();
    GuestBus::MemResult fetch = bus.Fetch(pc);
    if (!fetch.ok) {
      fault = fetch.fault;
      return false;
    }
    d = Decode(fetch.value);
    return true;
  }
  GuestBus::MemResult Load(uint32_t vaddr, uint32_t width) {
    Flush();
    return bus.Load(vaddr, width);
  }
  GuestBus::MemResult Store(uint32_t vaddr, uint32_t value, uint32_t width) {
    Flush();
    return bus.Store(vaddr, value, width);
  }
  void ChargeInstruction() {
    Flush();
    bus.ChargeInstruction();
  }
  void OnMessageWrite(uint32_t vaddr) {
    Flush();
    bus.OnMessageWrite(vaddr);
  }

  // The micro-TLB hint check of the trace's data translation: the live TLB
  // entry the (kind, vpage) hint names, or null when the hint is stale or the
  // frame is remote or out of range. Commits nothing.
  const cksim::TlbEntry* Hinted(cksim::Access kind, uint32_t vpage, uint16_t* tlb_index) {
    const MicroTlbEntry& hint = fp.mtlb->At(kind, vpage);
    if (hint.vpage != vpage || hint.asid != fp.asid) {
      return nullptr;
    }
    const cksim::TlbEntry& t = fp.tlb->EntryAt(hint.tlb_index);
    // Re-validate against the live TLB entry: flushes and LRU evictions make
    // this compare fail, which is how micro-TLB invalidation works.
    if (!t.valid || t.asid != fp.asid || t.vpage != vpage) {
      return nullptr;
    }
    if (t.pframe >= fp.frame_count || fp.remote_frame_bits[t.pframe] != 0) {
      return nullptr;  // consistency fault territory: let the bus handle it
    }
    *tlb_index = hint.tlb_index;
    return &t;
  }

  // ---- superblock trace execution ----
  //
  // Entry protocol: look up a trace at (asid, pc); validate every recorded
  // page against the live TLB (side-effect-free Probe) and its recorded
  // frame generation; rebuild on generation/frame mismatch (= the trace was
  // invalidated by a store or remap); run it. Counters accumulate in
  // fp.trace_stats and are folded into CkStats/tenant accounts at quantum end.
  TraceOutcome TryTrace(VmContext& ctx, uint32_t budget, uint32_t& n, RunResult& result) {
    if (fp.tcache == nullptr || (ctx.pc & 3u) != 0) {
      return TraceOutcome::kNone;
    }
    uint16_t fetch_idx[Trace::kMaxPages];
    Trace* t = fp.tcache->Lookup(fp.asid, ctx.pc);
    if (t != nullptr) {
      bool stale = false;
      bool cold = false;
      for (uint32_t p = 0; p < t->page_count; ++p) {
        int32_t idx = fp.tlb->Probe(fp.asid, t->pages[p].vpage);
        if (idx < 0) {
          cold = true;  // page no longer TLB-resident: not entryable, not stale
          break;
        }
        const cksim::TlbEntry& e = fp.tlb->EntryAt(static_cast<uint32_t>(idx));
        if (e.pframe != t->pages[p].pframe ||
            fp.mem->frame_generation(e.pframe) != t->pages[p].generation) {
          stale = true;  // self-modifying code or remap: decoded steps invalid
          break;
        }
        if (fp.remote_frame_bits[e.pframe] != 0) {
          cold = true;  // consistency-fault territory: leave it to the bus
          break;
        }
        fetch_idx[p] = static_cast<uint16_t>(idx);
      }
      if (cold) {
        ++fp.trace_stats->misses;
        return TraceOutcome::kNone;
      }
      if (stale) {
        ++fp.trace_stats->invalidations;
        t = nullptr;
      } else {
        ++fp.trace_stats->hits;
      }
    } else {
      ++fp.trace_stats->misses;
    }
    if (t == nullptr) {
      Trace& slot = fp.tcache->SlotFor(fp.asid, ctx.pc);
      if (BuildTrace(fp, fp.asid, ctx.pc, slot) == 0) {
        return TraceOutcome::kNone;
      }
      ++fp.trace_stats->builds;
      t = &slot;
      for (uint32_t p = 0; p < t->page_count; ++p) {
        int32_t idx = fp.tlb->Probe(fp.asid, t->pages[p].vpage);
        if (idx < 0) {
          return TraceOutcome::kNone;  // cannot happen: built from live TLB
        }
        fetch_idx[p] = static_cast<uint16_t>(idx);
      }
    }
    return ExecuteTrace(ctx, *t, fetch_idx, budget, n, result);
  }

  TraceOutcome ExecuteTrace(VmContext& ctx, const Trace& t, const uint16_t* fetch_idx,
                            uint32_t budget, uint32_t& n, RunResult& result) {
    const uint32_t limit = std::min<uint32_t>(t.step_count, budget - n);
    const uint64_t tick_base = fp.tlb->tick();
    const uint32_t step_cost =
        static_cast<uint32_t>(fp.cost_tlb_hit + fp.cost_mem_word + fp.cost_instruction);
    uint32_t* r = ctx.regs;
    r[0] = 0;  // the single-step loop clears r0 before every op; see below

    // Per-execution data-translation cache. Within a pure-fast trace run no
    // TLB entry can be inserted, evicted or flushed (those all require a bus
    // call, which exits the trace), so a translation validated once stays
    // valid for the rest of this execution.
    constexpr uint32_t kDc = 8;
    uint32_t dc_vpage[kDc];
    uint32_t dc_pbase[kDc];
    uint16_t dc_idx[kDc];
    uint8_t dc_flags[kDc];
    uint8_t dc_own[kDc];
    for (uint32_t i = 0; i < kDc; ++i) {
      dc_vpage[i] = 0xffffffffu;
    }

    // Commit the batched TLB bookkeeping for an execution prefix:
    // `lf_bound` selects the last-fetch table row (how many fetches
    // happened), `touches` the total tick/hit increments, `acc_add` the
    // batched cycle charges.
    //
    // A touch-by-touch run leaves each entry's lru at the tick of its LAST
    // touch. Data touches write their lru immediately in dtranslate (per
    // entry they arrive in ascending ordinal order, so last-write-wins gives
    // exactly that); here the fetch pages fold in with a max against any
    // later data touch of the same entry. Every pre-existing lru is
    // <= tick_base, so the max never resurrects stale recency.
    auto commit = [&](uint32_t lf_bound, uint64_t touches, uint64_t acc_add) {
      for (uint32_t p = 0; p < t.page_count; ++p) {
        uint8_t j = t.last_fetch[lf_bound][p];
        if (j != Trace::kNoFetch) {
          uint64_t v = tick_base + t.touch_prefix[j] + 1;
          const cksim::TlbEntry& e = fp.tlb->EntryAt(fetch_idx[p]);
          fp.tlb->SetLruAt(fetch_idx[p], e.lru > v ? e.lru : v);
        }
      }
      fp.tlb->CommitFastHits(touches);
      acc += acc_add;
    };
    // Step `s` completed fully on the fast path (data access, if any,
    // included); everything through s is committed.
    auto commit_through = [&](uint32_t s) {
      commit(s + 1, t.touch_prefix[s + 1], t.acc_prefix[s + 1]);
    };
    // Step `s` fetched and charged its instruction cost but its data access
    // is about to leave the fast path (fallback or fault): commit the fetch
    // half only. Must run before any bus call so the bus-side TLB touch gets
    // the next ordinal.
    auto commit_partial = [&](uint32_t s) {
      commit(s + 1, t.touch_prefix[s] + 1, t.acc_prefix[s] + step_cost);
    };

    // Translate a data access, deferring the TLB touch into the log. It is
    // served only where the bus would do nothing beyond hit, charge and
    // access: a live hint on a local frame, and for a store a write-ready
    // page. A miss here means the access must replay through the bus (after
    // which the trace exits, since the bus may move TLB state under our
    // fetch indices).
    auto dtranslate = [&](cksim::Access kind, uint32_t addr, uint32_t si, uint32_t* paddr,
                          uint8_t* flags, bool* own) -> bool {
      uint32_t vpage = addr >> cksim::kPageShift;
      uint32_t h = vpage & (kDc - 1);
      if (dc_vpage[h] != vpage) {
        uint16_t index;
        const cksim::TlbEntry* e = Hinted(kind, vpage, &index);
        if (e == nullptr) {
          return false;
        }
        bool own_page = false;
        for (uint32_t p = 0; p < t.page_count; ++p) {
          own_page = own_page || t.pages[p].pframe == e->pframe;
        }
        dc_vpage[h] = vpage;
        dc_pbase[h] = cksim::FrameBase(e->pframe);
        dc_idx[h] = index;
        dc_flags[h] = e->flags;
        dc_own[h] = own_page ? 1 : 0;
      }
      if (kind == cksim::Access::kWrite && !WriteReady(dc_flags[h])) {
        return false;  // first write / COW / read-only: PTE side effects due
      }
      *paddr = dc_pbase[h] | (addr & cksim::kPageOffsetMask);
      *flags = dc_flags[h];
      *own = dc_own[h] != 0;
      // Immediate lru write: per entry these arrive in ascending ordinal
      // order, so the final value is the last touch, as in a step-by-step
      // run. Fetch-page ordinals fold in at commit (see `commit` above).
      fp.tlb->SetLruAt(dc_idx[h], tick_base + t.touch_prefix[si] + 2);
      return true;
    };

    uint32_t si = 0;
    const TraceStep* sp = &t.steps[0];

    // How a step ends: on to the next step, out of the trace (committed,
    // ctx.pc set), or out of the run (result and ctx.pc set).
    enum class StepEnd : uint8_t { kNext, kLeave, kStop };

    // One body per execution class; kOp picks the table row's semantics.
    auto step = [&]<Op kOp>() __attribute__((always_inline)) -> StepEnd {
      constexpr OpClass kClass = kOps[static_cast<uint32_t>(kOp)].cls;
      const TraceStep& s = *sp;
      const Decoded& d = s.d;
      const uint32_t imm = static_cast<uint32_t>(d.imm);
      if constexpr (kClass == OpClass::kAlu) {
        r[d.rd] = Sem<kOp>(r[d.rs1], r[d.rs2], imm);
      } else if constexpr (kClass == OpClass::kJal) {
        r[d.rd] = s.vpc + 4;  // the next step is at the jump target
      } else if constexpr (kClass == OpClass::kBranch) {
        bool taken = Sem<kOp>(r[d.rd], r[d.rs1], imm) != 0;
        if (taken != ((s.flags & TraceStep::kPredictedTaken) != 0)) {
          // The build-time prediction failed: leave to the actual successor.
          // The branch itself completed, so the full step commits.
          commit_through(si);
          ctx.pc = taken ? s.vpc + 4 + imm * 4 : s.vpc + 4;
          return StepEnd::kLeave;
        }
      } else if constexpr (kClass == OpClass::kJalr) {
        uint32_t target = r[d.rs1] + imm;
        r[d.rd] = s.vpc + 4;
        commit_through(si);
        ctx.pc = target;
        return StepEnd::kLeave;
      } else if constexpr (kClass == OpClass::kTrap || kClass == OpClass::kHalt) {
        commit_through(si);
        ctx.pc = s.vpc + 4;  // resume after the instruction
        result.event = kClass == OpClass::kTrap ? RunEvent::kTrap : RunEvent::kHalt;
        result.trap_number = kClass == OpClass::kTrap ? static_cast<uint16_t>(imm) : 0;
        return StepEnd::kStop;
      } else if constexpr (kClass == OpClass::kLoad || kClass == OpClass::kStore) {
        constexpr bool kLoad = kClass == OpClass::kLoad;
        constexpr uint32_t kWidth = Sem<kOp>(0, 0, 0);
        constexpr cksim::Access kAccess = kLoad ? cksim::Access::kRead : cksim::Access::kWrite;
        const uint32_t addr = r[d.rs1] + imm;
        if (kWidth == 4 && (addr & 3u) != 0) {
          commit_partial(si);
          ctx.pc = s.vpc;
          result.event = RunEvent::kFault;
          result.fault = {cksim::FaultType::kBadAlignment, addr, kAccess};
          return StepEnd::kStop;
        }
        uint32_t paddr;
        uint8_t flags;
        bool own;
        if (dtranslate(kAccess, addr, si, &paddr, &flags, &own)) {
          uint8_t* host = fp.mem->raw() + paddr;
          if constexpr (kLoad) {
            uint32_t value = 0;
            std::memcpy(&value, host, kWidth);
            r[d.rd] = value;
            return StepEnd::kNext;
          } else {
            std::memcpy(host, &r[d.rd], kWidth);
            fp.mem->BumpFrameGeneration(paddr);
            const bool message = (flags & cksim::kPteMessage) != 0;
            if (!message && !own) {
              return StepEnd::kNext;
            }
            // A message write signals through the bus (which observes the
            // clock); a store into one of this trace's own frames may have
            // staled the remaining decoded steps. Either way, leave after it.
            commit_through(si);
            if (message) {
              OnMessageWrite(addr);
            }
            ctx.pc = s.next_vpc;
            return StepEnd::kLeave;
          }
        }
        // Off the fast path: commit the fetch half first, so the bus-side
        // TLB touch gets the next ordinal, then replay through the bus.
        commit_partial(si);
        GuestBus::MemResult m = kLoad ? Load(addr, kWidth) : Store(addr, r[d.rd], kWidth);
        if (!m.ok) {
          ctx.pc = s.vpc;
          result.event = RunEvent::kFault;
          result.fault = m.fault;
          return StepEnd::kStop;
        }
        if constexpr (kLoad) {
          r[d.rd] = m.value;
        } else if (m.message_write) {
          OnMessageWrite(addr);
        }
        ctx.pc = s.next_vpc;
        return StepEnd::kLeave;
      }
      return StepEnd::kNext;
    };

    // Threaded dispatch (computed goto): every handler ends with its own
    // indirect jump to the next step's handler, so each op->op edge in the
    // trace gets its own branch-prediction site. A central switch would make
    // one indirect branch carry the whole opcode sequence, which mispredicts
    // far more -- dispatch cost is most of a trace step.
#define CK_TARGET(mnemonic, op, format, cls, sem) &&h_##op,
#define CK_BAD8 &&h_bad, &&h_bad, &&h_bad, &&h_bad, &&h_bad, &&h_bad, &&h_bad, &&h_bad,
    static_assert(kOpCount == 32, "kOpTargets covers 32 rows and 32 undefined opcodes");
    static const void* const kOpTargets[64] = {
        CKVM_OPS(CK_TARGET) CK_BAD8 CK_BAD8 CK_BAD8 CK_BAD8};
#undef CK_BAD8
#undef CK_TARGET

#define CK_DISPATCH() goto* kOpTargets[static_cast<uint8_t>(sp->d.op)]
#define CK_NEXT()                                  \
  do {                                             \
    if ((sp->flags & TraceStep::kWritesR0) != 0) { \
      r[0] = 0;                                    \
    }                                              \
    if (++si >= limit) {                           \
      goto trace_end;                              \
    }                                              \
    ++sp;                                          \
    CK_DISPATCH();                                 \
  } while (0)
#define CK_HANDLER(mnemonic, op, format, cls, sem)       \
  h_##op : {                                             \
    StepEnd end = step.template operator()<Op::op>();    \
    if (end == StepEnd::kLeave) {                        \
      goto leave;                                        \
    }                                                    \
    if (end == StepEnd::kStop) {                         \
      goto stop;                                         \
    }                                                    \
    CK_NEXT();                                           \
  }

    CK_DISPATCH();
    CKVM_OPS(CK_HANDLER)

  h_bad:
    commit_through(si);
    ctx.pc = sp->vpc;
    result.event = RunEvent::kFault;
    result.fault = {cksim::FaultType::kBadInstruction, sp->vpc, cksim::Access::kExecute};
  stop:
    // Halt, trap or fault: the step is retired and its charges land first.
    result.instructions = n + si + 1;
    FlushAt(ctx.pc);
    return TraceOutcome::kTerminal;

  leave:
    r[0] = 0;  // the leaving step may have written r0
    n += si + 1;
    return TraceOutcome::kAdvanced;

  trace_end:
    // Ran to the end of the trace (or out of budget) fully on the fast path.
    commit(si, t.touch_prefix[si], t.acc_prefix[si]);
    n += si;
    ctx.pc = sp->next_vpc;
    return TraceOutcome::kAdvanced;
#undef CK_HANDLER
#undef CK_NEXT
#undef CK_DISPATCH
  }
};

// The interpreter core: instruction semantics and the fault/trap/halt
// protocol; the GuestPolicy decides how fetches, loads, stores and cycle
// charges are performed. Every exit runs GuestPolicy::FlushAt, so batched
// charges always land on the CPU clock before the caller (the dispatch loop)
// reads it. Policy programs run in their own engine (src/isa/sandbox.h).
RunResult RunLoop(VmContext& ctx, GuestPolicy& p, uint32_t budget) {
  RunResult result;
  uint32_t n = 0;
  // Superblock traces are dispatched only at basic-block heads (quantum
  // entry, or the target of a taken branch / jump / trace exit). Sequential
  // fall-through pcs never probe the trace cache: that keeps the single-step
  // path free of per-instruction lookup overhead and keeps trace-cache
  // contents (and so the hit/miss counters) deterministic.
  bool at_head = true;
  while (n < budget) {
    if (at_head) {
      TraceOutcome to = p.TryTrace(ctx, budget, n, result);
      if (to == TraceOutcome::kTerminal) {
        return result;
      }
      if (to == TraceOutcome::kAdvanced) {
        continue;  // every trace exit point is again a dispatch point
      }
      at_head = false;
    }
    Decoded d;
    if (!p.FetchDecoded(ctx.pc, d, result.fault)) {
      result.event = RunEvent::kFault;
      result.instructions = n;
      p.FlushAt(ctx.pc);
      return result;
    }
    p.ChargeInstruction();

    uint32_t* r = ctx.regs;
    r[0] = 0;
    uint32_t next_pc = ctx.pc + 4;

    // One body per execution class; kOp picks the table row's semantics.
    // False ends the run with the event (and ctx.pc) set.
    auto step = [&]<Op kOp>() __attribute__((always_inline)) -> bool {
      constexpr OpClass kClass = kOps[static_cast<uint32_t>(kOp)].cls;
      const uint32_t imm = static_cast<uint32_t>(d.imm);
      if constexpr (kClass == OpClass::kAlu) {
        r[d.rd] = Sem<kOp>(r[d.rs1], r[d.rs2], imm);
      } else if constexpr (kClass == OpClass::kBranch) {
        if (Sem<kOp>(r[d.rd], r[d.rs1], imm) != 0) {
          next_pc = ctx.pc + 4 + imm * 4;
        }
      } else if constexpr (kClass == OpClass::kJal || kClass == OpClass::kJalr) {
        uint32_t target = kClass == OpClass::kJal ? next_pc + imm * 4 : r[d.rs1] + imm;
        r[d.rd] = ctx.pc + 4;
        next_pc = target;
      } else if constexpr (kClass == OpClass::kTrap || kClass == OpClass::kHalt) {
        ctx.pc = next_pc;  // resume after the instruction
        result.event = kClass == OpClass::kTrap ? RunEvent::kTrap : RunEvent::kHalt;
        result.trap_number = kClass == OpClass::kTrap ? static_cast<uint16_t>(imm) : 0;
        return false;
      } else if constexpr (kClass == OpClass::kLoad || kClass == OpClass::kStore) {
        constexpr bool kLoad = kClass == OpClass::kLoad;
        constexpr uint32_t kWidth = Sem<kOp>(0, 0, 0);
        const uint32_t addr = r[d.rs1] + imm;
        if (kWidth == 4 && (addr & 3u) != 0) {
          result.event = RunEvent::kFault;
          result.fault = {cksim::FaultType::kBadAlignment, addr,
                          kLoad ? cksim::Access::kRead : cksim::Access::kWrite};
          return false;
        }
        GuestBus::MemResult m = kLoad ? p.Load(addr, kWidth) : p.Store(addr, r[d.rd], kWidth);
        if (!m.ok) {
          result.event = RunEvent::kFault;
          result.fault = m.fault;
          return false;
        }
        if constexpr (kLoad) {
          r[d.rd] = m.value;
        } else if (m.message_write) {
          p.OnMessageWrite(addr);
        }
      }
      return true;
    };

    switch (d.op) {
#define CK_CASE(mnemonic, op, format, cls, sem) \
  case Op::op:                                  \
    if (!step.template operator()<Op::op>()) {  \
      goto stop;                                \
    }                                           \
    break;
      CKVM_OPS(CK_CASE)
#undef CK_CASE
      default:
        result.event = RunEvent::kFault;
        result.fault = {cksim::FaultType::kBadInstruction, ctx.pc, cksim::Access::kExecute};
        goto stop;
    }

    r[0] = 0;
    at_head = next_pc != ctx.pc + 4;
    ctx.pc = next_pc;
    ++n;
  }

  result.event = RunEvent::kBudgetExhausted;
  result.instructions = budget;
  p.FlushAt(ctx.pc);
  return result;

stop:
  // Halt, trap or fault: the instruction is retired and its charges land.
  result.instructions = n + 1;
  p.FlushAt(ctx.pc);
  return result;
}

}  // namespace

RunResult Run(VmContext& ctx, GuestBus& bus, uint32_t budget) {
  const FastPath* fp = bus.fast_path();
  GuestPolicy p{bus, fp != nullptr ? *fp : kNoFastPath};
  return RunLoop(ctx, p, budget);
}

}  // namespace ckisa
