#include "src/isa/interpreter.h"

#include <algorithm>
#include <cstring>

#include "src/isa/fastpath.h"
#include "src/sim/cpu.h"
#include "src/sim/pagetable.h"

namespace ckisa {
namespace {

// Outcome of a superblock-trace execution attempt at the current pc.
enum class TraceOutcome : uint8_t {
  kNone,      // no usable trace; single-step this instruction
  kAdvanced,  // executed >= 1 step; ctx.pc and the instruction count advanced
  kTerminal,  // run-terminating event (trap/fault/halt); result is filled
};

cksim::Fault BadInstruction(uint32_t pc) {
  cksim::Fault f;
  f.type = cksim::FaultType::kBadInstruction;
  f.address = pc;
  f.access = cksim::Access::kExecute;
  return f;
}

cksim::Fault Misaligned(uint32_t addr, cksim::Access access) {
  cksim::Fault f;
  f.type = cksim::FaultType::kBadAlignment;
  f.address = addr;
  f.access = access;
  return f;
}

// Slow policy: every access goes through the virtual GuestBus and charges the
// CPU clock immediately. This is exactly the pre-fast-path interpreter and
// the reference behavior the differential tests compare against
// (--fastpath=off selects it).
struct SlowPolicy {
  GuestBus& bus;

  bool FetchDecoded(uint32_t pc, Decoded& d, GuestBus::MemResult& fail) {
    GuestBus::MemResult fetch = bus.Fetch(pc);
    if (!fetch.ok) {
      fail = fetch;
      return false;
    }
    d = Decode(fetch.value);
    return true;
  }
  GuestBus::MemResult Load32(uint32_t vaddr) { return bus.Load32(vaddr); }
  GuestBus::MemResult Load8(uint32_t vaddr) { return bus.Load8(vaddr); }
  GuestBus::MemResult Store32(uint32_t vaddr, uint32_t value) {
    return bus.Store32(vaddr, value);
  }
  GuestBus::MemResult Store8(uint32_t vaddr, uint8_t value) { return bus.Store8(vaddr, value); }
  void ChargeInstruction() { bus.ChargeInstruction(); }
  void OnMessageWrite(uint32_t vaddr) { bus.OnMessageWrite(vaddr); }
  void Flush() {}
  // The slow path charges cycles immediately, so run-loop exits have nothing
  // to flush and take no profiler samples either: keeping this a no-op keeps
  // the reference interpreter at exactly zero profiling overhead.
  void FlushAt(uint32_t /*pc*/) {}
  // Superblock traces are a fast-path-only acceleration.
  TraceOutcome TryTrace(VmContext& /*ctx*/, uint32_t /*budget*/, uint32_t& /*n*/,
                        RunResult& /*result*/) {
    return TraceOutcome::kNone;
  }
};

// Fast policy: accesses whose translation hits the micro-TLB (and whose
// target frame is local and needs no PTE side effects) are served straight
// from host memory, with their cycle charges accumulated in `acc` and flushed
// to Cpu::Advance in batches. Anything unusual falls back to the virtual bus.
//
// Cycle-exactness rules (see docs/PERFORMANCE.md):
//  * A fast hit performs exactly the simulated-state updates the slow path
//    would: Tlb::TouchFastHit mirrors the Lookup hit bookkeeping (LRU age,
//    hit counter), and the charges added to `acc` are the same tlb_hit /
//    mem_word / instruction costs the bus would have charged.
//  * `acc` is flushed before ANY virtual bus call, so every point that can
//    observe the CPU clock (signal delivery, trace stamping inside the MMU,
//    run termination) sees the fully charged clock.
//  * The precondition checks commit no state: only when an access is known
//    to stay on the fast path does it touch the TLB or the accumulator, so a
//    fallback replays through the bus exactly once.
struct FastPolicy {
  GuestBus& bus;
  FastPath& fp;
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

  // Translate `vaddr` for `kind` via the micro-TLB without falling back.
  // On success commits the TLB hit (LRU + counter), returns the physical
  // address and the live PTE flags. Fails -- with no simulated side effects --
  // whenever the slow path would do anything beyond "hit, charge, access":
  // TLB miss, fault, remote frame, first write / COW / read-only write.
  bool TryTranslate(cksim::Access kind, uint32_t vaddr, uint32_t* paddr, uint8_t* flags) {
    uint32_t vpage = vaddr >> cksim::kPageShift;
    const MicroTlbEntry& hint = fp.mtlb->At(kind, vpage);
    if (hint.vpage != vpage || hint.asid != fp.asid) {
      return false;
    }
    const cksim::TlbEntry& t = fp.tlb->EntryAt(hint.tlb_index);
    // Re-validate against the live TLB entry: flushes and LRU evictions make
    // this compare fail, which is how micro-TLB invalidation works.
    if (!t.valid || t.asid != fp.asid || t.vpage != vpage) {
      return false;
    }
    if (kind == cksim::Access::kWrite) {
      // The slow path write also checks COW, write protection and the
      // modified bit (with a PTE write-through on first store). Require the
      // exact flag state where it does none of that.
      constexpr uint8_t kWriteMask =
          cksim::kPteWritable | cksim::kPteModified | cksim::kPteCopyOnWrite;
      constexpr uint8_t kWriteReady = cksim::kPteWritable | cksim::kPteModified;
      if ((t.flags & kWriteMask) != kWriteReady) {
        return false;
      }
    }
    if (t.pframe >= fp.frame_count || fp.remote_frame_bits[t.pframe] != 0) {
      return false;  // consistency fault territory: let the bus handle it
    }
    // Committed: from here the access completes on the fast path.
    fp.tlb->TouchFastHit(hint.tlb_index);
    acc += fp.cost_tlb_hit;
    *paddr = cksim::FrameBase(t.pframe) | (vaddr & cksim::kPageOffsetMask);
    *flags = t.flags;
    return true;
  }

  bool FetchDecoded(uint32_t pc, Decoded& d, GuestBus::MemResult& fail) {
    uint32_t paddr;
    uint8_t flags;
    if ((pc & 3u) == 0 && TryTranslate(cksim::Access::kExecute, pc, &paddr, &flags)) {
      acc += fp.cost_mem_word;
      const DecodedPage* page = fp.exec_cache->Get(paddr >> cksim::kPageShift);
      d = page->insns[(paddr & cksim::kPageOffsetMask) >> 2];
      return true;
    }
    Flush();
    GuestBus::MemResult fetch = bus.Fetch(pc);
    if (!fetch.ok) {
      fail = fetch;
      return false;
    }
    d = Decode(fetch.value);
    return true;
  }

  GuestBus::MemResult Load32(uint32_t vaddr) {
    uint32_t paddr;
    uint8_t flags;
    // The interpreter already rejected misaligned word loads.
    if (TryTranslate(cksim::Access::kRead, vaddr, &paddr, &flags)) {
      acc += fp.cost_mem_word;
      GuestBus::MemResult m;
      m.ok = true;
      std::memcpy(&m.value, fp.mem->raw() + paddr, 4);
      return m;
    }
    Flush();
    return bus.Load32(vaddr);
  }

  GuestBus::MemResult Load8(uint32_t vaddr) {
    uint32_t paddr;
    uint8_t flags;
    if (TryTranslate(cksim::Access::kRead, vaddr, &paddr, &flags)) {
      acc += fp.cost_mem_word;
      GuestBus::MemResult m;
      m.ok = true;
      m.value = fp.mem->raw()[paddr];
      return m;
    }
    Flush();
    return bus.Load8(vaddr);
  }

  GuestBus::MemResult Store32(uint32_t vaddr, uint32_t value) {
    uint32_t paddr;
    uint8_t flags;
    if (TryTranslate(cksim::Access::kWrite, vaddr, &paddr, &flags)) {
      acc += fp.cost_mem_word;
      std::memcpy(fp.mem->raw() + paddr, &value, 4);
      fp.mem->BumpFrameGeneration(paddr);  // keep the decoded cache honest
      GuestBus::MemResult m;
      m.ok = true;
      m.message_write = (flags & cksim::kPteMessage) != 0;
      return m;
    }
    Flush();
    return bus.Store32(vaddr, value);
  }

  GuestBus::MemResult Store8(uint32_t vaddr, uint8_t value) {
    uint32_t paddr;
    uint8_t flags;
    if (TryTranslate(cksim::Access::kWrite, vaddr, &paddr, &flags)) {
      acc += fp.cost_mem_word;
      fp.mem->raw()[paddr] = value;
      fp.mem->BumpFrameGeneration(paddr);
      GuestBus::MemResult m;
      m.ok = true;
      m.message_write = (flags & cksim::kPteMessage) != 0;
      return m;
    }
    Flush();
    return bus.Store8(vaddr, value);
  }

  void ChargeInstruction() { acc += fp.cost_instruction; }

  void OnMessageWrite(uint32_t vaddr) {
    // Signal delivery stamps the CPU clock; it must see all batched charges.
    Flush();
    bus.OnMessageWrite(vaddr);
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

    // Translate a data access, deferring the TLB touch into the log. Serving
    // rules are the single-access TryTranslate preconditions; a miss here
    // means the access must replay through the bus (after which the trace
    // exits, since the bus may move TLB state under our fetch indices).
    auto dtranslate = [&](cksim::Access kind, uint32_t addr, uint32_t si, uint32_t* paddr,
                          uint8_t* flags, bool* own) -> bool {
      constexpr uint8_t kWriteMask =
          cksim::kPteWritable | cksim::kPteModified | cksim::kPteCopyOnWrite;
      constexpr uint8_t kWriteReady = cksim::kPteWritable | cksim::kPteModified;
      uint32_t vpage = addr >> cksim::kPageShift;
      uint32_t h = vpage & (kDc - 1);
      if (dc_vpage[h] != vpage) {
        const MicroTlbEntry& hint = fp.mtlb->At(kind, vpage);
        if (hint.vpage != vpage || hint.asid != fp.asid) {
          return false;
        }
        const cksim::TlbEntry& e = fp.tlb->EntryAt(hint.tlb_index);
        if (!e.valid || e.asid != fp.asid || e.vpage != vpage) {
          return false;
        }
        if (e.pframe >= fp.frame_count || fp.remote_frame_bits[e.pframe] != 0) {
          return false;
        }
        bool own_page = false;
        for (uint32_t p = 0; p < t.page_count; ++p) {
          own_page = own_page || t.pages[p].pframe == e.pframe;
        }
        dc_vpage[h] = vpage;
        dc_pbase[h] = cksim::FrameBase(e.pframe);
        dc_idx[h] = hint.tlb_index;
        dc_flags[h] = e.flags;
        dc_own[h] = own_page ? 1 : 0;
      }
      if (kind == cksim::Access::kWrite && (dc_flags[h] & kWriteMask) != kWriteReady) {
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

    // Threaded dispatch (computed goto): every handler ends with its own
    // indirect jump to the next step's handler, so each op->op edge in the
    // trace gets its own branch-prediction site. A central switch would make
    // one indirect branch carry the whole opcode sequence, which mispredicts
    // far more -- dispatch cost is most of a trace step.
    static const void* const kOpTargets[64] = {
        &&h_nop,  &&h_halt, &&h_add,  &&h_sub,  &&h_and,  &&h_or,   &&h_xor,  &&h_sll,
        &&h_srl,  &&h_sra,  &&h_mul,  &&h_slt,  &&h_sltu, &&h_addi, &&h_andi, &&h_ori,
        &&h_xori, &&h_lui,  &&h_slti, &&h_lw,   &&h_sw,   &&h_lb,   &&h_sb,   &&h_beq,
        &&h_bne,  &&h_blt,  &&h_bge,  &&h_jal,  &&h_jalr, &&h_trap, &&h_div,  &&h_rem,
        &&h_bad,  &&h_bad,  &&h_bad,  &&h_bad,  &&h_bad,  &&h_bad,  &&h_bad,  &&h_bad,
        &&h_bad,  &&h_bad,  &&h_bad,  &&h_bad,  &&h_bad,  &&h_bad,  &&h_bad,  &&h_bad,
        &&h_bad,  &&h_bad,  &&h_bad,  &&h_bad,  &&h_bad,  &&h_bad,  &&h_bad,  &&h_bad,
        &&h_bad,  &&h_bad,  &&h_bad,  &&h_bad,  &&h_bad,  &&h_bad,  &&h_bad,  &&h_bad};

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

    uint32_t si = 0;
    const TraceStep* sp = &t.steps[0];
    CK_DISPATCH();

  h_nop:
    CK_NEXT();
  h_halt:
    commit_through(si);
    ctx.pc = sp->vpc + 4;
    result.event = RunEvent::kHalt;
    result.instructions = n + si + 1;
    FlushAt(ctx.pc);
    return TraceOutcome::kTerminal;

  h_add: {
    const Decoded& d = sp->d;
    r[d.rd] = r[d.rs1] + r[d.rs2];
    CK_NEXT();
  }
  h_sub: {
    const Decoded& d = sp->d;
    r[d.rd] = r[d.rs1] - r[d.rs2];
    CK_NEXT();
  }
  h_and: {
    const Decoded& d = sp->d;
    r[d.rd] = r[d.rs1] & r[d.rs2];
    CK_NEXT();
  }
  h_or: {
    const Decoded& d = sp->d;
    r[d.rd] = r[d.rs1] | r[d.rs2];
    CK_NEXT();
  }
  h_xor: {
    const Decoded& d = sp->d;
    r[d.rd] = r[d.rs1] ^ r[d.rs2];
    CK_NEXT();
  }
  h_sll: {
    const Decoded& d = sp->d;
    r[d.rd] = r[d.rs1] << (r[d.rs2] & 31u);
    CK_NEXT();
  }
  h_srl: {
    const Decoded& d = sp->d;
    r[d.rd] = r[d.rs1] >> (r[d.rs2] & 31u);
    CK_NEXT();
  }
  h_sra: {
    const Decoded& d = sp->d;
    r[d.rd] = static_cast<uint32_t>(static_cast<int32_t>(r[d.rs1]) >> (r[d.rs2] & 31u));
    CK_NEXT();
  }
  h_mul: {
    const Decoded& d = sp->d;
    r[d.rd] = r[d.rs1] * r[d.rs2];
    CK_NEXT();
  }
  h_div: {
    const Decoded& d = sp->d;
    int32_t va = static_cast<int32_t>(r[d.rs1]);
    int32_t vb = static_cast<int32_t>(r[d.rs2]);
    r[d.rd] = (vb == 0) ? 0 : static_cast<uint32_t>(va / vb);
    CK_NEXT();
  }
  h_rem: {
    const Decoded& d = sp->d;
    int32_t va = static_cast<int32_t>(r[d.rs1]);
    int32_t vb = static_cast<int32_t>(r[d.rs2]);
    r[d.rd] = (vb == 0) ? 0 : static_cast<uint32_t>(va % vb);
    CK_NEXT();
  }
  h_slt: {
    const Decoded& d = sp->d;
    r[d.rd] = static_cast<int32_t>(r[d.rs1]) < static_cast<int32_t>(r[d.rs2]) ? 1 : 0;
    CK_NEXT();
  }
  h_sltu: {
    const Decoded& d = sp->d;
    r[d.rd] = r[d.rs1] < r[d.rs2] ? 1 : 0;
    CK_NEXT();
  }

  h_addi: {
    const Decoded& d = sp->d;
    r[d.rd] = r[d.rs1] + static_cast<uint32_t>(d.imm);
    CK_NEXT();
  }
  h_andi: {
    const Decoded& d = sp->d;
    r[d.rd] = r[d.rs1] & static_cast<uint32_t>(d.imm & 0xffff);
    CK_NEXT();
  }
  h_ori: {
    const Decoded& d = sp->d;
    r[d.rd] = r[d.rs1] | static_cast<uint32_t>(d.imm & 0xffff);
    CK_NEXT();
  }
  h_xori: {
    const Decoded& d = sp->d;
    r[d.rd] = r[d.rs1] ^ static_cast<uint32_t>(d.imm & 0xffff);
    CK_NEXT();
  }
  h_lui: {
    const Decoded& d = sp->d;
    r[d.rd] = static_cast<uint32_t>(d.imm & 0xffff) << 16;
    CK_NEXT();
  }
  h_slti: {
    const Decoded& d = sp->d;
    r[d.rd] = static_cast<int32_t>(r[d.rs1]) < d.imm ? 1 : 0;
    CK_NEXT();
  }

  h_lw: {
    const Decoded& d = sp->d;
    uint32_t addr = r[d.rs1] + static_cast<uint32_t>(d.imm);
    if ((addr & 3u) != 0) {
      commit_partial(si);
      ctx.pc = sp->vpc;
      result.event = RunEvent::kFault;
      result.fault = Misaligned(addr, cksim::Access::kRead);
      result.instructions = n + si + 1;
      FlushAt(ctx.pc);
      return TraceOutcome::kTerminal;
    }
    uint32_t paddr;
    uint8_t flags;
    bool own;
    if (dtranslate(cksim::Access::kRead, addr, si, &paddr, &flags, &own)) {
      std::memcpy(&r[d.rd], fp.mem->raw() + paddr, 4);
      CK_NEXT();
    }
    commit_partial(si);
    Flush();
    GuestBus::MemResult m = bus.Load32(addr);
    if (!m.ok) {
      ctx.pc = sp->vpc;
      result.event = RunEvent::kFault;
      result.fault = m.fault;
      result.instructions = n + si + 1;
      FlushAt(ctx.pc);
      return TraceOutcome::kTerminal;
    }
    r[d.rd] = m.value;
    if ((sp->flags & TraceStep::kWritesR0) != 0) {
      r[0] = 0;
    }
    n += si + 1;
    ctx.pc = sp->next_vpc;
    return TraceOutcome::kAdvanced;
  }
  h_lb: {
    const Decoded& d = sp->d;
    uint32_t addr = r[d.rs1] + static_cast<uint32_t>(d.imm);
    uint32_t paddr;
    uint8_t flags;
    bool own;
    if (dtranslate(cksim::Access::kRead, addr, si, &paddr, &flags, &own)) {
      r[d.rd] = fp.mem->raw()[paddr];
      CK_NEXT();
    }
    commit_partial(si);
    Flush();
    GuestBus::MemResult m = bus.Load8(addr);
    if (!m.ok) {
      ctx.pc = sp->vpc;
      result.event = RunEvent::kFault;
      result.fault = m.fault;
      result.instructions = n + si + 1;
      FlushAt(ctx.pc);
      return TraceOutcome::kTerminal;
    }
    r[d.rd] = m.value;
    if ((sp->flags & TraceStep::kWritesR0) != 0) {
      r[0] = 0;
    }
    n += si + 1;
    ctx.pc = sp->next_vpc;
    return TraceOutcome::kAdvanced;
  }
  h_sw: {
    const Decoded& d = sp->d;
    uint32_t addr = r[d.rs1] + static_cast<uint32_t>(d.imm);
    if ((addr & 3u) != 0) {
      commit_partial(si);
      ctx.pc = sp->vpc;
      result.event = RunEvent::kFault;
      result.fault = Misaligned(addr, cksim::Access::kWrite);
      result.instructions = n + si + 1;
      FlushAt(ctx.pc);
      return TraceOutcome::kTerminal;
    }
    uint32_t paddr;
    uint8_t flags;
    bool own;
    if (dtranslate(cksim::Access::kWrite, addr, si, &paddr, &flags, &own)) {
      std::memcpy(fp.mem->raw() + paddr, &r[d.rd], 4);
      fp.mem->BumpFrameGeneration(paddr);
      if ((flags & cksim::kPteMessage) != 0) {
        // Store completed fast; signal delivery goes through the bus
        // (which observes the clock), then the trace exits.
        commit_through(si);
        OnMessageWrite(addr);
        n += si + 1;
        ctx.pc = sp->next_vpc;
        return TraceOutcome::kAdvanced;
      }
      if (own) {
        // Wrote into one of this trace's own frames: the remaining
        // decoded steps may now be stale. Exit after the store.
        commit_through(si);
        n += si + 1;
        ctx.pc = sp->next_vpc;
        return TraceOutcome::kAdvanced;
      }
      CK_NEXT();
    }
    goto store_slow;
  }
  h_sb: {
    const Decoded& d = sp->d;
    uint32_t addr = r[d.rs1] + static_cast<uint32_t>(d.imm);
    uint32_t paddr;
    uint8_t flags;
    bool own;
    if (dtranslate(cksim::Access::kWrite, addr, si, &paddr, &flags, &own)) {
      fp.mem->raw()[paddr] = static_cast<uint8_t>(r[d.rd]);
      fp.mem->BumpFrameGeneration(paddr);
      if ((flags & cksim::kPteMessage) != 0) {
        commit_through(si);
        OnMessageWrite(addr);
        n += si + 1;
        ctx.pc = sp->next_vpc;
        return TraceOutcome::kAdvanced;
      }
      if (own) {
        commit_through(si);
        n += si + 1;
        ctx.pc = sp->next_vpc;
        return TraceOutcome::kAdvanced;
      }
      CK_NEXT();
    }
    goto store_slow;
  }
  store_slow: {
    const TraceStep& s = *sp;
    const Decoded& d = s.d;
    uint32_t addr = r[d.rs1] + static_cast<uint32_t>(d.imm);
    commit_partial(si);
    Flush();
    GuestBus::MemResult m = d.op == Op::kSw ? bus.Store32(addr, r[d.rd])
                                            : bus.Store8(addr, static_cast<uint8_t>(r[d.rd]));
    if (!m.ok) {
      ctx.pc = s.vpc;
      result.event = RunEvent::kFault;
      result.fault = m.fault;
      result.instructions = n + si + 1;
      FlushAt(ctx.pc);
      return TraceOutcome::kTerminal;
    }
    if (m.message_write) {
      OnMessageWrite(addr);
    }
    n += si + 1;
    ctx.pc = s.next_vpc;
    return TraceOutcome::kAdvanced;
  }

  h_beq: {
    const Decoded& d = sp->d;
    bool taken = r[d.rd] == r[d.rs1];
    if (taken != ((sp->flags & TraceStep::kPredictedTaken) != 0)) {
      goto branch_mispredict;
    }
    CK_NEXT();  // prediction held: the next step is the target
  }
  h_bne: {
    const Decoded& d = sp->d;
    bool taken = r[d.rd] != r[d.rs1];
    if (taken != ((sp->flags & TraceStep::kPredictedTaken) != 0)) {
      goto branch_mispredict;
    }
    CK_NEXT();
  }
  h_blt: {
    const Decoded& d = sp->d;
    bool taken = static_cast<int32_t>(r[d.rd]) < static_cast<int32_t>(r[d.rs1]);
    if (taken != ((sp->flags & TraceStep::kPredictedTaken) != 0)) {
      goto branch_mispredict;
    }
    CK_NEXT();
  }
  h_bge: {
    const Decoded& d = sp->d;
    bool taken = static_cast<int32_t>(r[d.rd]) >= static_cast<int32_t>(r[d.rs1]);
    if (taken != ((sp->flags & TraceStep::kPredictedTaken) != 0)) {
      goto branch_mispredict;
    }
    CK_NEXT();
  }
  branch_mispredict: {
    // The build-time prediction failed: exit to the actual successor. The
    // branch itself completed, so the full step commits.
    const TraceStep& s = *sp;
    bool predicted = (s.flags & TraceStep::kPredictedTaken) != 0;
    commit_through(si);
    n += si + 1;
    // taken != predicted here, so the actual direction is !predicted.
    ctx.pc = !predicted ? s.vpc + 4 + static_cast<uint32_t>(s.d.imm) * 4 : s.vpc + 4;
    return TraceOutcome::kAdvanced;
  }

  h_jal: {
    const Decoded& d = sp->d;
    r[d.rd] = sp->vpc + 4;
    CK_NEXT();  // next step is at the jump target
  }
  h_jalr: {
    const Decoded& d = sp->d;
    uint32_t target = r[d.rs1] + static_cast<uint32_t>(d.imm);
    r[d.rd] = sp->vpc + 4;
    if ((sp->flags & TraceStep::kWritesR0) != 0) {
      r[0] = 0;
    }
    commit_through(si);
    n += si + 1;
    ctx.pc = target;
    return TraceOutcome::kAdvanced;
  }

  h_trap:
    commit_through(si);
    ctx.pc = sp->vpc + 4;  // resume after the trap instruction
    result.event = RunEvent::kTrap;
    result.trap_number = static_cast<uint16_t>(sp->d.imm & 0xffff);
    result.instructions = n + si + 1;
    FlushAt(ctx.pc);
    return TraceOutcome::kTerminal;

  h_bad:
    commit_through(si);
    ctx.pc = sp->vpc;
    result.event = RunEvent::kFault;
    result.fault = BadInstruction(sp->vpc);
    result.instructions = n + si + 1;
    FlushAt(ctx.pc);
    return TraceOutcome::kTerminal;

  trace_end:
    // Ran to the end of the trace (or out of budget) fully on the fast path.
    commit(si, t.touch_prefix[si], t.acc_prefix[si]);
    n += si;
    ctx.pc = sp->next_vpc;
    return TraceOutcome::kAdvanced;
#undef CK_NEXT
#undef CK_DISPATCH
  }
};

// The interpreter core, shared by both policies. Instruction semantics and
// the fault/trap/halt protocol are policy-independent; the policy only decides
// how fetches, loads, stores and cycle charges are performed. Policy::Flush()
// runs before every return so batched charges always land on the CPU clock
// before the caller (the dispatch loop) reads it.
template <typename Policy>
RunResult RunLoop(VmContext& ctx, Policy& p, uint32_t budget) {
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
    GuestBus::MemResult fetch_fail;
    if (!p.FetchDecoded(ctx.pc, d, fetch_fail)) {
      result.event = RunEvent::kFault;
      result.fault = fetch_fail.fault;
      result.instructions = n;
      p.FlushAt(ctx.pc);
      return result;
    }
    p.ChargeInstruction();

    uint32_t* r = ctx.regs;
    r[0] = 0;
    uint32_t next_pc = ctx.pc + 4;

    switch (d.op) {
      case Op::kNop:
        break;
      case Op::kHalt:
        ctx.pc = next_pc;
        result.event = RunEvent::kHalt;
        result.instructions = n + 1;
        p.FlushAt(ctx.pc);
        return result;

      case Op::kAdd:
        r[d.rd] = r[d.rs1] + r[d.rs2];
        break;
      case Op::kSub:
        r[d.rd] = r[d.rs1] - r[d.rs2];
        break;
      case Op::kAnd:
        r[d.rd] = r[d.rs1] & r[d.rs2];
        break;
      case Op::kOr:
        r[d.rd] = r[d.rs1] | r[d.rs2];
        break;
      case Op::kXor:
        r[d.rd] = r[d.rs1] ^ r[d.rs2];
        break;
      case Op::kSll:
        r[d.rd] = r[d.rs1] << (r[d.rs2] & 31u);
        break;
      case Op::kSrl:
        r[d.rd] = r[d.rs1] >> (r[d.rs2] & 31u);
        break;
      case Op::kSra:
        r[d.rd] = static_cast<uint32_t>(static_cast<int32_t>(r[d.rs1]) >> (r[d.rs2] & 31u));
        break;
      case Op::kMul:
        r[d.rd] = r[d.rs1] * r[d.rs2];
        break;
      case Op::kDiv: {
        int32_t a = static_cast<int32_t>(r[d.rs1]);
        int32_t b = static_cast<int32_t>(r[d.rs2]);
        r[d.rd] = (b == 0) ? 0 : static_cast<uint32_t>(a / b);
        break;
      }
      case Op::kRem: {
        int32_t a = static_cast<int32_t>(r[d.rs1]);
        int32_t b = static_cast<int32_t>(r[d.rs2]);
        r[d.rd] = (b == 0) ? 0 : static_cast<uint32_t>(a % b);
        break;
      }
      case Op::kSlt:
        r[d.rd] = static_cast<int32_t>(r[d.rs1]) < static_cast<int32_t>(r[d.rs2]) ? 1 : 0;
        break;
      case Op::kSltu:
        r[d.rd] = r[d.rs1] < r[d.rs2] ? 1 : 0;
        break;

      case Op::kAddi:
        r[d.rd] = r[d.rs1] + static_cast<uint32_t>(d.imm);
        break;
      case Op::kAndi:
        r[d.rd] = r[d.rs1] & static_cast<uint32_t>(d.imm & 0xffff);
        break;
      case Op::kOri:
        r[d.rd] = r[d.rs1] | static_cast<uint32_t>(d.imm & 0xffff);
        break;
      case Op::kXori:
        r[d.rd] = r[d.rs1] ^ static_cast<uint32_t>(d.imm & 0xffff);
        break;
      case Op::kLui:
        r[d.rd] = static_cast<uint32_t>(d.imm & 0xffff) << 16;
        break;
      case Op::kSlti:
        r[d.rd] = static_cast<int32_t>(r[d.rs1]) < d.imm ? 1 : 0;
        break;

      case Op::kLw: {
        uint32_t addr = r[d.rs1] + static_cast<uint32_t>(d.imm);
        if ((addr & 3u) != 0) {
          result.event = RunEvent::kFault;
          result.fault = Misaligned(addr, cksim::Access::kRead);
          result.instructions = n + 1;
          p.FlushAt(ctx.pc);
          return result;
        }
        GuestBus::MemResult m = p.Load32(addr);
        if (!m.ok) {
          result.event = RunEvent::kFault;
          result.fault = m.fault;
          result.instructions = n + 1;
          p.FlushAt(ctx.pc);
          return result;
        }
        r[d.rd] = m.value;
        break;
      }
      case Op::kLb: {
        GuestBus::MemResult m = p.Load8(r[d.rs1] + static_cast<uint32_t>(d.imm));
        if (!m.ok) {
          result.event = RunEvent::kFault;
          result.fault = m.fault;
          result.instructions = n + 1;
          p.FlushAt(ctx.pc);
          return result;
        }
        r[d.rd] = m.value;
        break;
      }
      case Op::kSw: {
        uint32_t addr = r[d.rs1] + static_cast<uint32_t>(d.imm);
        if ((addr & 3u) != 0) {
          result.event = RunEvent::kFault;
          result.fault = Misaligned(addr, cksim::Access::kWrite);
          result.instructions = n + 1;
          p.FlushAt(ctx.pc);
          return result;
        }
        GuestBus::MemResult m = p.Store32(addr, r[d.rd]);
        if (!m.ok) {
          result.event = RunEvent::kFault;
          result.fault = m.fault;
          result.instructions = n + 1;
          p.FlushAt(ctx.pc);
          return result;
        }
        if (m.message_write) {
          p.OnMessageWrite(addr);
        }
        break;
      }
      case Op::kSb: {
        uint32_t addr = r[d.rs1] + static_cast<uint32_t>(d.imm);
        GuestBus::MemResult m = p.Store8(addr, static_cast<uint8_t>(r[d.rd]));
        if (!m.ok) {
          result.event = RunEvent::kFault;
          result.fault = m.fault;
          result.instructions = n + 1;
          p.FlushAt(ctx.pc);
          return result;
        }
        if (m.message_write) {
          p.OnMessageWrite(addr);
        }
        break;
      }

      case Op::kBeq:
        if (r[d.rd] == r[d.rs1]) {
          next_pc = ctx.pc + 4 + static_cast<uint32_t>(d.imm) * 4;
        }
        break;
      case Op::kBne:
        if (r[d.rd] != r[d.rs1]) {
          next_pc = ctx.pc + 4 + static_cast<uint32_t>(d.imm) * 4;
        }
        break;
      case Op::kBlt:
        if (static_cast<int32_t>(r[d.rd]) < static_cast<int32_t>(r[d.rs1])) {
          next_pc = ctx.pc + 4 + static_cast<uint32_t>(d.imm) * 4;
        }
        break;
      case Op::kBge:
        if (static_cast<int32_t>(r[d.rd]) >= static_cast<int32_t>(r[d.rs1])) {
          next_pc = ctx.pc + 4 + static_cast<uint32_t>(d.imm) * 4;
        }
        break;

      case Op::kJal:
        r[d.rd] = ctx.pc + 4;
        next_pc = ctx.pc + 4 + static_cast<uint32_t>(d.imm) * 4;
        break;
      case Op::kJalr: {
        uint32_t target = r[d.rs1] + static_cast<uint32_t>(d.imm);
        r[d.rd] = ctx.pc + 4;
        next_pc = target;
        break;
      }

      case Op::kTrap:
        ctx.pc = next_pc;  // resume after the trap instruction
        result.event = RunEvent::kTrap;
        result.trap_number = static_cast<uint16_t>(d.imm & 0xffff);
        result.instructions = n + 1;
        p.FlushAt(ctx.pc);
        return result;

      default:
        result.event = RunEvent::kFault;
        result.fault = BadInstruction(ctx.pc);
        result.instructions = n + 1;
        p.FlushAt(ctx.pc);
        return result;
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
}

}  // namespace

RunResult Run(VmContext& ctx, GuestBus& bus, uint32_t budget) {
  FastPath* fp = bus.fast_path();
  if (fp != nullptr) {
    FastPolicy p{bus, *fp};
    return RunLoop(ctx, p, budget);
  }
  SlowPolicy p{bus};
  return RunLoop(ctx, p, budget);
}

}  // namespace ckisa
