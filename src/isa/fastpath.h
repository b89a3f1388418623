// Host-side guest-execution fast path: superblock traces, and the micro-TLB
// hints their data translation reads.
//
// These structures make the simulator execute guest instructions several
// times faster on the host WITHOUT changing a single simulated cycle count
// (the cycle-exactness invariant; see docs/PERFORMANCE.md). They are pure
// host-side acceleration: nothing here charges or observes simulated time.
// Instructions outside a trace single-step through the GuestBus, exactly as
// the slow reference does.
//
// The micro-TLB is a small direct-mapped hint cache over the simulated
// hardware TLB, one entry array per data access kind (read/write). An entry
// names a resident cksim::TlbEntry by index; the trace executor re-validates
// that entry on every use (valid + asid + vpage compare), so the existing TLB
// invalidation surface -- FlushPage/FlushAsid/FlushFrame/FlushAll and LRU
// eviction by Insert -- invalidates micro-TLB state implicitly and strictly.
// A hit is an index, a compare and an array read: no virtual dispatch, no set
// scan, no hash probe.

#ifndef SRC_ISA_FASTPATH_H_
#define SRC_ISA_FASTPATH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/isa/isa.h"
#include "src/sim/physmem.h"
#include "src/sim/tlb.h"
#include "src/sim/types.h"

namespace cksim {
class Cpu;
}

namespace ckisa {

// One micro-TLB hint: (asid, vpage) resolved to a hardware-TLB entry index.
// The payload (frame, flags) is always read from the named TlbEntry after
// re-validation, never cached here, so a stale hint is harmless -- it either
// re-validates against live state or misses.
struct MicroTlbEntry {
  static constexpr uint32_t kInvalidVpage = 0xffffffffu;

  uint32_t vpage = kInvalidVpage;
  uint16_t asid = 0;
  uint16_t tlb_index = 0;
};

// Per-CPU. Direct-mapped by virtual page, one array per data access kind
// (kRead or kWrite), so the hot lookup is a single indexed load and two
// compares. Code pages need no hints: trace entry checks them with Tlb::Probe.
class MicroTlb {
 public:
  static constexpr uint32_t kEntriesPerKind = 64;

  MicroTlbEntry& At(cksim::Access kind, uint32_t vpage) {
    return entries_[static_cast<uint32_t>(kind)][vpage & (kEntriesPerKind - 1)];
  }

  // Record a hint after a successful bus load or store. tlb_index < 0
  // (entry not resident, e.g. raced out) leaves the hint untouched.
  void Fill(cksim::Access kind, uint16_t asid, uint32_t vpage, int32_t tlb_index) {
    if (tlb_index < 0) {
      return;
    }
    MicroTlbEntry& e = At(kind, vpage);
    e.vpage = vpage;
    e.asid = asid;
    e.tlb_index = static_cast<uint16_t>(tlb_index);
  }

 private:
  MicroTlbEntry entries_[2][kEntriesPerKind];  // indexed by cksim::Access
};

// ---------------------------------------------------------------------------
// Superblock trace cache.
//
// A trace is a superblock: a straight-line sequence of decoded instructions
// chained across basic-block boundaries following a build-time predicted path
// (backward conditional branches predicted taken, forward predicted
// not-taken, direct jumps followed). Loops unroll naturally into the trace
// body up to kMaxSteps. Execution replays the steps with ZERO per-step
// decode, micro-TLB probing or dispatch-table lookup; any deviation from the
// predicted pure-fast path (guard mismatch, bus fallback, store into one of
// the trace's own frames, message write) exits the trace after completing the
// current step exactly as the single-step interpreter would have.
//
// Validity is keyed on ALL touched physical frames: per fetched page the
// trace records (vpage, pframe, frame_generation); entry revalidates each
// against the live TLB (side-effect-free Tlb::Probe) and
// PhysicalMemory::frame_generation, so self-modifying code, page remaps and
// frame reuse invalidate the decoded steps.
//
// Cycle-exactness: per-step cycle charges and TLB touch ordinals are
// precomputed as prefix sums at build time and committed wholesale at trace
// exit (or before any bus call), reproducing the exact accumulator and
// Tlb lru/tick/hit state a step-by-step run would leave. See
// docs/PERFORMANCE.md ("Superblock traces").

struct TraceStep {
  Decoded d;
  uint32_t vpc = 0;       // virtual pc of this step
  uint32_t next_vpc = 0;  // build-time successor on the predicted path
  uint8_t page_slot = 0;  // index into Trace::pages for the fetch
  // Build-time classification flags.
  static constexpr uint8_t kPredictedTaken = 1;  // branch: trace continues at target
  static constexpr uint8_t kWritesR0 = 2;        // needs the post-op r0 clear
  uint8_t flags = 0;
};

struct TracePage {
  uint32_t vpage = 0;
  uint32_t pframe = 0;
  uint64_t generation = 0;
};

struct Trace {
  static constexpr uint32_t kMaxSteps = 64;
  static constexpr uint32_t kMaxPages = 4;
  static constexpr uint8_t kNoFetch = 0xff;

  uint32_t head_vpc = 0;
  uint16_t asid = 0;
  uint16_t step_count = 0;  // 0 = invalid slot
  uint16_t page_count = 0;
  TraceStep steps[kMaxSteps];
  TracePage pages[kMaxPages];
  // Prefix sums over fully-fast steps 0..i-1: batched cycle charges and TLB
  // touch counts (one fetch touch per step, plus one data touch per memory
  // step). The fetch touch of step i has ordinal touch_prefix[i] + 1, its
  // data touch (if any) ordinal touch_prefix[i] + 2.
  uint32_t acc_prefix[kMaxSteps + 1];
  uint32_t touch_prefix[kMaxSteps + 1];
  // last_fetch[i][p]: last step index < i that fetched from page slot p, or
  // kNoFetch. Lets the exit commit reconstruct each page's final lru value.
  uint8_t last_fetch[kMaxSteps + 1][kMaxPages];
};

// Per-CPU direct-mapped cache of built traces, keyed (asid, head pc).
// Contents are a deterministic function of the owning CPU's own execution
// history, so hit/miss/build counts are reproducible simulated statistics.
class TraceCache {
 public:
  static constexpr uint32_t kSlots = 2048;

  Trace* Lookup(uint16_t asid, uint32_t vpc) {
    Trace* t = slots_[SlotIndex(asid, vpc)].get();
    if (t == nullptr || t->step_count == 0 || t->head_vpc != vpc || t->asid != asid) {
      return nullptr;
    }
    return t;
  }

  // The (allocated) slot a trace for (asid, vpc) would occupy; collisions
  // overwrite deterministically.
  Trace& SlotFor(uint16_t asid, uint32_t vpc) {
    std::unique_ptr<Trace>& slot = slots_[SlotIndex(asid, vpc)];
    if (slot == nullptr) {
      slot = std::make_unique<Trace>();
    }
    return *slot;
  }

 private:
  static uint32_t SlotIndex(uint16_t asid, uint32_t vpc) {
    return ((vpc >> 2) ^ (vpc >> 13) ^ asid) & (kSlots - 1);
  }

  std::vector<std::unique_ptr<Trace>> slots_{kSlots};
};

// Trace-cache statistics of one dispatch quantum, folded into CkStats and
// the owning tenant's CostAccount when the quantum ends.
struct TraceStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t invalidations = 0;
  uint64_t builds = 0;
};

struct FastPath;

// Build a superblock starting at (asid, head_vpc) into `t`, following the
// predicted path through TLB-resident, local, non-remote pages. Returns the
// number of steps built (0 = nothing buildable: first page not resident).
// Side-effect-free on simulated state: it validates each page with Tlb::Probe
// and decodes the words it reads from the page's frame.
uint32_t BuildTrace(const FastPath& fp, uint16_t asid, uint32_t head_vpc, Trace& t);

// Periodic guest-PC sampler for the profiler. Samples are taken only at the
// interpreter's run-loop exit points -- the places the run loop flushes its
// batched cycle accumulator anyway -- so arming it costs one compare on that
// already-cold edge and nothing per instruction. Both modes exit the run
// loop at the same (clock, pc) pairs, so they sample the same histogram. The
// sampler never touches simulated state: it reads the (fully flushed) CPU
// clock and latches a PC for the kernel to harvest after ckisa::Run returns.
struct PcSampler {
  cksim::Cycles next_due = ~cksim::Cycles{0};
  cksim::Cycles period = 0;
  uint32_t last_pc = 0;
  bool pending = false;

  // (Re)arm with sampling period `p` starting from `now`; 0 disarms.
  void Arm(cksim::Cycles now, cksim::Cycles p) {
    period = p;
    next_due = (p == 0) ? ~cksim::Cycles{0} : now + p;
  }

  void MaybeSample(cksim::Cycles now, uint32_t pc) {
    if (now >= next_due) {
      last_pc = pc;
      pending = true;
      next_due = now + period;
    }
  }
};

// Everything the interpreter needs to build and run traces and to sample the
// profiler. A GuestBus returns it from fast_path(); a trace runs its steps
// without the virtual interface and leaves to the bus for anything unusual
// (TLB miss, fault, remote frame, message write, first write to a page,
// misalignment).
struct FastPath {
  MicroTlb* mtlb = nullptr;
  cksim::Tlb* tlb = nullptr;
  cksim::PhysicalMemory* mem = nullptr;
  // Per-frame remote/failed byte (CacheKernel::remote_frames_), checked
  // live on every trace entry and data access, so MarkFrameRemote needs no
  // invalidation hook.
  const uint8_t* remote_frame_bits = nullptr;
  uint32_t frame_count = 0;
  cksim::Cpu* cpu = nullptr;  // flush target for batched cycle charges
  // Optional profiler hook, consulted at run-loop exit points only.
  PcSampler* sampler = nullptr;
  // Superblock trace execution (null = disabled): the owning CPU's trace
  // cache and the quantum's trace counters. Always both set or both null.
  TraceCache* tcache = nullptr;
  TraceStats* trace_stats = nullptr;
  uint16_t asid = 0;
  // Cycle charges of a trace step, accumulated locally and flushed to
  // Cpu::Advance before any bus call (see interpreter.cc).
  cksim::Cycles cost_tlb_hit = 0;
  cksim::Cycles cost_mem_word = 0;
  cksim::Cycles cost_instruction = 0;
};

}  // namespace ckisa

#endif  // SRC_ISA_FASTPATH_H_
