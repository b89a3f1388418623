// Per-CPU memory management unit.
//
// Translates virtual accesses through the TLB and, on a miss, performs the
// 68040-style hardware table walk over the three-level tables that the Cache
// Kernel maintains in physical memory. Sets referenced/modified bits in leaf
// PTEs (the state the Cache Kernel reports on mapping writeback, section
// 2.1), raises mapping/protection/consistency faults, and flags stores to
// message-mode pages so the machine can generate address-valued signals
// (ParaDiGM's signal-on-write assist, section 2.2 footnote).
//
// Translate makes exactly one TLB Lookup. It returns inline on a hit that
// updates no PTE -- any fetch or read, or a store to a writable, modified
// page that is not copy-on-write -- and hands every other outcome (the walk
// and fill, the protection faults, the first store's write-through of the
// modified bit) to one out-of-line function along with that Lookup's result.
// Both return exactly what one function doing all of it would.

#ifndef SRC_SIM_MMU_H_
#define SRC_SIM_MMU_H_

#include <cstdint>

#include "src/obs/trace.h"
#include "src/sim/cost.h"
#include "src/sim/pagetable.h"
#include "src/sim/physmem.h"
#include "src/sim/tlb.h"
#include "src/sim/types.h"

namespace cksim {

class Mmu {
 public:
  Mmu(PhysicalMemory& memory, const CostModel& cost) : memory_(memory), cost_(cost) {}

  struct TranslateResult {
    bool ok = false;
    PhysAddr paddr = 0;
    Fault fault;              // set when !ok
    bool message_write = false;  // store hit a message-mode page
    Cycles cycles = 0;           // cost of this translation
  };

  // Translate one access in the space whose root table is at root_paddr
  // (0 means "no address space loaded" -> mapping fault). asid tags TLB
  // entries and must correspond 1:1 with root_paddr.
  TranslateResult Translate(PhysAddr root_paddr, uint16_t asid, VirtAddr vaddr, Access access) {
    Tlb::LookupResult hit = tlb_.Lookup(asid, vaddr >> kPageShift);
    constexpr uint32_t kWriteReady = kPteWritable | kPteModified;
    if (hit.hit && (access != Access::kWrite ||
                    (hit.flags & (kWriteReady | kPteCopyOnWrite)) == kWriteReady)) {
      TranslateResult result;
      result.ok = true;
      result.paddr = FrameBase(hit.pframe) | (vaddr & kPageOffsetMask);
      result.message_write = access == Access::kWrite && (hit.flags & kPteMessage) != 0;
      result.cycles = cost_.tlb_hit;
      return result;
    }
    return TranslateSlow(root_paddr, asid, vaddr, access, hit);
  }

  Tlb& tlb() { return tlb_; }
  const Tlb& tlb() const { return tlb_; }

  // Tracing: misses that start a hardware table walk emit kTlbMiss stamped
  // off the owning CPU's clock. Wired by Cpu::AttachTrace.
  void AttachTrace(obs::TraceRing* ring, const Cycles* clock) {
    trace_ring_ = ring;
    trace_clock_ = clock;
  }

 private:
  // Every outcome but an inline hit, given the one Lookup's result.
  TranslateResult TranslateSlow(PhysAddr root_paddr, uint16_t asid, VirtAddr vaddr, Access access,
                                Tlb::LookupResult hit);

  PhysicalMemory& memory_;
  const CostModel& cost_;
  Tlb tlb_;
  obs::TraceRing* trace_ring_ = nullptr;
  const Cycles* trace_clock_ = nullptr;
};

}  // namespace cksim

#endif  // SRC_SIM_MMU_H_
