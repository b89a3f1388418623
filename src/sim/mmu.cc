#include "src/sim/mmu.h"

namespace cksim {
namespace {

Fault MakeFault(FaultType type, VirtAddr vaddr, Access access) {
  Fault f;
  f.type = type;
  f.address = vaddr;
  f.access = access;
  return f;
}

}  // namespace

Mmu::TranslateResult Mmu::TranslateSlow(PhysAddr root_paddr, uint16_t asid, VirtAddr vaddr,
                                        Access access, Tlb::LookupResult hit) {
  TranslateResult result;
  uint32_t vpage = vaddr >> kPageShift;
  uint32_t flags = 0;
  uint32_t pframe = 0;
  if (hit.hit) {
    result.cycles += cost_.tlb_hit;
    flags = hit.flags;
    pframe = hit.pframe;
  } else {
    CK_TRACE(trace_ring_, obs::EventType::kTlbMiss,
             trace_clock_ != nullptr ? *trace_clock_ : 0, asid, vaddr);
    // Hardware table walk. No root table means no space is active.
    if (root_paddr == 0) {
      result.fault = MakeFault(FaultType::kNoMapping, vaddr, access);
      return result;
    }
    result.cycles += cost_.table_walk_level;
    uint32_t l1 = memory_.ReadWord(root_paddr + L1Index(vaddr) * 4);
    if (!PteValid(l1)) {
      result.fault = MakeFault(FaultType::kNoMapping, vaddr, access);
      return result;
    }
    result.cycles += cost_.table_walk_level;
    uint32_t l2 = memory_.ReadWord(PteAddress(l1) + L2Index(vaddr) * 4);
    if (!PteValid(l2)) {
      result.fault = MakeFault(FaultType::kNoMapping, vaddr, access);
      return result;
    }
    result.cycles += cost_.table_walk_level;
    PhysAddr leaf_addr = PteAddress(l2) + L3Index(vaddr) * 4;
    uint32_t leaf = memory_.ReadWord(leaf_addr);
    if (!PteValid(leaf)) {
      result.fault = MakeFault(FaultType::kNoMapping, vaddr, access);
      return result;
    }
    // Hardware sets the referenced bit on the walk (and modified below).
    if ((leaf & kPteReferenced) == 0) {
      memory_.WriteWord(leaf_addr, leaf | kPteReferenced);
      leaf |= kPteReferenced;
      result.cycles += cost_.pte_write;
    }
    flags = leaf & kPteFlagsMask;
    pframe = PageFrame(PteAddress(leaf));
    tlb_.Insert(asid, vpage, pframe, static_cast<uint8_t>(flags));
    result.cycles += cost_.tlb_fill;
    // Tiered memory: a demand fill from a slow-tier frame pays the slow
    // medium's latency here, at TLB-fill time. The fast guest path never
    // fills the TLB (its micro-TLB only caches entries this walk installed),
    // so charging at fill time keeps fast and slow paths cycle-exact.
    if (memory_.tier_of(pframe) == MemTier::kSlow) {
      result.cycles += cost_.tier_slow_fill;
    }
  }

  if (access == Access::kWrite) {
    if ((flags & kPteCopyOnWrite) != 0) {
      // Copy-on-write pages are mapped read-only until the owning application
      // kernel resolves the fault (section 4.1).
      result.fault = MakeFault(FaultType::kProtection, vaddr, access);
      return result;
    }
    if ((flags & kPteWritable) == 0) {
      result.fault = MakeFault(FaultType::kProtection, vaddr, access);
      return result;
    }
    // The TLB caches the modified bit; the first write to a page during a
    // TLB residence writes the bit through to the leaf PTE (this is what the
    // 68040 does), so the Cache Kernel's writeback report of "modified" is
    // exact.
    if ((flags & kPteModified) == 0) {
      uint32_t l1 = memory_.ReadWord(root_paddr + L1Index(vaddr) * 4);
      PhysAddr leaf_addr = PteAddress(memory_.ReadWord(PteAddress(l1) + L2Index(vaddr) * 4)) +
                           L3Index(vaddr) * 4;
      uint32_t leaf = memory_.ReadWord(leaf_addr);
      if ((leaf & kPteModified) == 0) {
        memory_.WriteWord(leaf_addr, leaf | kPteModified);
        result.cycles += cost_.pte_write;
      }
      flags |= kPteModified;
      tlb_.Insert(asid, vpage, pframe, static_cast<uint8_t>(flags));
    }
    if ((flags & kPteMessage) != 0) {
      result.message_write = true;
    }
  }

  result.ok = true;
  result.paddr = FrameBase(pframe) | (vaddr & kPageOffsetMask);
  return result;
}

}  // namespace cksim
