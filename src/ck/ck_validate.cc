// Structural self-check used by the property tests: verifies that every
// cached object's dependency chain (Figure 6) is intact and that the three
// views of the mapping state -- page tables, physical memory map, TLBs -- can
// only disagree in the allowed direction (a TLB entry may be absent, never
// wrong; this is enforced by flush-before-remove, which the storm tests
// hammer).

#include <array>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/ck/cache_kernel.h"

namespace ck {

std::vector<std::string> CacheKernel::ValidateInvariants() {
  std::vector<std::string> violations;
  auto fail = [&](const std::string& message) { violations.push_back(message); };
  cksim::PhysicalMemory& mem = machine_.memory();

  // Locked objects each kernel holds, per type: its locked spaces, threads
  // and mappings, and the locked kernel objects it manages (the first
  // kernel's lock on itself excepted). Its lock budget must count exactly
  // these.
  std::vector<std::array<uint32_t, kObjectTypeCount>> locked_held(kernels_.capacity());
  auto hold = [&](uint32_t kernel_slot, ObjectType type) {
    if (kernel_slot < locked_held.size()) {
      locked_held[kernel_slot][static_cast<uint32_t>(type)]++;
    }
  };

  // --- physical memory map records ---
  std::vector<uint32_t> pv_count_per_space(spaces_.capacity(), 0);
  // Restore remaps frames; a bad translation map would surface here as a pv
  // record pointing outside local memory or as two records claiming the same
  // (space, vaddr) translation.
  const uint32_t local_frames = cksim::PageFrame(static_cast<cksim::PhysAddr>(mem.size()));
  std::set<std::pair<uint32_t, cksim::VirtAddr>> pv_seen;
  uint32_t signal_records = 0;
  for (uint32_t i = 0; i < pmap_.used_extent(); ++i) {
    const MemMapEntry& rec = pmap_.record(i);
    switch (rec.type()) {
      case RecordType::kFree:
        break;
      case RecordType::kPhysToVirt: {
        uint32_t slot = rec.pv_space_slot();
        if (slot >= spaces_.capacity() || !spaces_.IsAllocated(slot)) {
          fail("pv record " + std::to_string(i) + " names unallocated space slot " +
               std::to_string(slot));
          break;
        }
        if (rec.pv_frame() >= local_frames) {
          std::ostringstream os;
          os << "pv record " << i << " frame " << rec.pv_frame()
             << " outside local memory (bad restore frame remap?)";
          fail(os.str());
        }
        if (!pv_seen.insert({slot, rec.pv_vaddr()}).second) {
          std::ostringstream os;
          os << "duplicate pv record for space slot " << slot << " vaddr " << std::hex
             << rec.pv_vaddr();
          fail(os.str());
        }
        pv_count_per_space[slot]++;
        AddressSpaceObject* space = spaces_.SlotAt(slot);
        if (rec.pv_locked()) {
          hold(space->kernel_slot, ObjectType::kMapping);
        }
        // The leaf PTE must exist, be valid, and point at the record's frame.
        cksim::PhysAddr l1_slot = space->root_table + cksim::L1Index(rec.pv_vaddr()) * 4;
        uint32_t l1 = mem.ReadWord(l1_slot);
        if (!cksim::PteValid(l1)) {
          fail("pv record with no L1 entry");
          break;
        }
        uint32_t l2 = mem.ReadWord(cksim::PteAddress(l1) + cksim::L2Index(rec.pv_vaddr()) * 4);
        if (!cksim::PteValid(l2)) {
          fail("pv record with no L2 entry");
          break;
        }
        cksim::PhysAddr leaf_addr = cksim::PteAddress(l2) + cksim::L3Index(rec.pv_vaddr()) * 4;
        if (pmap_.leaf_pte(i) != leaf_addr) {
          fail("pv record remembers a leaf PTE its walk does not reach");
        }
        uint32_t leaf = mem.ReadWord(leaf_addr);
        if (!cksim::PteValid(leaf)) {
          fail("pv record with invalid leaf PTE");
          break;
        }
        if (cksim::PageFrame(cksim::PteAddress(leaf)) != rec.pv_frame()) {
          fail("pv record frame disagrees with PTE");
        }
        break;
      }
      case RecordType::kSignal: {
        ++signal_records;
        uint32_t pv = rec.key;
        if (pv >= pmap_.capacity() || pmap_.record(pv).type() != RecordType::kPhysToVirt) {
          fail("signal record keyed by non-pv record");
          break;
        }
        uint32_t slot = rec.signal_thread_slot();
        if (slot >= threads_.capacity() || !threads_.IsAllocated(slot)) {
          fail("signal record names unallocated thread (dangling Fig. 6 dependency)");
          break;
        }
        ThreadObject* t = threads_.SlotAt(slot);
        if ((threads_.IdOf(t).generation & 0xffffffu) != rec.signal_thread_gen24()) {
          fail("signal record names a stale thread generation");
        }
        break;
      }
      case RecordType::kCopyOnWrite: {
        uint32_t pv = rec.key;
        if (pv >= pmap_.capacity() || pmap_.record(pv).type() != RecordType::kPhysToVirt) {
          fail("cow record keyed by non-pv record");
        }
        break;
      }
    }
  }

  // --- address spaces ---
  for (uint32_t slot = 0; slot < spaces_.capacity(); ++slot) {
    if (!spaces_.IsAllocated(slot)) {
      continue;
    }
    AddressSpaceObject* space = spaces_.SlotAt(slot);
    if (space->locked) {
      hold(space->kernel_slot, ObjectType::kSpace);
    }
    if (space->root_table == 0) {
      fail("loaded space without a root page table");
    }
    if (space->kernel_slot >= kernels_.capacity() ||
        !kernels_.IsAllocated(space->kernel_slot)) {
      fail("space owned by unallocated kernel (Fig. 6 violation)");
    }
    if (space->mapping_count != pv_count_per_space[slot]) {
      std::ostringstream os;
      os << "space slot " << slot << " mapping_count=" << space->mapping_count
         << " but pmap holds " << pv_count_per_space[slot];
      fail(os.str());
    }
  }

  // --- threads ---
  std::vector<uint32_t> threads_per_kernel(kernels_.capacity(), 0);
  std::vector<uint32_t> spaces_per_kernel(kernels_.capacity(), 0);
  uint32_t total_chained_signals = 0;
  for (uint32_t slot = 0; slot < threads_.capacity(); ++slot) {
    if (!threads_.IsAllocated(slot)) {
      continue;
    }
    ThreadObject* t = threads_.SlotAt(slot);
    AddressSpaceObject* space = spaces_.Lookup(ckbase::PoolId{t->space_slot, t->space_gen});
    if (space == nullptr) {
      fail("loaded thread references an unloaded space (Fig. 6 violation)");
      continue;
    }
    threads_per_kernel[t->kernel_slot]++;
    if (t->locked) {
      hold(t->kernel_slot, ObjectType::kThread);
    }
    bool queued = t->ready_node.linked();
    if (t->state == ThreadState::kReady && !queued) {
      fail("ready thread not on a ready queue");
    }
    if (t->state != ThreadState::kReady && queued) {
      fail("non-ready thread sitting on a ready queue");
    }
    if (t->state == ThreadState::kRunning) {
      cksim::Cpu& cpu = machine_.cpu(t->cpu);
      if (CurrentOn(cpu) != t) {
        fail("running thread is not current on its processor");
      }
    }
    if (t->signal_count > ThreadObject::kSignalQueueDepth) {
      fail("signal queue count exceeds depth");
    }

    // The signal-registration chain must reach exactly signal_reg_count
    // records, each a kSignal record naming this (slot, generation). Every
    // signal record is reachable from some chain (the total cross-check
    // below), so O(registrations) teardown frees exactly the records the
    // arena scan used to find.
    uint32_t gen24 = threads_.IdOf(t).generation & 0xffffffu;
    uint32_t chain_len = 0;
    for (uint32_t cur = signal_reg_head_[slot];
         cur != kNilSignalChain && chain_len <= pmap_.capacity();
         cur = pmap_.record(cur).signal_next()) {
      const MemMapEntry& rec = pmap_.record(cur);
      if (cur >= pmap_.capacity() || rec.type() != RecordType::kSignal) {
        fail("signal chain entry is not a live signal record");
        break;
      }
      if (rec.signal_thread_slot() != slot || rec.signal_thread_gen24() != gen24) {
        fail("signal chain entry names a different thread");
        break;
      }
      ++chain_len;
    }
    if (chain_len > pmap_.capacity()) {
      fail("signal chain does not terminate (cycle)");
    } else if (chain_len != t->signal_reg_count) {
      fail("signal chain length disagrees with signal_reg_count");
    }
    total_chained_signals += chain_len;
  }
  if (total_chained_signals != signal_records) {
    fail("signal records not all reachable from a thread chain");
  }

  // --- kernels ---
  for (uint32_t slot = 0; slot < spaces_.capacity(); ++slot) {
    if (spaces_.IsAllocated(slot)) {
      spaces_per_kernel[spaces_.SlotAt(slot)->kernel_slot]++;
    }
  }
  for (uint32_t slot = 0; slot < kernels_.capacity(); ++slot) {
    KernelObject* k = kernels_.IsAllocated(slot) ? kernels_.SlotAt(slot) : nullptr;
    if (k != nullptr && k->locked && k->manager_slot != slot) {
      hold(k->manager_slot, ObjectType::kKernel);
    }
  }
  for (uint32_t slot = 0; slot < kernels_.capacity(); ++slot) {
    if (!kernels_.IsAllocated(slot)) {
      continue;
    }
    KernelObject* k = kernels_.SlotAt(slot);
    if (k->space_count != spaces_per_kernel[slot]) {
      fail("kernel space_count mismatch");
    }
    if (k->thread_count != threads_per_kernel[slot]) {
      fail("kernel thread_count mismatch");
    }
    for (uint32_t type = 0; type < kObjectTypeCount; ++type) {
      if (k->locked_count[type] > k->locked_limit[type]) {
        fail("locked count exceeds limit");
      }
      if (k->locked_count[type] != locked_held[slot][type]) {
        std::ostringstream os;
        os << "kernel slot " << slot << " locked_count[" << type
           << "]=" << static_cast<uint32_t>(k->locked_count[type]) << " but holds "
           << locked_held[slot][type] << " locked objects";
        fail(os.str());
      }
    }
  }

  // --- TLBs may only cache CURRENT translations ---
  // (Checked indirectly: flushes precede PTE clears, so a translated access
  // through any CPU must agree with the tables. Exhaustive TLB dumping is
  // not exposed by the hardware model, as on the real machine.)

  // --- ObjectCache accounting matches store occupancy ---
  // Every loaded descriptor carries a nonzero load stamp and every free slot
  // a zero one; drift would skew FIFO ages and the replacement bookkeeping.
  for (uint32_t slot = 0; slot < kernels_.capacity(); ++slot) {
    if (kernels_.IsAllocated(slot) != (kernels_.load_seq(slot) != 0)) {
      fail("kernel cache load stamp disagrees with pool occupancy");
    }
  }
  for (uint32_t slot = 0; slot < spaces_.capacity(); ++slot) {
    if (spaces_.IsAllocated(slot) != (spaces_.load_seq(slot) != 0)) {
      fail("space cache load stamp disagrees with pool occupancy");
    }
  }
  for (uint32_t slot = 0; slot < threads_.capacity(); ++slot) {
    if (threads_.IsAllocated(slot) != (threads_.load_seq(slot) != 0)) {
      fail("thread cache load stamp disagrees with pool occupancy");
    }
  }
  for (uint32_t i = 0; i < pmap_.used_extent(); ++i) {
    bool is_pv = pmap_.record(i).type() == RecordType::kPhysToVirt;
    if (is_pv != (pmap_.load_seq(i) != 0)) {
      fail("mapping cache load stamp disagrees with pv occupancy");
    }
  }

  // --- tiered physical memory (docs/TIERING.md) ---
  // A frame is in exactly one tier; scanning the per-frame bytes must agree
  // with PhysicalMemory's per-tier counts, the counts must partition the
  // frame pool, and the slow-frame index the promotion sweep walks must name
  // exactly the slow frames.
  {
    uint32_t page_count = mem.page_count();
    uint32_t scanned[cksim::kMemTierCount] = {0, 0, 0};
    uint32_t next_slow = mem.NextSlowFrame(0);
    for (uint32_t f = 0; f < page_count; ++f) {
      if ((mem.tier_of(f) == cksim::MemTier::kSlow) != (next_slow == f)) {
        fail("slow-frame index disagrees with the tier of frame " + std::to_string(f));
      }
      if (next_slow == f) {
        next_slow = mem.NextSlowFrame(f + 1);
      }
      uint8_t tier = static_cast<uint8_t>(mem.tier_of(f));
      if (tier >= cksim::kMemTierCount) {
        fail("frame " + std::to_string(f) + " has out-of-range tier value");
        continue;
      }
      scanned[tier]++;
    }
    const char* const kTierNames[cksim::kMemTierCount] = {"none", "dram", "slow"};
    uint32_t counted_total = 0;
    for (uint32_t t = 0; t < cksim::kMemTierCount; ++t) {
      uint32_t counted = mem.tier_count(static_cast<cksim::MemTier>(t));
      counted_total += counted;
      if (scanned[t] != counted) {
        std::ostringstream os;
        os << "tier " << kTierNames[t] << " count " << counted << " disagrees with scan "
           << scanned[t];
        fail(os.str());
      }
    }
    if (counted_total != page_count) {
      fail("per-tier counts do not partition the frame pool");
    }
  }

  return violations;
}

}  // namespace ck
