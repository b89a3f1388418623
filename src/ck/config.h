// Cache Kernel configuration.
//
// The defaults reproduce the prototype configuration reported in Table 1:
// 16 kernel descriptors, 64 address-space descriptors, 256 thread
// descriptors and 65536 MemMapEntry descriptors, with the descriptor arrays
// in (simulated) local RAM.

#ifndef SRC_CK_CONFIG_H_
#define SRC_CK_CONFIG_H_

#include <cstdint>

#include "src/sim/types.h"

namespace ck {

// Scheduling (section 4.3): fixed priorities with per-priority time slicing.
inline constexpr uint32_t kPriorityLevels = 32;     // 0 = lowest, 31 = highest
inline constexpr cksim::Cycles kTimeSlice = 25000;  // 1 ms at 25 MHz
inline constexpr uint32_t kDispatchBudget = 64;     // guest instructions per CPU turn

struct CacheKernelConfig {
  // Descriptor cache capacities (Table 1).
  uint32_t kernel_slots = 16;
  uint32_t space_slots = 64;
  uint32_t thread_slots = 256;
  uint32_t mapping_slots = 65536;

  // Scheduling.
  cksim::Cycles quota_window = 2500000; // 100 ms accounting window (section 4.3)
  bool enforce_quotas = true;

  // Messaging.
  bool reverse_tlb_enabled = true;  // ablation A1 disables the fast path
  bool signal_on_write = false;     // ParaDiGM hardware assist: every store to
                                    // a message page generates the signal; off
                                    // means senders signal explicitly

  // Guest-execution fast path (src/isa/fastpath.h): build superblock traces
  // and run them with batched cycle accounting; every other instruction
  // single-steps through the guest bus. Simulated results are identical
  // either way (tests/fastpath_test.cc enforces this); off is the slow
  // reference the differential tests compare against.
  bool fastpath = true;

  // Physical memory reserved for the Cache Kernel's page tables, carved from
  // the top of the machine's memory.
  uint32_t page_table_arena_bytes = 1u << 20;

  // Observability: completed FaultTraces retained in the last-N history ring
  // (the per-step histograms accumulate every fault regardless).
  uint32_t fault_history_depth = 64;

  // Guest policy VM: CKVM instructions one victim scan may spend across all
  // of its candidates (docs/POLICY_VM.md). Exhaustion aborts the scan and
  // falls back to clock with a kPolicyFallback trace event.
  uint32_t policy_step_budget = 4096;

  // Tiered physical memory (docs/TIERING.md). tier_dram_frames bounds how
  // many frames may be DRAM-resident at once; 0 (the default) disables
  // tiering entirely -- every frame stays untracked and behaves like DRAM,
  // which is the pre-tiering behavior bit for bit. The budget and the
  // pressure mode can also be set at runtime through CacheKernel::set_tiers.
  uint32_t tier_dram_frames = 0;
  // Under DRAM pressure: demote the cold victim to the slow tier (true, the
  // default -- keeps its mappings loaded at slow-tier access cost) or fully
  // evict it (false -- unload + write back every mapping, the pre-tiering
  // reclaim behavior, kept for the bench comparison).
  bool tier_demote = true;
  // Cadence of the hot-page promotion scan (harvests leaf-PTE referenced
  // bits over slow-tier frames at the head of a dispatch turn); 0 disables
  // promotion.
  cksim::Cycles tier_promote_period = 250000;  // 10 ms at 25 MHz
  // Slow-tier frames examined per promotion scan.
  uint32_t tier_scan_frames = 64;
};

}  // namespace ck

#endif  // SRC_CK_CONFIG_H_
