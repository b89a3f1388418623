// Simulated cycle cost model.
//
// Table 2 and section 5.3 of the paper report elapsed microseconds on a
// 25 MHz 68040. We cannot rerun that hardware, so every primitive the kernel
// and the simulated hardware execute charges cycles from this table, and the
// benchmarks report simulated microseconds (cycles / 25). The *shape* of the
// results -- which operations are cheap, what writeback adds, why a kernel
// unload is the worst case -- emerges from the number of primitives each code
// path actually executes, not from per-operation constants. The calibration
// of the primitives themselves (one table below) is documented in
// EXPERIMENTS.md.
//
// The values approximate a 25 MHz 68040 with local RAM: several-cycle memory
// touches, expensive trap entry/exit (the 68040 exception stack frame), and
// triple-digit-cycle context switches.

#ifndef SRC_SIM_COST_H_
#define SRC_SIM_COST_H_

#include <cstdint>

#include "src/sim/types.h"

namespace cksim {

struct CostModel {
  // --- raw hardware ---
  Cycles mem_word = 4;          // one 32-bit access to local RAM
  Cycles cache_line_fill = 20;  // second-level cache miss to memory
  Cycles tlb_hit = 1;           // address translation on a TLB hit
  Cycles tlb_fill = 12;         // insert a translation into the TLB
  Cycles table_walk_level = 18; // one level of hardware table walk (read PTE)
  Cycles tlb_flush_entry = 6;   // invalidate one TLB entry
  Cycles tlb_flush_asid = 40;   // invalidate all entries of one space
  Cycles ipi = 120;             // cross-processor interrupt, send side
  Cycles instruction = 2;       // average non-memory CKVM instruction

  // --- supervisor entry/exit ---
  Cycles trap_entry = 180;      // user -> supervisor: exception frame + vector
  Cycles trap_exit = 140;       // supervisor -> user: restore frame, rte
  Cycles call_gate = 90;        // argument copy + validation for one CK call

  // --- kernel primitives ---
  Cycles descriptor_init = 60;     // clear/fill one small descriptor
  Cycles hash_op = 35;             // one physical-memory-map hash probe/insert
  Cycles list_op = 12;             // queue/dequeue on an intrusive list
  Cycles pte_write = 10;           // write one page-table entry
  Cycles table_alloc = 80;         // allocate + zero one page-table block
  Cycles context_save = 260;       // save full register context of a thread
  Cycles context_restore = 240;    // load full register context
  Cycles handler_dispatch = 150;   // redirect thread into app-kernel handler
                                   // (switch space, stack, pc -- Fig. 2 step 2)
  Cycles writeback_record = 1200;  // deliver one object's state over the
                                   // writeback channel to its app kernel; the
                                   // channel is an RPC over memory-based
                                   // messaging (section 2.2), so this is of
                                   // the same order as a signal round trip
  Cycles signal_deliver_fast = 300;   // reverse-TLB hit, deliver to active thread
  Cycles signal_deliver_slow = 650;   // two-stage pmap lookup + reschedule
  Cycles signal_return = 250;         // return-from-signal-handler path
  Cycles quota_account = 25;          // per-dispatch consumption accounting

  // --- devices / interconnect ---
  Cycles wire_latency = 2500;        // fiber channel one-way (~100 us)
  Cycles idle_tick = 100;            // clock advance for an idle CPU turn

  // --- tiered physical memory (docs/TIERING.md) ---
  // The slow tier models CXL/NVM-like capacity memory: same address space,
  // several-times-DRAM access latency. The penalty surfaces where the
  // hardware would feel it: demand fills (TLB fill of a slow frame, bulk
  // page copies touching slow frames), not on every cached access -- once a
  // translation and the lines are resident, the access path is unchanged,
  // which keeps the fast guest path cycle-exact with the slow path.
  Cycles tier_slow_fill = 600;   // demand fill from the slow tier (~24 us)
  Cycles tier_demote = 400;      // retarget one frame DRAM -> slow (remap +
                                 // migration issue; data moves off-critical-path)
  Cycles tier_promote = 900;     // migrate one hot frame slow -> DRAM

  // Application-kernel (user mode) policy work, charged when an app kernel
  // handler runs on the faulting thread. These model user-mode instructions.
  Cycles app_handler_base = 200;   // entry/bookkeeping of a user-level handler
  Cycles app_policy_lookup = 150;  // one segment/page-record lookup

  // Convert to the paper's reporting unit.
  static double ToMicroseconds(Cycles c) {
    return static_cast<double>(c) / static_cast<double>(kCyclesPerMicrosecond);
  }
};

}  // namespace cksim

#endif  // SRC_SIM_COST_H_
