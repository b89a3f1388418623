// The Cache Kernel: supervisor-mode cache of kernels, address spaces,
// threads and page mappings (the paper's core contribution).
//
// The primary interface is load/unload of the four object types plus the
// forwarding of faults, traps and signals; policy lives entirely in the
// application kernels above. The Cache Kernel:
//   * keeps descriptors in fixed pools and reclaims by dependency-ordered
//     writeback (Figure 6) when a load finds no free descriptor;
//   * maintains real 68040-format page tables in simulated physical memory
//     and the 16-byte-record physical memory map of section 4.1;
//   * schedules loaded threads with fixed priorities, per-priority time
//     slicing and per-kernel processor quotas (section 4.3);
//   * implements memory-based messaging with a per-CPU reverse-TLB fast path
//     and multi-mapping consistency (sections 2.2 and 4.2);
//   * enforces the resource grants recorded in kernel objects: page-group
//     access arrays, processor percentages, priority caps, lock limits.
//
// It attaches to a cksim::Machine as both the MachineClient (the dispatch
// loop) and the SignalSink (device signal delivery).

#ifndef SRC_CK_CACHE_KERNEL_H_
#define SRC_CK_CACHE_KERNEL_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/fixed_pool.h"
#include "src/base/histogram.h"
#include "src/base/status.h"
#include "src/obs/trace.h"
#include "src/ck/appkernel_iface.h"
#include "src/ck/config.h"
#include "src/ck/ids.h"
#include "src/ck/object_cache.h"
#include "src/ck/objects.h"
#include "src/ck/physmap.h"
#include "src/ck/table_arena.h"
#include "src/isa/fastpath.h"
#include "src/isa/interpreter.h"
#include "src/sim/devices.h"
#include "src/sim/machine.h"

namespace obs {
class Registry;
}

namespace ck {

using ckbase::CkStatus;
using ckbase::Result;

// Counters exposed to tests and benches.
//
// The unload counters partition: every loaded object is unloaded exactly
// once, as an owner-requested explicit unload OR as an involuntary writeback
// (a capacity-forced victim or a Figure 6 cascade dependent), so
//   loads[t] == explicit_unloads[t] + writebacks[t] + loaded_count(t)
// holds per type at any quiescent point (tests/property_test.cc asserts it
// after randomized storms). Reclamations count the top-level victims within
// writebacks (cascade dependents are writebacks but not reclamations).
struct CkStats {
  uint64_t loads[kObjectTypeCount] = {0};
  uint64_t writebacks[kObjectTypeCount] = {0};       // reclamation + cascade
  uint64_t explicit_unloads[kObjectTypeCount] = {0}; // owner-requested
  uint64_t reclamations[kObjectTypeCount] = {0};     // capacity-forced victims
  uint64_t reclaim_scan_steps[kObjectTypeCount] = {0};  // candidates examined
  uint64_t load_failures = 0;
  uint64_t faults_forwarded = 0;
  uint64_t traps_forwarded = 0;
  uint64_t signals_delivered_fast = 0;  // reverse-TLB hit to active thread
  uint64_t signals_delivered_slow = 0;  // two-stage pmap lookup
  uint64_t signals_queued = 0;
  uint64_t signals_dropped = 0;
  uint64_t consistency_faults = 0;
  uint64_t guest_instructions = 0;  // guest instructions retired (all CPUs)
  uint64_t context_switches = 0;
  uint64_t preemptions = 0;
  uint64_t idle_turns = 0;
  uint64_t quota_degradations = 0;
  uint64_t stale_id_errors = 0;
  // Superblock trace cache (src/isa/fastpath.h), summed over all CPUs.
  // Appended at the end: the flight recorder frames CkStats as a counted
  // u64 array, which tolerates growth only at the tail.
  uint64_t exec_trace_hits = 0;
  uint64_t exec_trace_misses = 0;
  uint64_t exec_trace_invalidations = 0;
  uint64_t exec_trace_builds = 0;
  // Tiered physical memory (docs/TIERING.md). Every tier transition goes
  // through one mutation point, so two flow-conservation identities hold at
  // any point (tests/property_test.cc asserts them after tiering storms):
  //   tier_admissions + tier_promotions ==
  //       tier_demotions + tier_evictions + tier_release_dram + dram_count
  //   tier_demotions == tier_promotions + tier_release_slow + slow_count
  uint64_t tier_admissions = 0;    // untracked -> DRAM
  uint64_t tier_demotions = 0;     // DRAM -> slow
  uint64_t tier_promotions = 0;    // slow -> DRAM (hot-page promotion)
  uint64_t tier_evictions = 0;     // DRAM -> untracked via full evict mode
  uint64_t tier_release_dram = 0;  // DRAM -> untracked via frame-pool release
  uint64_t tier_release_slow = 0;  // slow -> untracked via frame-pool release
  uint64_t tier_scan_steps = 0;    // frames examined by demotion + promotion scans
  // Replacement-policy engine (docs/POLICY_VM.md): sandboxed guest policy
  // runs. Tail-appended like the groups above.
  uint64_t policy_vm_runs = 0;    // sandboxed policy-program executions
  uint64_t policy_vm_steps = 0;   // CKVM instructions retired by policy programs
  uint64_t policy_vm_faults = 0;  // runs ended by fault or trap
  uint64_t policy_vm_budget = 0;  // scans aborted by step-budget exhaustion
  uint64_t policy_fallbacks = 0;  // policy scans that fell back to clock
};

// Per-app-kernel cost attribution, indexed by kernel slot. Every increment
// mirrors a CkStats increment (or a guest-execution charge), attributed to
// the kernel that caused the work, so summing any field across slots equals
// the corresponding machine-level CkStats total (tests/tenant_test.cc checks
// this conservation). Slots are reused without resetting the account --
// attribution is "work done by whoever held the slot", and conservation is
// over sums, so reuse is harmless. POD on purpose: the cluster differential
// memcmp-compares whole accounts.
//
// Attribution rules: loads charge the calling kernel; writebacks and explicit
// unloads charge the object's owner (a kernel object is its own owner);
// reclaim scan steps charge the kernel whose load forced the scan; guest
// instructions/cycles and forwarded faults charge the running thread's owner.
struct CostAccount {
  uint64_t loads[kObjectTypeCount] = {0};
  uint64_t writebacks[kObjectTypeCount] = {0};
  uint64_t explicit_unloads[kObjectTypeCount] = {0};
  uint64_t reclaim_scan_steps[kObjectTypeCount] = {0};
  uint64_t guest_instructions = 0;
  uint64_t guest_cycles = 0;       // cycles charged to this kernel's threads
  uint64_t faults_forwarded = 0;
  uint64_t prof_samples = 0;       // profiler PC samples harvested
  // Trace-cache work done while this kernel's threads ran (mirrors the
  // CkStats exec_trace_* totals, like guest_instructions).
  uint64_t exec_trace_hits = 0;
  uint64_t exec_trace_misses = 0;
  uint64_t exec_trace_invalidations = 0;
  uint64_t exec_trace_builds = 0;
  // Tiered-memory work attributed to this kernel: admissions/demotions/
  // evictions charge the frame's owning tenant when one exists (the kernel of
  // the first virtual mapping) and otherwise the kernel whose load forced the
  // transition; promotions always charge the owner.
  uint64_t tier_admissions = 0;
  uint64_t tier_demotions = 0;
  uint64_t tier_promotions = 0;
  uint64_t tier_evictions = 0;
  // Replacement-policy engine work done on this kernel's behalf: CKVM
  // instructions its policy programs retired during victim scans, and the
  // scans for its loads that abandoned the requested policy for clock.
  uint64_t policy_vm_steps = 0;
  uint64_t policy_fallbacks = 0;
};

// Timestamps of the Figure 2 steps for one forwarded fault. The most recent
// trace is always available; completed traces also accumulate into per-step
// histograms and a bounded last-N history ring.
struct FaultTrace {
  cksim::Cycles trap_entry = 0;      // step 1: hardware trap into the CK
  cksim::Cycles handler_start = 0;   // step 2: thread redirected to app kernel
  cksim::Cycles mapping_loaded = 0;  // step 4: new mapping descriptor loaded
  cksim::Cycles resumed = 0;         // step 6: faulting thread resumed
};

// Per-step latency distributions over every completed forwarded fault, in
// simulated microseconds (the paper's Figure 2 bars as populations, not a
// single retained sample).
struct FaultStepStats {
  ckbase::Stats transfer;     // steps 1-2: trap entry -> handler start
  ckbase::Stats handle_load;  // steps 3-4: handler start -> mapping loaded
  ckbase::Stats resume;       // steps 5-6: mapping loaded -> resumed
  ckbase::Stats total;        // trap entry -> resumed
};

struct MappingSpec {
  SpaceId space;
  cksim::VirtAddr vaddr = 0;
  cksim::PhysAddr paddr = 0;
  cksim::MapFlags flags;
  bool locked = false;
  ThreadId signal_thread;          // optional: deliver signals on this page
  cksim::PhysAddr cow_source = 0;  // optional: deferred-copy source page
};

struct ThreadSpec {
  SpaceId space;
  uint64_t cookie = 0;
  uint8_t priority = 0;
  uint8_t cpu_hint = 0xff;  // 0xff: round-robin assignment
  bool locked = false;
  bool start_blocked = false;      // load in blocked state (await signal)
  ckisa::VmContext vm;             // guest register state
  NativeProgram* native = nullptr; // native program instead of guest code
  cksim::VirtAddr signal_handler = 0;
  cksim::VirtAddr exception_stack = 0;
};

struct MappingInfo {
  cksim::PhysAddr paddr = 0;
  bool writable = false;
  bool message = false;
  bool referenced = false;
  bool modified = false;
  bool locked = false;
};

class CkApi;

// Why an object is leaving its cache; decides which unload counter it lands
// in (exactly one per object) and whether the owner's writeback handler runs.
enum class UnloadCause : uint8_t {
  kExplicit,  // owner-requested unload -> explicit_unloads
  kReclaim,   // capacity-forced victim -> writebacks (+ reclamations, by Evict)
  kCascade,   // Figure 6 dependent of another unload -> writebacks
  kDiscard,   // dropped without writeback (invariant repair) -> uncounted
};

class CacheKernel : public cksim::MachineClient, public cksim::SignalSink {
 public:
  CacheKernel(cksim::Machine& machine, const CacheKernelConfig& config);

  CacheKernel(const CacheKernel&) = delete;
  CacheKernel& operator=(const CacheKernel&) = delete;

  // Create the first application kernel (normally the system resource
  // manager) with full permissions on all physical resources, locked
  // (section 3). Must be called exactly once before the machine runs.
  KernelId BootFirstKernel(AppKernel* handlers, uint64_t cookie);
  KernelId first_kernel() const { return first_kernel_; }

  // ---- kernel objects (loadable only by the first kernel, section 2.4) ----
  Result<KernelId> LoadKernel(KernelId caller, cksim::Cpu& cpu, AppKernel* handlers,
                              uint64_t cookie, bool locked);
  CkStatus UnloadKernel(KernelId caller, cksim::Cpu& cpu, KernelId kernel);

  // The special modify operations (optimizations over unload-modify-reload).
  // SetLockLimits refuses (kInvalidArgument) a limit below what `kernel` holds.
  CkStatus GrantPageGroups(KernelId caller, cksim::Cpu& cpu, KernelId kernel,
                           uint32_t first_group, uint32_t count, GroupAccess access);
  CkStatus SetCpuQuota(KernelId caller, cksim::Cpu& cpu, KernelId kernel,
                       const uint8_t percent[kMaxCpus], uint8_t max_priority);
  CkStatus SetLockLimits(KernelId caller, cksim::Cpu& cpu, KernelId kernel,
                         const uint8_t limits[kObjectTypeCount]);

  // ---- address spaces ----
  Result<SpaceId> LoadSpace(KernelId caller, cksim::Cpu& cpu, uint64_t cookie, bool locked);
  CkStatus UnloadSpace(KernelId caller, cksim::Cpu& cpu, SpaceId space);

  // ---- threads ----
  Result<ThreadId> LoadThread(KernelId caller, cksim::Cpu& cpu, const ThreadSpec& spec);
  CkStatus UnloadThread(KernelId caller, cksim::Cpu& cpu, ThreadId thread);
  CkStatus SetThreadPriority(KernelId caller, cksim::Cpu& cpu, ThreadId thread, uint8_t priority);
  CkStatus BlockThread(KernelId caller, cksim::Cpu& cpu, ThreadId thread);
  // Unblock a blocked thread; optionally deposit a return value in guest a0
  // (completing a blocked trap).
  CkStatus ResumeThread(KernelId caller, cksim::Cpu& cpu, ThreadId thread, bool has_return = false,
                        uint32_t return_value = 0);
  // Redirect a guest thread to `pc` with `a0` as argument -- how an
  // application kernel "resumes the thread at the address corresponding to
  // the user-specified UNIX signal handler" after a SEGV (section 2.1).
  CkStatus RedirectThread(KernelId caller, cksim::Cpu& cpu, ThreadId thread, cksim::VirtAddr pc,
                          uint32_t a0);

  // ---- page mappings ----
  CkStatus LoadMapping(KernelId caller, cksim::Cpu& cpu, const MappingSpec& spec);
  // The optimized combined call: load the mapping and restart the faulting
  // thread in one trap (Table 2's "optimized" row). The thread must be the
  // caller's own (kDenied otherwise, after the mapping has loaded).
  CkStatus LoadMappingAndResume(KernelId caller, cksim::Cpu& cpu, const MappingSpec& spec,
                                ThreadId faulting_thread);
  CkStatus UnloadMapping(KernelId caller, cksim::Cpu& cpu, SpaceId space, cksim::VirtAddr vaddr);
  CkStatus UnloadMappingRange(KernelId caller, cksim::Cpu& cpu, SpaceId space,
                              cksim::VirtAddr vaddr, uint32_t pages);
  Result<MappingInfo> QueryMapping(KernelId caller, cksim::Cpu& cpu, SpaceId space,
                                   cksim::VirtAddr vaddr);
  CkStatus LockMapping(KernelId caller, cksim::Cpu& cpu, SpaceId space, cksim::VirtAddr vaddr,
                       bool locked);

  // ---- guest replacement policy (docs/POLICY_VM.md) ----
  // Install `count` CKVM instruction words as `caller`'s victim-scoring
  // program for its own descriptors of `type`. The program runs in the
  // src/isa/sandbox.h embedding at reclaim time -- read-only feature window,
  // per-scan step budget, clock fallback on fault/budget -- and only ever
  // scores descriptors `caller` owns. Requires the caller's AppKernel to
  // expose a PolicyTable (policy_table() != nullptr); kDenied otherwise.
  // kInvalid for count == 0 or count > kMaxPolicyProgramWords.
  CkStatus LoadPolicy(KernelId caller, cksim::Cpu& cpu, ObjectType type, const uint32_t* words,
                      uint32_t count);
  // Remove the caller's policy program for `type`; its descriptors revert to
  // the clock scan. Succeeds (idempotently) when none is loaded.
  CkStatus ClearPolicy(KernelId caller, cksim::Cpu& cpu, ObjectType type);

  // ---- memory-based messaging ----
  // Deliver an address-valued signal naming `vaddr` in `sender_space` (must
  // be a message-mode mapping). Guests reach this through the signal trap;
  // with the signal-on-write assist enabled, stores reach it directly.
  CkStatus Signal(KernelId caller, cksim::Cpu& cpu, SpaceId sender_space, cksim::VirtAddr vaddr);

  // ---- page contents (resolving deferred copies, zero-fill) ----
  CkStatus CopyPage(KernelId caller, cksim::Cpu& cpu, cksim::PhysAddr dst, cksim::PhysAddr src);
  CkStatus ZeroPage(KernelId caller, cksim::Cpu& cpu, cksim::PhysAddr dst);
  // Direct physical access for application kernels loading program images
  // into frames they own (models the app kernel's identity mapping of its
  // granted memory).
  CkStatus WritePhys(KernelId caller, cksim::Cpu& cpu, cksim::PhysAddr addr, const void* data,
                     uint32_t len);
  CkStatus ReadPhys(KernelId caller, cksim::Cpu& cpu, cksim::PhysAddr addr, void* out,
                    uint32_t len);

  // ---- native application memory access ----
  // Loads/stores issued by native threads through their address space: the
  // moral equivalent of a guest load/store instruction (applications "linked
  // directly in the same address space with its application kernel" still
  // access memory through their mappings, section 2.3). Translation goes
  // through the CPU's TLB and the space's page tables; a missing mapping
  // raises the normal fault-forwarding path synchronously and the access
  // retries. No call-gate cost: this is not a kernel call.
  Result<uint32_t> GuestLoad(KernelId caller, cksim::Cpu& cpu, ThreadId thread,
                             cksim::VirtAddr vaddr) {
    return GuestAccess(caller, cpu, thread, vaddr, cksim::Access::kRead, 0);
  }
  CkStatus GuestStore(KernelId caller, cksim::Cpu& cpu, ThreadId thread, cksim::VirtAddr vaddr,
                      uint32_t value) {
    return GuestAccess(caller, cpu, thread, vaddr, cksim::Access::kWrite, value).status();
  }

  // ---- failure injection ----
  // Mark a local physical frame as held remotely / failed: accesses raise
  // consistency faults (section 2.1 footnote 1). A frame outside local
  // memory is ignored: no translation can reach one.
  void MarkFrameRemote(uint32_t pframe, bool remote);

  // ---- app-kernel deferred events ----
  // Models application kernels' internal timer/pager threads: run `fn` with
  // the kernel's authority at simulated time `at` on whichever CPU reaches
  // it first.
  void ScheduleAppEvent(cksim::Cycles at, KernelId kernel,
                        std::function<void(CkApi&)> fn);

  // ---- MachineClient / SignalSink ----
  void OnCpuTurn(cksim::Cpu& cpu) override;
  void SignalPhysical(cksim::PhysAddr addr, cksim::Cycles when) override;

  // ---- introspection (tests, benches, examples) ----
  const CkStats& stats() const { return stats_; }
  // Idle turns that covered more than one idle_tick (ck.sched.idle_skips)
  // and native turns that covered more than one quiet poll
  // (ck.sched.poll_skips). Simulator counters, not simulated state: they
  // differ between RunUntil and bare Step() loops, so they stay out of
  // CkStats, whose bytes the differential suites compare.
  uint64_t idle_skips() const { return idle_skips_; }
  uint64_t poll_skips() const { return poll_skips_; }
  const FaultTrace& last_fault_trace() const { return fault_trace_; }
  // Last-N completed fault traces, oldest first (N = config.fault_history_depth).
  std::vector<FaultTrace> FaultHistory() const;
  uint64_t fault_traces_recorded() const { return fault_history_pushed_; }
  const FaultStepStats& fault_step_stats() const { return fault_step_stats_; }
  // Register every counter and latency histogram this kernel (and its
  // machine's TLBs) maintains under stable dotted names.
  void RegisterMetrics(obs::Registry& registry);
  cksim::Machine& machine() { return machine_; }
  const CacheKernelConfig& config() const { return config_; }
  // Set the profiler sampling period (cycles between guest-PC samples);
  // 0 disables. Takes effect at the next dispatched guest quantum.
  void set_profile_period(cksim::Cycles period);
  // Per-kernel-slot cost attribution (always on; see CostAccount).
  const std::vector<CostAccount>& tenant_accounts() const { return tenant_; }
  // Profiler PC histograms: profile_pcs()[slot] maps guest PC -> sample
  // count for the kernel that held `slot` when the samples were taken.
  const std::vector<std::map<uint32_t, uint64_t>>& profile_pcs() const { return profile_pcs_; }
  uint64_t profile_samples_total() const { return profile_samples_total_; }
  // Invoked when a forwarded fault terminates its thread (the owning kernel
  // declined to handle it) -- the flight-recorder trigger. The argument is a
  // short reason string.
  void set_fatal_hook(std::function<void(const std::string&)> hook) {
    fatal_hook_ = std::move(hook);
  }
  // ---- tiered physical memory (docs/TIERING.md) ----
  // Set the DRAM budget (frames; 0 disables tiering) and the pressure mode
  // (demote-to-slow vs full evict). Safe at any point: consulted at the next
  // admission / maintenance scan. Frames touched before enabling stay
  // untracked (DRAM-like) until their next mapping load or pool allocation.
  void set_tiers(uint32_t dram_frames, bool demote) {
    config_.tier_dram_frames = dram_frames;
    config_.tier_demote = demote;
  }
  // Frame where the next promotion sweep starts (docs/TIERING.md).
  uint32_t tier_promote_hand() const { return tier_promote_hand_; }
  // Recency touch for a frame an application kernel holds outside any
  // mapping (file-cache pages, src/fs): gives it the same second chance a
  // hardware referenced bit gives a mapped frame.
  void TierTouch(cksim::PhysAddr addr);
  // Frame-pool allocation/release hook (src/appkernel/frame_pool.h, bound by
  // the SRM at Launch): tracks pool-held frames in the DRAM tier so they
  // participate in demotion instead of pinning DRAM.
  void TierFramePoolEvent(KernelId owner, cksim::PhysAddr frame, bool allocated);
  // Checkpoint/restore (src/ckpt): read / reinstate one frame's tier
  // placement. Restore routes through the normal transition accounting, so
  // the tier conservation identities keep holding.
  uint8_t FrameTierOf(cksim::PhysAddr addr) const;
  void RestoreFrameTier(cksim::PhysAddr addr, uint8_t tier);

  uint32_t loaded_count(ObjectType type) const;
  uint32_t capacity(ObjectType type) const;
  // Writeback enumeration for the checkpoint subsystem: how many loaded
  // objects of each type `kernel` currently owns (the population the
  // dependency-ordered unloader will write back on quiesce; all-zero
  // afterwards -- the quiescence assertion). A stale/unloaded kernel id
  // reports zero everywhere: nothing references it, so nothing is loaded.
  std::array<uint32_t, kObjectTypeCount> LoadedCountsFor(KernelId kernel);

  // Thread/space state peeking for tests.
  bool IsThreadLoaded(ThreadId id) { return threads_.Lookup(id.id) != nullptr; }
  bool IsSpaceLoaded(SpaceId id) { return spaces_.Lookup(id.id) != nullptr; }
  bool IsKernelLoaded(KernelId id) { return kernels_.Lookup(id.id) != nullptr; }
  Result<ThreadState> GetThreadState(ThreadId id);
  // Live CPU consumption of a loaded thread (the per-thread accounting the
  // quota machinery maintains, section 4.3). App-kernel scheduler threads use
  // it to detect compute-bound threads.
  Result<cksim::Cycles> GetThreadCpuConsumed(ThreadId id);
  // Processor the thread was placed on at load time.
  Result<uint32_t> GetThreadCpu(ThreadId id);

  // Exhaustive structural self-check (the property tests' oracle): verifies
  // the Figure 6 dependency invariants -- every loaded object's dependencies
  // are loaded, the physical memory map agrees with the page tables, queue
  // membership matches thread states, per-kernel counts add up. Returns a
  // list of violations (empty = consistent).
  std::vector<std::string> ValidateInvariants();

  // The simulated size of a thread descriptor, half of which a thread load
  // and a thread writeback copy: 304 B, sizeof(ThreadObject) under x86-64
  // GCC when it was fixed, so the host layout never sets simulated time.
  static constexpr uint32_t kThreadDescriptorBytes = 304;
  // Host descriptor sizes for the Table 1 bench.
  static constexpr uint32_t kKernelObjectBytes = sizeof(KernelObject);
  static constexpr uint32_t kSpaceObjectBytes = sizeof(AddressSpaceObject);
  static constexpr uint32_t kThreadObjectBytes = sizeof(ThreadObject);
  static constexpr uint32_t kMappingEntryBytes = sizeof(MemMapEntry);

 private:
  friend class CkApi;
  friend class GuestBusImpl;
  friend class NativeCtx;

  struct PendingSignal {
    ckbase::PoolId thread;
    cksim::VirtAddr vaddr = 0;
    uint32_t pframe = 0;  // for the receiver-side reverse-TLB fast path
    cksim::Cycles due = 0;
  };

  struct AppEvent {
    cksim::Cycles at = 0;
    ckbase::PoolId kernel;
    std::function<void(CkApi&)> fn;
  };

  // GuestLoad (kRead) and GuestStore (kWrite): a load returns the word read.
  // A translation to a local frame that raises no signal completes here, at
  // the call site; GuestAccessSlow takes every other outcome of it.
  Result<uint32_t> GuestAccess(KernelId caller, cksim::Cpu& cpu, ThreadId thread_id,
                               cksim::VirtAddr vaddr, cksim::Access access, uint32_t value) {
    ThreadObject* thread = GetThread(thread_id);
    KernelObject* owner = GetKernel(caller);
    AddressSpaceObject* space = nullptr;
    if (thread == nullptr || owner == nullptr || kernels_.SlotAt(thread->kernel_slot) != owner ||
        (space = spaces_.Lookup({thread->space_slot, thread->space_gen})) == nullptr) {
      return CkStatus::kStale;
    }
    cksim::Mmu::TranslateResult t = cpu.mmu().Translate(
        space->root_table, static_cast<uint16_t>(thread->space_slot), vaddr, access);
    if (!t.ok || FrameIsRemote(cksim::PageFrame(t.paddr)) ||
        (t.message_write && config_.signal_on_write)) {
      return GuestAccessSlow(thread, cpu, thread_id, vaddr, access, value, t);
    }
    cpu.Advance(t.cycles + machine_.cost().mem_word);
    if (access == cksim::Access::kRead) {
      return machine_.memory().ReadWord(t.paddr & ~3u);
    }
    machine_.memory().WriteWord(t.paddr & ~3u, value);
    return value;
  }
  // `count` loads at first + i * stride, each followed by `charge_each`
  // cycles (NativeCtx::LoadWords). After a load succeeds, the following words
  // on its page hit the TLB entry it left, so they are charged, counted and
  // read as one run.
  void LoadWords(KernelId caller, cksim::Cpu& cpu, ThreadId thread_id, cksim::VirtAddr first,
                 uint32_t stride, uint32_t count, cksim::Cycles charge_each,
                 Result<uint32_t>* out);
  // Fault forwarding and up to two retries, and the signal-on-write assist.
  Result<uint32_t> GuestAccessSlow(ThreadObject* thread, cksim::Cpu& cpu, ThreadId thread_id,
                                   cksim::VirtAddr vaddr, cksim::Access access, uint32_t value,
                                   cksim::Mmu::TranslateResult t);

  // -- tracing --
  // The emitting CPU's trace ring; nullptr until Machine::EnableTracing.
  obs::TraceRing* Ring(cksim::Cpu& cpu) { return machine_.trace_ring(cpu.id()); }
  // Fold a completed fault trace into the history ring and step histograms.
  void RecordFaultTrace(const FaultTrace& trace);

  // -- lookup helpers --
  KernelObject* GetKernel(KernelId id) { return kernels_.Lookup(id.id); }
  AddressSpaceObject* GetSpace(SpaceId id) { return spaces_.Lookup(id.id); }
  ThreadObject* GetThread(ThreadId id) { return threads_.Lookup(id.id); }
  KernelId IdOfKernel(const KernelObject* k) { return KernelId{kernels_.IdOf(k)}; }
  ThreadId IdOfThread(const ThreadObject* t) { return ThreadId{threads_.IdOf(t)}; }

  // -- the call gate: every kernel call resolves its ids here. A resolver
  // returns the object, or nullptr with `status` set: a stale id is kStale
  // and counts one stale_id_errors (the object was written back, perhaps
  // concurrently; the caller reloads it and retries, section 2); a space or
  // thread of another kernel, or a kernel object named by anyone but the
  // first kernel, is kDenied. Given a null owner (refused already) GateOwned
  // returns nullptr and leaves `status` alone, so resolvers chain. --
  template <typename Object>
  Object* GateLoaded(Object* object, CkStatus& status) {
    if (object == nullptr) {
      stats_.stale_id_errors++;
      status = CkStatus::kStale;
    }
    return object;
  }
  template <typename Object>
  Object* GateOwned(KernelObject* owner, Object* object, CkStatus& status) {
    if (owner == nullptr || GateLoaded(object, status) == nullptr) {
      return nullptr;
    }
    if (kernels_.SlotAt(object->kernel_slot) != owner) {
      status = CkStatus::kDenied;
      return nullptr;
    }
    return object;
  }
  KernelObject* GateCaller(KernelId caller, CkStatus& status) {
    return GateLoaded(GetKernel(caller), status);
  }
  KernelObject* GateKernelObject(KernelId caller, KernelId kernel, CkStatus& status);

  // -- object lifecycle --
  // The load commit, run once nothing can refuse the load: charge the lock
  // budget, count the load for the machine and the loading kernel, and trace
  // it (cpu is null only at boot).
  void CommitLoad(ObjectType type, KernelObject* owner, bool locked, cksim::Cpu* cpu,
                  uint32_t trace_arg);
  // The writeback commit of the four unload paths: unless the object is
  // discarded, charge the writeback record (plus `extra`), count the unload
  // as explicit or as a writeback (machine and `account_slot`), trace it and
  // hand the record to `receiver`'s writeback handler through `upcall`.
  template <typename Upcall>
  void CommitWriteback(cksim::Cpu& cpu, UnloadCause cause, ObjectType type, uint32_t account_slot,
                       KernelObject* receiver, uint32_t trace_arg, cksim::Cycles extra,
                       Upcall upcall);
  // Lock budgets (section 4.2): a locked load is refused at the limit, the
  // load commit charges a unit and ReleaseLock returns it.
  static bool LockBudgetFull(const KernelObject* k, ObjectType type) {
    uint32_t t = static_cast<uint32_t>(type);
    return k->locked_count[t] >= k->locked_limit[t];
  }
  static void ReleaseLock(KernelObject* holder, ObjectType type, bool locked) {
    uint8_t& count = holder->locked_count[static_cast<uint32_t>(type)];
    if (locked && count > 0) {
      count--;
    }
  }

  // -- effective lock chains (section 4.2) --
  bool KernelEffectivelyLocked(const KernelObject* k) const { return k->locked; }
  bool SpaceEffectivelyLocked(AddressSpaceObject* s);
  bool ThreadEffectivelyLocked(ThreadObject* t);
  bool MappingEffectivelyLocked(uint32_t pv_index);

  // -- reclamation (capacity-forced victims) --
  // One generic engine (src/ck/object_cache.h) driven by per-type Ops glue.
  struct KernelVictimOps;
  struct SpaceVictimOps;
  struct ThreadVictimOps;
  struct MappingVictimOps;
  // `requester_slot` is the kernel slot whose load forced the scan; the scan
  // steps are charged to its cost account.
  bool ReclaimVictim(ObjectType type, cksim::Cpu& cpu, uint32_t requester_slot);
  // The requester's loaded guest policy program when it has one, else the
  // clock scan; a guest scan that faults, exhausts its budget or finds no
  // candidate falls back to clock with a trace event. Member template
  // defined in cache_kernel.cc (every instantiation lives there).
  template <typename Cache, typename Ops>
  bool ReclaimWithPolicy(Cache& cache, Ops& ops, ObjectType type, cksim::Cpu& cpu,
                         uint32_t requester_slot, uint64_t& scan_steps);
  // The requester's per-kernel policy state, or nullptr (no kernel in the
  // slot, or its AppKernel keeps no PolicyTable).
  PolicyTable* PolicyTableOf(uint32_t kernel_slot);

  // -- cascaded unload (Figure 6 order). Writeback unless kDiscard; the
  // cause picks the stat counter. Dependents are unloaded with kCascade
  // (kDiscard propagates). --
  void UnloadKernelInternal(KernelObject* kernel, cksim::Cpu& cpu, UnloadCause cause);
  void UnloadSpaceInternal(AddressSpaceObject* space, cksim::Cpu& cpu, UnloadCause cause);
  void UnloadThreadInternal(ThreadObject* thread, cksim::Cpu& cpu, UnloadCause cause);
  void UnloadPvRecord(uint32_t pv_index, cksim::Cpu& cpu, UnloadCause cause,
                      bool consistency_cascade = true);

  // -- page table maintenance --
  // Returns the leaf PTE address for vaddr, allocating tables if `create`.
  cksim::PhysAddr LeafPteAddr(AddressSpaceObject* space, cksim::VirtAddr vaddr, bool create,
                              cksim::Cpu& cpu);
  // The leaf PTE address of loaded pv record `pv`, remembered at its load:
  // the tables under a mapping are freed only after it unloads. charge(cycles)
  // receives the two table levels the walk to it reads.
  template <typename Charge>
  cksim::PhysAddr PvLeaf(uint32_t pv, Charge&& charge) {
    charge(2 * machine_.cost().table_walk_level);
    return pmap_.leaf_pte(pv);
  }
  // The leaf PTE for vaddr; 0 when no page table covers it.
  uint32_t LeafPte(AddressSpaceObject* space, cksim::VirtAddr vaddr, cksim::Cpu& cpu) {
    cksim::PhysAddr leaf = LeafPteAddr(space, vaddr, /*create=*/false, cpu);
    return leaf != 0 ? machine_.memory().ReadWord(leaf) : 0;
  }
  // The pv record of the mapping at (space, vaddr), or kNilRecord; `pte`
  // receives the leaf PTE.
  uint32_t FindMapping(AddressSpaceObject* space, cksim::VirtAddr vaddr, cksim::Cpu& cpu,
                       uint32_t& pte);
  void FreeSpaceTables(AddressSpaceObject* space);

  // -- scheduling --
  ThreadObject* PickNext(cksim::Cpu& cpu);
  void Enqueue(ThreadObject* thread, bool front = false);
  void Dequeue(ThreadObject* thread);
  void RunGuest(ThreadObject* thread, cksim::Cpu& cpu);
  void RunNative(ThreadObject* thread, cksim::Cpu& cpu);
  void ChargeThread(ThreadObject* thread, cksim::Cpu& cpu, cksim::Cycles cycles);
  void RollQuotaWindow(cksim::Cpu& cpu);
  void PreemptCurrent(cksim::Cpu& cpu);
  // Advance an idle CPU, covering a whole idle stretch inside RunUntil.
  void IdleTurn(cksim::Cpu& cpu);
  cksim::Cycles TurnHorizon(cksim::Cpu& cpu);
  void SkipQuietPolls(ThreadObject* thread, KernelObject* owner, cksim::Cpu& cpu,
                      cksim::Cycles quiet_until);
  ThreadObject* CurrentOn(cksim::Cpu& cpu) {
    return static_cast<ThreadObject*>(cpu.current_thread);
  }

  // -- forwarding --
  void ForwardFault(ThreadObject* thread, cksim::Cpu& cpu, const cksim::Fault& fault);
  void ForwardTrap(ThreadObject* thread, cksim::Cpu& cpu, uint16_t number);
  // The upcall tail of a forwarded fault or trap (Figure 2 steps 5-6): false
  // when the handler unloaded the thread; else resume it (depositing `a0`
  // when given), block it or halt it, as the handler's `action` says.
  bool EndForward(ThreadObject* thread, ThreadId id, HandlerAction action, const uint32_t* a0,
                  cksim::Cpu& cpu);
  // Take the thread off its CPU and ready queue, mark it halted and tell its
  // kernel (HALT, a native kHalt, or a handler's kTerminate).
  void HaltThread(ThreadObject* thread, cksim::Cpu& cpu);
  void HandleCkTrap(ThreadObject* thread, cksim::Cpu& cpu, uint16_t number);

  // -- messaging internals --
  // Signal the message at `vaddr` in `space` (the Signal call and the signal
  // trap): kNotFound when the sender's mapping is not loaded (`fault` is the
  // translation fault), kInvalidArgument when the page is not a message page.
  CkStatus SendSignal(AddressSpaceObject* space, cksim::VirtAddr vaddr, cksim::Cpu& cpu,
                      cksim::Fault& fault);
  void DeliverSignalToFrame(uint32_t pframe, uint32_t offset, cksim::Cycles when,
                            cksim::Cpu* origin_cpu);
  void DeliverToThread(ThreadObject* thread, cksim::VirtAddr vaddr, uint32_t pframe,
                       cksim::Cpu& cpu);
  void DrainPendingSignals(cksim::Cpu& cpu);
  void MaybeEnterSignalHandler(ThreadObject* thread, cksim::Cpu& cpu);
  void RemoveSignalRecordsForThread(ThreadObject* thread, cksim::Cpu& cpu);
  // Unlink a signal record from its thread's registration chain (and drop
  // the thread's count) before the record is removed for a reason other than
  // thread teardown (mapping unload). Stale records naming a previous slot
  // occupant are left alone.
  void UnlinkSignalRecord(uint32_t index);

  // -- access checks --
  bool CheckPhysicalAccess(KernelObject* kernel, cksim::PhysAddr addr, uint32_t len, bool write);

  // O(1) remote-frame probe on the guest memory hot paths; false for a frame
  // outside local memory.
  bool FrameIsRemote(uint32_t pframe) const {
    return pframe < remote_frames_.size() && remote_frames_[pframe] != 0;
  }

  // -- tiered physical memory (docs/TIERING.md) --
  bool TierEnabled() const { return config_.tier_dram_frames != 0; }
  // Why a tier transition happened; picks the stat counters. Restore reuses
  // kAdmit/kDemote so the conservation identities hold across round trips.
  enum class TierChange : uint8_t { kAdmit, kDemote, kPromote, kEvict, kRelease };
  // The single tier-transition point: maintains the PhysicalMemory tier
  // attribute (the one record of a frame's tier) and every CkStats/
  // CostAccount tier counter. All callers run at deterministic serial points.
  void SetFrameTierInternal(uint32_t frame, cksim::MemTier to, TierChange why,
                            uint32_t tenant_slot);
  // Admit an untracked frame to DRAM (or refresh a tracked frame's recency),
  // demoting/evicting one cold victim first when at budget. cpu may be null
  // (frame-pool hook); charges and traces are skipped then and the budget is
  // enforced by the next maintenance scan instead.
  void TierAdmitFrame(uint32_t frame, cksim::Cpu* cpu, uint32_t requester_slot);
  // Demote (or fully evict, per config_.tier_demote) one cold DRAM frame.
  // False when every candidate is pinned. `exclude` (kNoFrame when unused)
  // protects the frame currently being admitted or promoted.
  bool TierReclaimOne(cksim::Cpu& cpu, uint32_t requester_slot, uint32_t exclude);
  // Maintenance pass at the head of a dispatch turn, when tiers are on and
  // a scan is due (OnCpuTurn tests that): trim over-budget DRAM, then
  // promote hot slow-tier frames by their harvested referenced bits.
  void TierMaintenance(cksim::Cpu& cpu);
  // Harvest (and clear) the referenced evidence for a frame: hardware leaf
  // PTE bits over all of its virtual mappings, OR-ed with the soft TierTouch
  // bit. PTE reads/clears are charged to `cpu`.
  bool TierTestAndClearReferenced(uint32_t frame, cksim::Cpu& cpu);
  // Any virtual mapping of the frame effectively locked (those pin DRAM)?
  bool TierFramePinned(uint32_t frame);
  // Flush every TLB / reverse-TLB entry naming the frame so post-transition
  // accesses re-fill and pay the new tier's fill cost.
  void TierFlushFrame(uint32_t frame, cksim::Cpu& cpu);
  // Owning tenant: kernel slot of the first virtual mapping's space, or
  // `fallback` for frames with no mappings (pool-held file-cache pages).
  uint32_t TierOwnerSlot(uint32_t frame, uint32_t fallback);
  // Extra cycles for bulk physical access overlapping slow-tier frames.
  cksim::Cycles TierSlowTouchCycles(cksim::PhysAddr addr, uint32_t len) const;
  struct FrameTierOps;
  static constexpr uint32_t kNoFrame = 0xffffffffu;

  void FlushTlbPageAllCpus(uint16_t asid, uint32_t vpage, cksim::Cpu& cpu);
  void FlushReverseTlbFrameAllCpus(uint32_t pframe);

  cksim::Machine& machine_;
  // Boot configuration; set_tiers updates it in place.
  CacheKernelConfig config_;

  // The four descriptor caches: one ObjectCache layer over the per-type
  // stores (the mapping instance wraps the physical memory map).
  ObjectCache<ckbase::FixedPool<KernelObject>> kernels_;
  ObjectCache<ckbase::FixedPool<AddressSpaceObject>> spaces_;
  ObjectCache<ckbase::FixedPool<ThreadObject>> threads_;
  ObjectCache<PhysicalMemoryMap> pmap_;
  TableArena table_arena_;
  // The demotion victim scan is the descriptor caches' ClockScan, run with
  // this hand over physical frames; its occupied slots are DRAM frames, read
  // from PhysicalMemory's per-frame tier tags.
  uint32_t tier_hand_ = 0;
  std::vector<uint8_t> tier_ref_;   // soft referenced bit per frame (TierTouch)
  uint32_t tier_promote_hand_ = 0;  // round-robin start of the promotion scan
  cksim::Cycles tier_next_scan_ = 0;

  KernelId first_kernel_;

  // Per-CPU, per-priority ready queues.
  using ReadyQueue = ckbase::IntrusiveList<ThreadObject, &ThreadObject::ready_node>;
  std::vector<std::vector<ReadyQueue>> ready_;  // [cpu][priority]
  // Bit p set iff ready_[cpu][p] is non-empty (maintained by Enqueue/Dequeue,
  // the only two mutation points). Lets the per-turn priority-preemption check
  // and PickNext's scan test one word instead of walking every queue head.
  std::vector<uint64_t> ready_mask_;  // [cpu]

  std::vector<std::deque<PendingSignal>> pending_signals_;  // [cpu]
  std::vector<cksim::Cycles> quota_window_start_;           // [cpu]

  // Head of each thread slot's signal-registration chain (records linked
  // through MemMapEntry::signal_next). Kept beside the pool rather than in
  // ThreadObject so the descriptor keeps its Table 1 shape.
  std::vector<uint32_t> signal_reg_head_;  // [thread slot]

  std::vector<AppEvent> app_events_;  // kept sorted by `at`
  // Frames held on remote nodes / failed modules: one byte per local frame,
  // sized at construction so its storage never moves. The guest memory paths
  // probe it, and the trace executor reads it through
  // FastPath::remote_frame_bits.
  std::vector<uint8_t> remote_frames_;

  // Guest-execution fast path state (src/isa/fastpath.h), per CPU like the
  // hardware TLB it shadows: the micro-TLB hints and the superblock trace
  // cache (a trace revalidates against its CPU's TLB).
  std::vector<ckisa::MicroTlb> micro_tlbs_;
  std::vector<std::unique_ptr<ckisa::TraceCache>> trace_caches_;

  // -- cost attribution / profiler --
  CostAccount& Tenant(uint32_t slot) { return tenant_[slot]; }
  // Harvest a pending profiler sample into the owning kernel's histogram.
  void RecordPcSample(uint32_t kernel_slot, uint32_t pc, cksim::Cpu& cpu);

  uint32_t next_cpu_rr_ = 0;  // round-robin thread placement
  CkStats stats_;
  uint64_t idle_skips_ = 0;
  uint64_t poll_skips_ = 0;
  std::vector<CostAccount> tenant_;                       // [kernel slot]
  std::vector<std::map<uint32_t, uint64_t>> profile_pcs_; // [kernel slot] pc -> samples
  std::vector<ckisa::PcSampler> samplers_;                // [cpu]
  uint64_t profile_samples_total_ = 0;
  std::function<void(const std::string&)> fatal_hook_;
  FaultTrace fault_trace_;
  // Last-N completed traces (overwrite-oldest) plus per-step distributions.
  std::vector<FaultTrace> fault_history_;
  uint64_t fault_history_pushed_ = 0;
  FaultStepStats fault_step_stats_;
};

// Facade carrying one application kernel's authority into Cache Kernel calls
// (the "trap into the Cache Kernel" path for native app-kernel code). Also
// lets app kernels charge their own simulated user-mode work.
class CkApi {
 public:
  CkApi(CacheKernel& kernel, KernelId self, cksim::Cpu& cpu)
      : ck_(kernel), self_(self), cpu_(cpu) {}

  KernelId self() const { return self_; }
  cksim::Cpu& cpu() { return cpu_; }
  CacheKernel& kernel() { return ck_; }
  cksim::Cycles now() const { return cpu_.clock(); }
  void Charge(cksim::Cycles cycles) { cpu_.Advance(cycles); }

  Result<SpaceId> LoadSpace(uint64_t cookie, bool locked = false) {
    return ck_.LoadSpace(self_, cpu_, cookie, locked);
  }
  CkStatus UnloadSpace(SpaceId space) { return ck_.UnloadSpace(self_, cpu_, space); }
  Result<ThreadId> LoadThread(const ThreadSpec& spec) { return ck_.LoadThread(self_, cpu_, spec); }
  CkStatus UnloadThread(ThreadId thread) { return ck_.UnloadThread(self_, cpu_, thread); }
  CkStatus SetThreadPriority(ThreadId thread, uint8_t priority) {
    return ck_.SetThreadPriority(self_, cpu_, thread, priority);
  }
  CkStatus BlockThread(ThreadId thread) { return ck_.BlockThread(self_, cpu_, thread); }
  CkStatus ResumeThread(ThreadId thread, bool has_return = false, uint32_t return_value = 0) {
    return ck_.ResumeThread(self_, cpu_, thread, has_return, return_value);
  }
  CkStatus RedirectThread(ThreadId thread, cksim::VirtAddr pc, uint32_t a0) {
    return ck_.RedirectThread(self_, cpu_, thread, pc, a0);
  }
  CkStatus LoadMapping(const MappingSpec& spec) { return ck_.LoadMapping(self_, cpu_, spec); }
  CkStatus LoadMappingAndResume(const MappingSpec& spec, ThreadId faulting) {
    return ck_.LoadMappingAndResume(self_, cpu_, spec, faulting);
  }
  CkStatus UnloadMapping(SpaceId space, cksim::VirtAddr vaddr) {
    return ck_.UnloadMapping(self_, cpu_, space, vaddr);
  }
  CkStatus UnloadMappingRange(SpaceId space, cksim::VirtAddr vaddr, uint32_t pages) {
    return ck_.UnloadMappingRange(self_, cpu_, space, vaddr, pages);
  }
  Result<MappingInfo> QueryMapping(SpaceId space, cksim::VirtAddr vaddr) {
    return ck_.QueryMapping(self_, cpu_, space, vaddr);
  }
  CkStatus LockMapping(SpaceId space, cksim::VirtAddr vaddr, bool locked) {
    return ck_.LockMapping(self_, cpu_, space, vaddr, locked);
  }
  CkStatus LoadPolicy(ObjectType type, const uint32_t* words, uint32_t count) {
    return ck_.LoadPolicy(self_, cpu_, type, words, count);
  }
  CkStatus ClearPolicy(ObjectType type) { return ck_.ClearPolicy(self_, cpu_, type); }
  CkStatus Signal(SpaceId sender_space, cksim::VirtAddr vaddr) {
    return ck_.Signal(self_, cpu_, sender_space, vaddr);
  }
  CkStatus CopyPage(cksim::PhysAddr dst, cksim::PhysAddr src) {
    return ck_.CopyPage(self_, cpu_, dst, src);
  }
  CkStatus ZeroPage(cksim::PhysAddr dst) { return ck_.ZeroPage(self_, cpu_, dst); }
  CkStatus WritePhys(cksim::PhysAddr addr, const void* data, uint32_t len) {
    return ck_.WritePhys(self_, cpu_, addr, data, len);
  }
  CkStatus ReadPhys(cksim::PhysAddr addr, void* out, uint32_t len) {
    return ck_.ReadPhys(self_, cpu_, addr, out, len);
  }
  // Tiered physical memory (docs/TIERING.md): recency touch for pool-held
  // frames, and tier capture/reinstate for checkpoint/restore.
  void TierTouch(cksim::PhysAddr addr) { ck_.TierTouch(addr); }
  uint8_t FrameTier(cksim::PhysAddr addr) const { return ck_.FrameTierOf(addr); }
  void SetFrameTier(cksim::PhysAddr addr, uint8_t tier) { ck_.RestoreFrameTier(addr, tier); }
  void ScheduleAfter(cksim::Cycles delay, std::function<void(CkApi&)> fn) {
    ck_.ScheduleAppEvent(cpu_.clock() + delay, self_, std::move(fn));
  }

  // First-kernel (SRM) operations; kDenied for everyone else.
  Result<KernelId> LoadKernel(AppKernel* handlers, uint64_t cookie, bool locked = false) {
    return ck_.LoadKernel(self_, cpu_, handlers, cookie, locked);
  }
  CkStatus UnloadKernel(KernelId kernel) { return ck_.UnloadKernel(self_, cpu_, kernel); }
  CkStatus GrantPageGroups(KernelId kernel, uint32_t first_group, uint32_t count,
                           GroupAccess access) {
    return ck_.GrantPageGroups(self_, cpu_, kernel, first_group, count, access);
  }
  CkStatus SetCpuQuota(KernelId kernel, const uint8_t percent[kMaxCpus], uint8_t max_priority) {
    return ck_.SetCpuQuota(self_, cpu_, kernel, percent, max_priority);
  }
  CkStatus SetLockLimits(KernelId kernel, const uint8_t limits[kObjectTypeCount]) {
    return ck_.SetLockLimits(self_, cpu_, kernel, limits);
  }

 private:
  CacheKernel& ck_;
  KernelId self_;
  cksim::Cpu& cpu_;
};

// Execution context given to native programs each Step/OnSignal.
class NativeCtx {
 public:
  NativeCtx(CkApi api, ThreadId self, uint64_t cookie)
      : api_(api), self_(self), cookie_(cookie) {}

  CkApi& api() { return api_; }
  ThreadId self_thread() const { return self_; }
  uint64_t cookie() const { return cookie_; }
  void Charge(cksim::Cycles cycles) { api_.Charge(cycles); }

  // Memory access through this thread's address space (translated, charged,
  // faulting into the owning kernel's handler like any other access).
  ckbase::Result<uint32_t> LoadWord(cksim::VirtAddr vaddr) {
    return api_.kernel().GuestLoad(api_.self(), api_.cpu(), self_, vaddr);
  }
  ckbase::CkStatus StoreWord(cksim::VirtAddr vaddr, uint32_t value) {
    return api_.kernel().GuestStore(api_.self(), api_.cpu(), self_, vaddr, value);
  }
  // out[i] = LoadWord(first + i * stride); Charge(charge_each); for i in
  // [0, count): the same statuses, values, clock, counters, TLB state and
  // trace, with the words of a page that hit the TLB loaded in one run.
  void LoadWords(cksim::VirtAddr first, uint32_t stride, uint32_t count,
                 cksim::Cycles charge_each, ckbase::Result<uint32_t>* out) {
    api_.kernel().LoadWords(api_.self(), api_.cpu(), self_, first, stride, count, charge_each,
                            out);
  }

 private:
  CkApi api_;
  ThreadId self_;
  uint64_t cookie_;
};

// Guest trap numbers handled by the Cache Kernel itself; all others are
// forwarded to the owning application kernel as system calls.
inline constexpr uint16_t kTrapSignalReturn = 1;  // end of signal function
inline constexpr uint16_t kTrapSignal = 2;        // a0 = message vaddr
inline constexpr uint16_t kTrapAwaitSignal = 3;   // block until a signal
inline constexpr uint16_t kTrapYield = 4;         // give up the time slice
inline constexpr uint16_t kFirstAppTrap = 16;     // app-kernel syscall space

}  // namespace ck

#endif  // SRC_CK_CACHE_KERNEL_H_
