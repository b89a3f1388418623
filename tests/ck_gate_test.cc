// The Cache Kernel's call gate, pinned row by row: one row per CkApi entry
// point and outcome (ok, stale caller, stale target, denied, busy, not found,
// no resources, invalid, wherever the call can return it), each asserting the
// status, the cycles charged to the calling CPU and the CkStats delta.
//
// The rows encode the exit rules. LoadMapping, UnloadMapping, LockMapping and
// Signal charge trap_exit on every return; QueryMapping charges it on kOk and
// kNotFound; every other trapping call charges it on kOk only; WritePhys and
// ReadPhys charge no trap at all. Every stale id counts one stale_id_errors.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "src/ck/cache_kernel.h"
#include "src/ck/policy.h"
#include "src/sim/machine.h"

namespace {

using ck::CkApi;
using ck::CkStats;
using ck::ObjectType;
using ckbase::CkStatus;
using cksim::CostModel;
using cksim::Cycles;

constexpr uint32_t kCpus = 2;
constexpr uint32_t kSlots = 4;                   // kernel, space and thread descriptors
constexpr uint32_t kMappingSlots = 16;
constexpr cksim::PhysAddr kAppFrame = 0x80000;   // page group 1, granted to the app
constexpr cksim::PhysAddr kOtherFrame = 0x100000;  // page group 2, the other kernel's
constexpr cksim::PhysAddr kSrmFrame = 0x200000;  // page group 4, the first kernel's
constexpr cksim::VirtAddr kVaddr = 0x4000;

constexpr ObjectType kK = ObjectType::kKernel;
constexpr ObjectType kS = ObjectType::kSpace;
constexpr ObjectType kT = ObjectType::kThread;
constexpr ObjectType kM = ObjectType::kMapping;

uint32_t Index(ObjectType type) { return static_cast<uint32_t>(type); }

// Handlers that do nothing, so every cycle a row charges is the Cache
// Kernel's own.
class NullKernel : public ck::AppKernel {
 public:
  ck::HandlerAction HandleFault(const ck::FaultForward&, CkApi&) override {
    return ck::HandlerAction::kBlock;
  }
  ck::TrapAction HandleTrap(const ck::TrapForward&, CkApi&) override { return {}; }
  void OnMappingWriteback(const ck::MappingWriteback&, CkApi&) override {}
  void OnThreadWriteback(const ck::ThreadWriteback&, CkApi&) override {}
  void OnSpaceWriteback(const ck::SpaceWriteback&, CkApi&) override {}
  ck::PolicyTable* policy_table() override { return with_policy ? &policy : nullptr; }

  bool with_policy = false;
  ck::PolicyTable policy;
};

cksim::MachineConfig MachineOptions() {
  cksim::MachineConfig config;
  config.cpu_count = kCpus;
  config.memory_bytes = 4u << 20;
  return config;
}

ck::CacheKernelConfig KernelOptions() {
  ck::CacheKernelConfig config;
  config.kernel_slots = kSlots;
  config.space_slots = kSlots;
  config.thread_slots = kSlots;
  config.mapping_slots = kMappingSlots;
  config.page_table_arena_bytes = 64u << 10;
  return config;
}

ck::MappingSpec Map(ck::SpaceId space, cksim::VirtAddr vaddr, cksim::PhysAddr paddr,
                    bool locked = false, bool message = false) {
  ck::MappingSpec spec;
  spec.space = space;
  spec.vaddr = vaddr;
  spec.paddr = paddr;
  spec.flags.writable = true;
  spec.flags.message = message;
  spec.locked = locked;
  return spec;
}

ck::ThreadSpec Blocked(ck::SpaceId space, bool locked = false, uint8_t priority = 1) {
  ck::ThreadSpec spec;
  spec.space = space;
  spec.priority = priority;
  spec.locked = locked;
  spec.start_blocked = true;
  return spec;
}

// One machine: the first kernel, a locked application kernel with lock
// limits of 1 and page group 1, another kernel with page group 2, a space
// and a blocked thread each, and stale ids of every kind.
struct World {
  World() : machine(MachineOptions()), ck(machine, KernelOptions()) {
    srm_id = ck.BootFirstKernel(&srm, 0);
    app_id = Srm().LoadKernel(&app, 1, /*locked=*/true).value();
    other_id = Srm().LoadKernel(&other, 2).value();
    stale_kernel = Srm().LoadKernel(&gone, 3).value();
    Srm().UnloadKernel(stale_kernel);
    const uint8_t percent[ck::kMaxCpus] = {100, 100, 100, 100};
    const uint8_t limits[ck::kObjectTypeCount] = {1, 1, 1, 1};
    Srm().GrantPageGroups(app_id, 1, 1, ck::GroupAccess::kReadWrite);
    Srm().GrantPageGroups(other_id, 2, 1, ck::GroupAccess::kReadWrite);
    for (ck::KernelId id : {app_id, other_id}) {
      Srm().SetCpuQuota(id, percent, 20);
      Srm().SetLockLimits(id, limits);
    }
    space = App().LoadSpace(10).value();
    other_space = Other().LoadSpace(20).value();
    stale_space = App().LoadSpace(30).value();
    App().UnloadSpace(stale_space);
    thread = App().LoadThread(Blocked(space)).value();
    other_thread = Other().LoadThread(Blocked(other_space)).value();
    stale_thread = App().LoadThread(Blocked(space)).value();
    App().UnloadThread(stale_thread);
  }

  CkApi Srm() { return CkApi(ck, srm_id, machine.cpu(0)); }
  CkApi App() { return CkApi(ck, app_id, machine.cpu(0)); }
  CkApi Other() { return CkApi(ck, other_id, machine.cpu(0)); }
  CkApi Stale() { return CkApi(ck, stale_kernel, machine.cpu(0)); }

  // Replace the app's and the other kernel's unlocked objects of `type` by
  // locked ones of the first kernel until the cache is full, so that a load
  // finds no victim.
  void FillPinned(ObjectType type) {
    if (type == ObjectType::kKernel) {
      Srm().UnloadKernel(other_id);
      while (ck.loaded_count(type) < ck.capacity(type)) {
        Srm().LoadKernel(&spare, 9, /*locked=*/true);
      }
      return;
    }
    App().UnloadThread(thread);
    Other().UnloadThread(other_thread);
    if (type == ObjectType::kSpace) {
      App().UnloadSpace(space);
      Other().UnloadSpace(other_space);
      while (ck.loaded_count(type) < ck.capacity(type)) {
        Srm().LoadSpace(40, /*locked=*/true);
      }
      return;
    }
    ck::SpaceId pinned = Srm().LoadSpace(40, /*locked=*/true).value();
    for (uint32_t i = 0; ck.loaded_count(type) < ck.capacity(type); ++i) {
      if (type == ObjectType::kThread) {
        Srm().LoadThread(Blocked(pinned, /*locked=*/true));
      } else {
        Srm().LoadMapping(Map(pinned, i * cksim::kPageSize, kSrmFrame + i * cksim::kPageSize,
                              /*locked=*/true));
      }
    }
  }

  cksim::Machine machine;
  ck::CacheKernel ck;
  NullKernel srm, app, other, gone, spare;
  ck::KernelId srm_id, app_id, other_id, stale_kernel, extra_kernel;
  ck::SpaceId space, other_space, stale_space, extra_space;
  ck::ThreadId thread, other_thread, stale_thread;
};

using Cost = std::function<Cycles(const CostModel&)>;
using Delta = std::function<void(CkStats&)>;

struct Row {
  const char* name;
  CkStatus status;
  std::function<CkStatus(World&)> call;
  Cost cycles;
  Delta delta;
  std::function<void(World&)> setup = nullptr;
};

void PrintTo(const Row& row, std::ostream* os) { *os << row.name; }

// -- cycle formulas --
Cycles Gate(const CostModel& c) { return c.trap_entry + c.call_gate; }
Cycles GateExit(const CostModel& c) { return Gate(c) + c.trap_exit; }
const Cost kGate = Gate;
const Cost kGateExit = GateExit;
const Cost kNoTrap = [](const CostModel&) -> Cycles { return 0; };
// A table walk that finds no L2 table.
const Cost kWalkMiss = [](const CostModel& c) { return GateExit(c) + c.table_walk_level; };
// A walk to an existing leaf PTE.
const Cost kWalkHit = [](const CostModel& c) { return GateExit(c) + 2 * c.table_walk_level; };
// A first mapping in a space: both tables allocated, one pv record, one PTE.
Cycles LoadMappingOk(const CostModel& c) {
  return GateExit(c) + 2 * (c.table_walk_level + c.table_alloc + c.pte_write) + c.hash_op +
         c.pte_write;
}
Cycles UnloadMappingOk(const CostModel& c) {
  return GateExit(c) + 4 * c.table_walk_level + c.pte_write + kCpus * c.tlb_flush_entry +
         (kCpus - 1) * c.ipi + c.hash_op + c.writeback_record;
}
// The sender's translation on a TLB miss, then the PTE check.
Cycles SignalWalk(const CostModel& c) {
  return GateExit(c) + 3 * c.table_walk_level + c.pte_write + c.tlb_fill +
         2 * c.table_walk_level;
}
Cycles ThreadHalf(const CostModel& c) {
  return c.mem_word * (ck::CacheKernel::kThreadDescriptorBytes / 4 / 2);
}

// -- CkStats deltas --
const Delta kNone = [](CkStats&) {};
const Delta kStaleId = [](CkStats& s) { s.stale_id_errors++; };
Delta Loads(ObjectType t) {
  return [t](CkStats& s) { s.loads[Index(t)]++; };
}
Delta Unloads(ObjectType t) {
  return [t](CkStats& s) { s.explicit_unloads[Index(t)]++; };
}
// A refused load whose clock scan found every candidate pinned.
Delta NoRoom(ObjectType t, uint64_t scan_steps) {
  return [t, scan_steps](CkStats& s) {
    s.load_failures++;
    s.reclaim_scan_steps[Index(t)] += scan_steps;
  };
}

CkStatus Status(CkStatus s) { return s; }
template <typename T>
CkStatus Status(const ckbase::Result<T>& r) {
  return r.status();
}

// Wrap a call on one of the world's CkApi facades.
#define CALL(expr) [](World & w) { return Status(expr); }

const uint32_t kProgram[2] = {0, 0};
const uint8_t kPercent[ck::kMaxCpus] = {50, 50, 50, 50};
const uint8_t kLimits[ck::kObjectTypeCount] = {2, 2, 2, 2};

std::vector<Row> Rows() {
  auto map_app = [](World& w) { w.App().LoadMapping(Map(w.space, kVaddr, kAppFrame)); };
  return {
      // ---- address spaces ----
      {"LoadSpace_ok", CkStatus::kOk, CALL(w.App().LoadSpace(1)),
       [](const CostModel& c) {
         return GateExit(c) + c.descriptor_init + c.table_alloc +
                c.mem_word * (cksim::kL1TableBytes / 4);
       },
       Loads(kS)},
      {"LoadSpace_ok_locked", CkStatus::kOk, CALL(w.App().LoadSpace(1, true)),
       [](const CostModel& c) {
         return GateExit(c) + c.descriptor_init + c.table_alloc +
                c.mem_word * (cksim::kL1TableBytes / 4);
       },
       Loads(kS)},
      {"LoadSpace_stale_caller", CkStatus::kStale, CALL(w.Stale().LoadSpace(1)), kGate, kStaleId},
      {"LoadSpace_denied_lock_budget", CkStatus::kDenied, CALL(w.App().LoadSpace(1, true)), kGate,
       kNone, [](World& w) { w.App().LoadSpace(2, true); }},
      {"LoadSpace_no_resources", CkStatus::kNoResources, CALL(w.App().LoadSpace(1)), kGate,
       NoRoom(kS, kSlots), [](World& w) { w.FillPinned(ObjectType::kSpace); }},
      {"UnloadSpace_ok", CkStatus::kOk, CALL(w.App().UnloadSpace(w.extra_space)),
       [](const CostModel& c) {
         return GateExit(c) + kCpus * c.tlb_flush_asid + c.descriptor_init + c.writeback_record;
       },
       Unloads(kS), [](World& w) { w.extra_space = w.App().LoadSpace(5).value(); }},
      {"UnloadSpace_stale_caller", CkStatus::kStale, CALL(w.Stale().UnloadSpace(w.space)), kGate,
       kStaleId},
      {"UnloadSpace_stale_target", CkStatus::kStale, CALL(w.App().UnloadSpace(w.stale_space)),
       kGate, kStaleId},
      {"UnloadSpace_denied", CkStatus::kDenied, CALL(w.App().UnloadSpace(w.other_space)), kGate,
       kNone},

      // ---- threads ----
      {"LoadThread_ok", CkStatus::kOk, CALL(w.App().LoadThread(Blocked(w.space))),
       [](const CostModel& c) {
         return GateExit(c) + c.descriptor_init + c.context_restore + c.list_op + ThreadHalf(c);
       },
       Loads(kT)},
      {"LoadThread_stale_caller", CkStatus::kStale, CALL(w.Stale().LoadThread(Blocked(w.space))),
       kGate, kStaleId},
      {"LoadThread_stale_target", CkStatus::kStale,
       CALL(w.App().LoadThread(Blocked(w.stale_space))), kGate, kStaleId},
      {"LoadThread_denied_space", CkStatus::kDenied,
       CALL(w.App().LoadThread(Blocked(w.other_space))), kGate, kNone},
      {"LoadThread_denied_priority", CkStatus::kDenied,
       CALL(w.App().LoadThread(Blocked(w.space, false, 25))), kGate, kNone},
      {"LoadThread_denied_lock_budget", CkStatus::kDenied,
       CALL(w.App().LoadThread(Blocked(w.space, true))), kGate, kNone,
       [](World& w) { w.App().LoadThread(Blocked(w.space, true)); }},
      {"LoadThread_no_resources", CkStatus::kNoResources,
       CALL(w.App().LoadThread(Blocked(w.space))), kGate, NoRoom(kT, 3 * kSlots),
       [](World& w) { w.FillPinned(ObjectType::kThread); }},
      {"UnloadThread_ok", CkStatus::kOk, CALL(w.App().UnloadThread(w.thread)),
       [](const CostModel& c) {
         return GateExit(c) + c.context_save + c.list_op + c.writeback_record + ThreadHalf(c);
       },
       Unloads(kT)},
      {"UnloadThread_stale_caller", CkStatus::kStale, CALL(w.Stale().UnloadThread(w.thread)),
       kGate, kStaleId},
      {"UnloadThread_stale_target", CkStatus::kStale, CALL(w.App().UnloadThread(w.stale_thread)),
       kGate, kStaleId},
      {"UnloadThread_denied", CkStatus::kDenied, CALL(w.App().UnloadThread(w.other_thread)),
       kGate, kNone},
      {"SetThreadPriority_ok", CkStatus::kOk, CALL(w.App().SetThreadPriority(w.thread, 5)),
       [](const CostModel& c) { return GateExit(c) + 2 * c.list_op; }, kNone},
      {"SetThreadPriority_stale_caller", CkStatus::kStale,
       CALL(w.Stale().SetThreadPriority(w.thread, 5)), kGate, kStaleId},
      {"SetThreadPriority_stale_target", CkStatus::kStale,
       CALL(w.App().SetThreadPriority(w.stale_thread, 5)), kGate, kStaleId},
      {"SetThreadPriority_denied_thread", CkStatus::kDenied,
       CALL(w.App().SetThreadPriority(w.other_thread, 5)), kGate, kNone},
      {"SetThreadPriority_denied_priority", CkStatus::kDenied,
       CALL(w.App().SetThreadPriority(w.thread, 25)), kGate, kNone},
      {"BlockThread_ok", CkStatus::kOk, CALL(w.App().BlockThread(w.thread)),
       [](const CostModel& c) { return GateExit(c) + c.list_op; }, kNone},
      {"BlockThread_stale_caller", CkStatus::kStale, CALL(w.Stale().BlockThread(w.thread)), kGate,
       kStaleId},
      {"BlockThread_stale_target", CkStatus::kStale, CALL(w.App().BlockThread(w.stale_thread)),
       kGate, kStaleId},
      {"BlockThread_denied", CkStatus::kDenied, CALL(w.App().BlockThread(w.other_thread)), kGate,
       kNone},
      {"ResumeThread_ok", CkStatus::kOk, CALL(w.App().ResumeThread(w.thread)),
       [](const CostModel& c) { return GateExit(c) + c.list_op; }, kNone},
      {"ResumeThread_stale_caller", CkStatus::kStale, CALL(w.Stale().ResumeThread(w.thread)),
       kGate, kStaleId},
      {"ResumeThread_stale_target", CkStatus::kStale, CALL(w.App().ResumeThread(w.stale_thread)),
       kGate, kStaleId},
      {"ResumeThread_denied", CkStatus::kDenied, CALL(w.App().ResumeThread(w.other_thread)),
       kGate, kNone},
      {"ResumeThread_busy", CkStatus::kBusy, CALL(w.App().ResumeThread(w.thread)), kGate, kNone,
       [](World& w) { w.App().ResumeThread(w.thread); }},
      {"RedirectThread_ok", CkStatus::kOk, CALL(w.App().RedirectThread(w.thread, 0x1000, 7)),
       kGateExit, kNone},
      {"RedirectThread_stale_caller", CkStatus::kStale,
       CALL(w.Stale().RedirectThread(w.thread, 0x1000, 7)), kGate, kStaleId},
      {"RedirectThread_stale_target", CkStatus::kStale,
       CALL(w.App().RedirectThread(w.stale_thread, 0x1000, 7)), kGate, kStaleId},
      {"RedirectThread_denied", CkStatus::kDenied,
       CALL(w.App().RedirectThread(w.other_thread, 0x1000, 7)), kGate, kNone},

      // ---- page mappings ----
      {"LoadMapping_ok", CkStatus::kOk, CALL(w.App().LoadMapping(Map(w.space, kVaddr, kAppFrame))),
       LoadMappingOk, Loads(kM)},
      {"LoadMapping_stale_caller", CkStatus::kStale,
       CALL(w.Stale().LoadMapping(Map(w.space, kVaddr, kAppFrame))), kGateExit, kStaleId},
      {"LoadMapping_stale_target", CkStatus::kStale,
       CALL(w.App().LoadMapping(Map(w.stale_space, kVaddr, kAppFrame))), kGateExit, kStaleId},
      {"LoadMapping_stale_signal_thread", CkStatus::kStale,
       [](World& w) {
         ck::MappingSpec spec = Map(w.space, kVaddr, kAppFrame);
         spec.signal_thread = w.stale_thread;
         return w.App().LoadMapping(spec);
       },
       kGateExit, kStaleId},
      {"LoadMapping_denied_space", CkStatus::kDenied,
       CALL(w.App().LoadMapping(Map(w.other_space, kVaddr, kAppFrame))), kGateExit, kNone},
      {"LoadMapping_denied_frame", CkStatus::kDenied,
       CALL(w.App().LoadMapping(Map(w.space, kVaddr, kOtherFrame))), kGateExit, kNone},
      {"LoadMapping_denied_signal_thread", CkStatus::kDenied,
       [](World& w) {
         ck::MappingSpec spec = Map(w.space, kVaddr, kAppFrame);
         spec.signal_thread = w.other_thread;
         return w.App().LoadMapping(spec);
       },
       kGateExit, kNone},
      {"LoadMapping_denied_lock_budget", CkStatus::kDenied,
       CALL(w.App().LoadMapping(Map(w.space, kVaddr, kAppFrame, true))), kGateExit, kNone,
       [](World& w) {
         w.App().LoadMapping(Map(w.space, kVaddr + cksim::kPageSize, kAppFrame, true));
       }},
      {"LoadMapping_invalid", CkStatus::kInvalidArgument,
       CALL(w.App().LoadMapping(Map(w.space, kVaddr + 4, kAppFrame))), kGateExit, kNone},
      {"LoadMapping_no_resources", CkStatus::kNoResources,
       CALL(w.App().LoadMapping(Map(w.space, kVaddr, kAppFrame))),
       [](const CostModel& c) {
         return GateExit(c) + 2 * (c.table_walk_level + c.table_alloc + c.pte_write);
       },
       NoRoom(kM, kMappingSlots), [](World& w) { w.FillPinned(ObjectType::kMapping); }},
      {"LoadMappingAndResume_ok", CkStatus::kOk,
       CALL(w.App().LoadMappingAndResume(Map(w.space, kVaddr, kAppFrame), w.thread)),
       [](const CostModel& c) { return LoadMappingOk(c) + c.context_restore; }, Loads(kM)},
      {"LoadMappingAndResume_stale_caller", CkStatus::kStale,
       CALL(w.Stale().LoadMappingAndResume(Map(w.space, kVaddr, kAppFrame), w.thread)),
       kGateExit, kStaleId},
      {"LoadMappingAndResume_stale_target", CkStatus::kStale,
       CALL(w.App().LoadMappingAndResume(Map(w.space, kVaddr, kAppFrame), w.stale_thread)),
       LoadMappingOk,
       [](CkStats& s) {
         s.loads[Index(ObjectType::kMapping)]++;
         s.stale_id_errors++;
       }},
      {"LoadMappingAndResume_denied", CkStatus::kDenied,
       CALL(w.App().LoadMappingAndResume(Map(w.other_space, kVaddr, kAppFrame), w.thread)),
       kGateExit, kNone},
      // The mapping loads, but another kernel's thread stays blocked.
      {"LoadMappingAndResume_denied_thread", CkStatus::kDenied,
       [](World& w) {
         CkStatus s =
             w.App().LoadMappingAndResume(Map(w.space, kVaddr, kAppFrame), w.other_thread);
         EXPECT_EQ(w.ck.GetThreadState(w.other_thread).value(), ck::ThreadState::kBlocked);
         return s;
       },
       LoadMappingOk, Loads(kM)},
      {"UnloadMapping_ok", CkStatus::kOk, CALL(w.App().UnloadMapping(w.space, kVaddr)),
       UnloadMappingOk, Unloads(kM), map_app},
      {"UnloadMapping_stale_caller", CkStatus::kStale,
       CALL(w.Stale().UnloadMapping(w.space, kVaddr)), kGateExit, kStaleId},
      {"UnloadMapping_stale_target", CkStatus::kStale,
       CALL(w.App().UnloadMapping(w.stale_space, kVaddr)), kGateExit, kStaleId},
      {"UnloadMapping_denied", CkStatus::kDenied,
       CALL(w.App().UnloadMapping(w.other_space, kVaddr)), kGateExit, kNone},
      {"UnloadMapping_not_found", CkStatus::kNotFound,
       CALL(w.App().UnloadMapping(w.space, kVaddr)), kWalkMiss, kNone},
      {"UnloadMappingRange_ok", CkStatus::kOk,
       CALL(w.App().UnloadMappingRange(w.space, kVaddr, 2)),
       [](const CostModel& c) { return UnloadMappingOk(c) + kWalkHit(c); }, Unloads(kM), map_app},
      {"UnloadMappingRange_stale_caller", CkStatus::kStale,
       CALL(w.Stale().UnloadMappingRange(w.space, kVaddr, 2)), kGateExit, kStaleId},
      {"UnloadMappingRange_stale_target", CkStatus::kStale,
       CALL(w.App().UnloadMappingRange(w.stale_space, kVaddr, 2)), kGateExit, kStaleId},
      {"UnloadMappingRange_denied", CkStatus::kDenied,
       CALL(w.App().UnloadMappingRange(w.other_space, kVaddr, 2)), kGateExit, kNone},
      {"UnloadMappingRange_not_found", CkStatus::kNotFound,
       CALL(w.App().UnloadMappingRange(w.space, kVaddr, 2)),
       [](const CostModel& c) { return 2 * kWalkMiss(c); }, kNone},
      {"QueryMapping_ok", CkStatus::kOk, CALL(w.App().QueryMapping(w.space, kVaddr)), kWalkHit,
       kNone, map_app},
      {"QueryMapping_stale_caller", CkStatus::kStale,
       CALL(w.Stale().QueryMapping(w.space, kVaddr)), kGate, kStaleId},
      {"QueryMapping_stale_target", CkStatus::kStale,
       CALL(w.App().QueryMapping(w.stale_space, kVaddr)), kGate, kStaleId},
      {"QueryMapping_denied", CkStatus::kDenied, CALL(w.App().QueryMapping(w.other_space, kVaddr)),
       kGate, kNone},
      {"QueryMapping_not_found", CkStatus::kNotFound, CALL(w.App().QueryMapping(w.space, kVaddr)),
       kWalkMiss, kNone},
      {"LockMapping_ok_lock", CkStatus::kOk, CALL(w.App().LockMapping(w.space, kVaddr, true)),
       kWalkHit, kNone, map_app},
      {"LockMapping_ok_unlock", CkStatus::kOk, CALL(w.App().LockMapping(w.space, kVaddr, false)),
       kWalkHit, kNone,
       [](World& w) { w.App().LoadMapping(Map(w.space, kVaddr, kAppFrame, true)); }},
      {"LockMapping_stale_caller", CkStatus::kStale,
       CALL(w.Stale().LockMapping(w.space, kVaddr, true)), kGateExit, kStaleId},
      {"LockMapping_stale_target", CkStatus::kStale,
       CALL(w.App().LockMapping(w.stale_space, kVaddr, true)), kGateExit, kStaleId},
      {"LockMapping_denied_space", CkStatus::kDenied,
       CALL(w.App().LockMapping(w.other_space, kVaddr, true)), kGateExit, kNone},
      {"LockMapping_denied_lock_budget", CkStatus::kDenied,
       CALL(w.App().LockMapping(w.space, kVaddr, true)), kWalkHit, kNone,
       [](World& w) {
         w.App().LoadMapping(Map(w.space, kVaddr + cksim::kPageSize, kAppFrame, true));
         w.App().LoadMapping(Map(w.space, kVaddr, kAppFrame));
       }},
      {"LockMapping_not_found", CkStatus::kNotFound,
       CALL(w.App().LockMapping(w.space, kVaddr, true)), kWalkMiss, kNone},

      // ---- guest replacement policy ----
      {"LoadPolicy_ok", CkStatus::kOk, CALL(w.App().LoadPolicy(kM, kProgram, 2)),
       [](const CostModel& c) { return GateExit(c) + c.app_policy_lookup + 2 * c.mem_word; },
       kNone, [](World& w) { w.app.with_policy = true; }},
      {"LoadPolicy_stale_caller", CkStatus::kStale, CALL(w.Stale().LoadPolicy(kM, kProgram, 2)),
       kGate, kStaleId},
      {"LoadPolicy_invalid", CkStatus::kInvalidArgument, CALL(w.App().LoadPolicy(kM, kProgram, 0)),
       kGate, kNone},
      {"LoadPolicy_denied", CkStatus::kDenied, CALL(w.App().LoadPolicy(kM, kProgram, 2)), kGate,
       kNone},
      {"ClearPolicy_ok", CkStatus::kOk, CALL(w.App().ClearPolicy(kM)), kGateExit, kNone},
      {"ClearPolicy_stale_caller", CkStatus::kStale, CALL(w.Stale().ClearPolicy(kM)), kGate,
       kStaleId},

      // ---- memory-based messaging ----
      {"Signal_ok", CkStatus::kOk, CALL(w.App().Signal(w.space, kVaddr)), SignalWalk, kNone,
       [](World& w) { w.App().LoadMapping(Map(w.space, kVaddr, kAppFrame, false, true)); }},
      {"Signal_stale_caller", CkStatus::kStale, CALL(w.Stale().Signal(w.space, kVaddr)),
       kGateExit, kStaleId},
      {"Signal_stale_target", CkStatus::kStale, CALL(w.App().Signal(w.stale_space, kVaddr)),
       kGateExit, kStaleId},
      {"Signal_denied", CkStatus::kDenied, CALL(w.App().Signal(w.other_space, kVaddr)), kGateExit,
       kNone},
      {"Signal_not_found", CkStatus::kNotFound, CALL(w.App().Signal(w.space, kVaddr)), kWalkMiss,
       kNone},
      {"Signal_invalid", CkStatus::kInvalidArgument, CALL(w.App().Signal(w.space, kVaddr)),
       SignalWalk, kNone, map_app},

      // ---- page contents ----
      {"CopyPage_ok", CkStatus::kOk, CALL(w.App().CopyPage(kAppFrame + 0x1000, kAppFrame)),
       [](const CostModel& c) {
         return GateExit(c) + c.cache_line_fill * (cksim::kPageSize / 32);
       },
       kNone},
      {"CopyPage_stale_caller", CkStatus::kStale,
       CALL(w.Stale().CopyPage(kAppFrame + 0x1000, kAppFrame)), kGate, kStaleId},
      {"CopyPage_denied", CkStatus::kDenied, CALL(w.App().CopyPage(kOtherFrame, kAppFrame)),
       kGate, kNone},
      {"ZeroPage_ok", CkStatus::kOk, CALL(w.App().ZeroPage(kAppFrame)),
       [](const CostModel& c) { return GateExit(c) + c.mem_word * (cksim::kPageSize / 8); },
       kNone},
      {"ZeroPage_stale_caller", CkStatus::kStale, CALL(w.Stale().ZeroPage(kAppFrame)), kGate,
       kStaleId},
      {"ZeroPage_denied", CkStatus::kDenied, CALL(w.App().ZeroPage(kOtherFrame)), kGate, kNone},
      {"WritePhys_ok", CkStatus::kOk, CALL(w.App().WritePhys(kAppFrame, kProgram, 8)),
       [](const CostModel& c) { return 2 * c.mem_word; }, kNone},
      {"WritePhys_stale_caller", CkStatus::kStale, CALL(w.Stale().WritePhys(kAppFrame, kProgram, 8)),
       kNoTrap, kStaleId},
      {"WritePhys_denied", CkStatus::kDenied, CALL(w.App().WritePhys(kOtherFrame, kProgram, 8)),
       kNoTrap, kNone},
      {"ReadPhys_ok", CkStatus::kOk,
       [](World& w) {
         uint32_t out[2];
         return w.App().ReadPhys(kAppFrame, out, 8);
       },
       [](const CostModel& c) { return 2 * c.mem_word; }, kNone},
      {"ReadPhys_stale_caller", CkStatus::kStale,
       [](World& w) {
         uint32_t out[2];
         return w.Stale().ReadPhys(kAppFrame, out, 8);
       },
       kNoTrap, kStaleId},
      {"ReadPhys_denied", CkStatus::kDenied,
       [](World& w) {
         uint32_t out[2];
         return w.App().ReadPhys(kOtherFrame, out, 8);
       },
       kNoTrap, kNone},

      // ---- kernel objects (the first kernel's calls) ----
      {"LoadKernel_ok", CkStatus::kOk, CALL(w.Srm().LoadKernel(&w.spare, 9)),
       [](const CostModel& c) {
         return GateExit(c) + c.descriptor_init + c.mem_word * (cksim::kAccessArrayBytes / 4);
       },
       Loads(kK)},
      {"LoadKernel_ok_locked", CkStatus::kOk, CALL(w.Srm().LoadKernel(&w.spare, 9, true)),
       [](const CostModel& c) {
         return GateExit(c) + c.descriptor_init + c.mem_word * (cksim::kAccessArrayBytes / 4);
       },
       Loads(kK)},
      {"LoadKernel_stale_caller", CkStatus::kStale, CALL(w.Stale().LoadKernel(&w.spare, 9)),
       kGate, kStaleId},
      {"LoadKernel_denied_caller", CkStatus::kDenied, CALL(w.App().LoadKernel(&w.spare, 9)),
       kGate, kNone},
      {"LoadKernel_denied_handlers", CkStatus::kDenied, CALL(w.Srm().LoadKernel(nullptr, 9)),
       kGate, kNone},
      {"LoadKernel_denied_lock_budget", CkStatus::kDenied,
       CALL(w.Srm().LoadKernel(&w.spare, 9, true)), kGate, kNone,
       [](World& w) {
         const uint8_t one[ck::kObjectTypeCount] = {1, 255, 255, 255};
         w.Srm().SetLockLimits(w.srm_id, one);  // the locked app kernel holds it
       }},
      {"LoadKernel_no_resources", CkStatus::kNoResources, CALL(w.Srm().LoadKernel(&w.spare, 9)),
       kGate, NoRoom(kK, kSlots), [](World& w) { w.FillPinned(ObjectType::kKernel); }},
      {"UnloadKernel_ok", CkStatus::kOk, CALL(w.Srm().UnloadKernel(w.extra_kernel)),
       [](const CostModel& c) { return GateExit(c) + c.descriptor_init + c.writeback_record; },
       Unloads(kK), [](World& w) { w.extra_kernel = w.Srm().LoadKernel(&w.spare, 9).value(); }},
      {"UnloadKernel_stale_caller", CkStatus::kStale, CALL(w.Stale().UnloadKernel(w.other_id)),
       kGate, kStaleId},
      {"UnloadKernel_stale_target", CkStatus::kStale,
       CALL(w.Srm().UnloadKernel(w.stale_kernel)), kGate, kStaleId},
      {"UnloadKernel_denied_caller", CkStatus::kDenied, CALL(w.App().UnloadKernel(w.other_id)),
       kGate, kNone},
      {"UnloadKernel_denied_first_kernel", CkStatus::kDenied,
       CALL(w.Srm().UnloadKernel(w.srm_id)), kGate, kNone},
      {"GrantPageGroups_ok", CkStatus::kOk,
       CALL(w.Srm().GrantPageGroups(w.app_id, 3, 1, ck::GroupAccess::kReadWrite)),
       [](const CostModel& c) { return GateExit(c) + c.mem_word; }, kNone},
      // The first-kernel check comes before any id resolves: a stale caller
      // is simply not the first kernel.
      {"GrantPageGroups_stale_caller", CkStatus::kDenied,
       CALL(w.Stale().GrantPageGroups(w.app_id, 3, 1, ck::GroupAccess::kReadWrite)), kGate,
       kNone},
      {"GrantPageGroups_stale_target", CkStatus::kStale,
       CALL(w.Srm().GrantPageGroups(w.stale_kernel, 3, 1, ck::GroupAccess::kReadWrite)), kGate,
       kStaleId},
      {"GrantPageGroups_denied", CkStatus::kDenied,
       CALL(w.App().GrantPageGroups(w.app_id, 3, 1, ck::GroupAccess::kReadWrite)), kGate, kNone},
      {"SetCpuQuota_ok", CkStatus::kOk, CALL(w.Srm().SetCpuQuota(w.app_id, kPercent, 10)),
       [](const CostModel& c) { return GateExit(c) + c.descriptor_init; }, kNone},
      {"SetCpuQuota_stale_target", CkStatus::kStale,
       CALL(w.Srm().SetCpuQuota(w.stale_kernel, kPercent, 10)), kGate, kStaleId},
      {"SetCpuQuota_denied", CkStatus::kDenied, CALL(w.App().SetCpuQuota(w.app_id, kPercent, 10)),
       kGate, kNone},
      {"SetCpuQuota_invalid", CkStatus::kInvalidArgument,
       CALL(w.Srm().SetCpuQuota(w.app_id, kPercent, ck::kPriorityLevels)), kGate, kNone},
      {"SetLockLimits_ok", CkStatus::kOk, CALL(w.Srm().SetLockLimits(w.app_id, kLimits)),
       [](const CostModel& c) { return GateExit(c) + c.descriptor_init; }, kNone},
      {"SetLockLimits_stale_target", CkStatus::kStale,
       CALL(w.Srm().SetLockLimits(w.stale_kernel, kLimits)), kGate, kStaleId},
      {"SetLockLimits_denied", CkStatus::kDenied, CALL(w.App().SetLockLimits(w.app_id, kLimits)),
       kGate, kNone},
      // The app kernel holds a locked space: a space limit of 0 is refused
      // and the invariants stay clean.
      {"SetLockLimits_below_held", CkStatus::kInvalidArgument,
       [](World& w) {
         const uint8_t zero[ck::kObjectTypeCount] = {0, 0, 0, 0};
         return w.Srm().SetLockLimits(w.app_id, zero);
       },
       kGate, kNone, [](World& w) { w.App().LoadSpace(2, true); }},
  };
}

#undef CALL

class GateTest : public ::testing::TestWithParam<Row> {};

TEST_P(GateTest, ChargesAndCounts) {
  const Row& row = GetParam();
  World w;
  if (row.setup) {
    row.setup(w);
  }
  cksim::Cpu& cpu = w.machine.cpu(0);
  CkStats expected = w.ck.stats();
  row.delta(expected);
  Cycles before = cpu.clock();
  EXPECT_EQ(row.call(w), row.status);
  EXPECT_EQ(cpu.clock() - before, row.cycles(w.machine.cost()));
  // CkStats is all uint64_t counters: compare it word by word.
  constexpr size_t kStatWords = sizeof(CkStats) / sizeof(uint64_t);
  uint64_t want[kStatWords];
  uint64_t got[kStatWords];
  std::memcpy(want, &expected, sizeof(want));
  std::memcpy(got, &w.ck.stats(), sizeof(got));
  for (size_t i = 0; i < kStatWords; ++i) {
    EXPECT_EQ(got[i], want[i]) << "CkStats word " << i;
  }
  std::vector<std::string> violations = w.ck.ValidateInvariants();
  EXPECT_TRUE(violations.empty()) << violations.front();
}

INSTANTIATE_TEST_SUITE_P(CkApi, GateTest, ::testing::ValuesIn(Rows()),
                         [](const ::testing::TestParamInfo<Row>& p) { return p.param.name; });

}  // namespace
