// Differential suite for the guest-execution fast path.
//
// Every workload here runs twice -- once with the fast path (superblock
// traces with batched cycle accounting) and once with
// CacheKernelConfig::fastpath off (every instruction through the virtual
// GuestBus, charged immediately) -- and ALL simulated state must be
// bit-identical: CPU clocks, machine time, TLB hit/miss counters, kernel
// statistics, fault and signal counts, and final guest register state. This
// is the cycle-exactness invariant of docs/PERFORMANCE.md, enforced.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/isa/assembler.h"
#include "src/unixemu/unix_emulator.h"
#include "tests/random_program.h"
#include "tests/test_harness.h"

namespace {

using ckbase::CkStatus;
using cktest::TestWorld;
using cktest::WorldOptions;

ckisa::Program MustAssemble(const char* source, uint32_t base) {
  ckisa::AssembleResult result = ckisa::Assemble(source, base);
  EXPECT_TRUE(result.ok) << result.error;
  return result.program;
}

// Everything a run is judged by: named simulated-state observables, in a
// deterministic order so two runs can be compared entry by entry.
struct Snapshot {
  std::vector<std::pair<std::string, uint64_t>> values;

  void Add(const std::string& name, uint64_t value) { values.emplace_back(name, value); }
};

void CaptureMachineState(Snapshot& s, TestWorld& world) {
  s.Add("machine.now", world.machine().Now());
  for (uint32_t c = 0; c < world.machine().cpu_count(); ++c) {
    cksim::Cpu& cpu = world.machine().cpu(c);
    std::string prefix = "cpu" + std::to_string(c) + ".";
    s.Add(prefix + "clock", cpu.clock());
    s.Add(prefix + "busy", cpu.busy_cycles);
    s.Add(prefix + "tlb_hits", cpu.mmu().tlb().hits());
    s.Add(prefix + "tlb_misses", cpu.mmu().tlb().misses());
  }
  const ck::CkStats& st = world.ck().stats();
  s.Add("ck.faults_forwarded", st.faults_forwarded);
  s.Add("ck.traps_forwarded", st.traps_forwarded);
  s.Add("ck.consistency_faults", st.consistency_faults);
  s.Add("ck.guest_instructions", st.guest_instructions);
  s.Add("ck.context_switches", st.context_switches);
  s.Add("ck.preemptions", st.preemptions);
  s.Add("ck.idle_turns", st.idle_turns);
  s.Add("ck.quota_degradations", st.quota_degradations);
  s.Add("ck.signals_fast", st.signals_delivered_fast);
  s.Add("ck.signals_slow", st.signals_delivered_slow);
  s.Add("ck.signals_queued", st.signals_queued);
  s.Add("ck.signals_dropped", st.signals_dropped);
  s.Add("ck.load_failures", st.load_failures);
  for (uint32_t t = 0; t < ck::kObjectTypeCount; ++t) {
    s.Add("ck.loads." + std::to_string(t), st.loads[t]);
    s.Add("ck.writebacks." + std::to_string(t), st.writebacks[t]);
  }
  s.Add("ck.invariant_violations", world.ck().ValidateInvariants().size());
}

void CaptureRegs(Snapshot& s, const ckapp::ThreadRec& rec, const std::string& prefix) {
  for (int r = 0; r < 32; ++r) {
    s.Add(prefix + ".r" + std::to_string(r), rec.saved.regs[r]);
  }
  s.Add(prefix + ".pc", rec.saved.pc);
}

// Assert two runs observed exactly the same simulated history.
void ExpectIdentical(const Snapshot& fast, const Snapshot& slow) {
  ASSERT_EQ(fast.values.size(), slow.values.size());
  for (size_t i = 0; i < fast.values.size(); ++i) {
    ASSERT_EQ(fast.values[i].first, slow.values[i].first) << "snapshot shape differs";
    EXPECT_EQ(fast.values[i].second, slow.values[i].second)
        << "fast/slow divergence at " << fast.values[i].first;
  }
}

WorldOptions Options(bool fastpath) {
  WorldOptions options;
  options.ck.fastpath = fastpath;
  return options;
}

// Plain app kernel that answers trap 16 with 123 and terminates on others.
class TrapAppKernel : public ckapp::AppKernelBase {
 public:
  TrapAppKernel() : ckapp::AppKernelBase("fp-app", 512) {}

  ck::TrapAction HandleTrap(const ck::TrapForward& trap, ck::CkApi& api) override {
    (void)api;
    ck::TrapAction action;
    if (trap.number == 16) {
      action.has_return_value = true;
      action.return_value = 123;
    } else {
      action.action = ck::HandlerAction::kTerminate;
    }
    return action;
  }
};

// ---------------------------------------------------------------------------
// Workload 1: demand paging + arithmetic + trap forwarding.
// ---------------------------------------------------------------------------

Snapshot RunDemandPaging(bool fastpath) {
  TestWorld world(Options(fastpath));
  TrapAppKernel app;
  world.Launch(app);
  ck::CkApi api(world.ck(), app.self(), world.machine().cpu(0));

  uint32_t space = app.CreateSpace(api);
  ckisa::Program program = MustAssemble(R"(
      addi t0, r0, 0
      addi t1, r0, 1
      li   t2, 2000
      li   t3, 0x00f00000
    loop:
      add  t0, t0, t1
      addi t1, t1, 1
      sw   t0, 0(t3)
      lw   t4, 0(t3)
      bge  t2, t1, loop
      mv   s0, t4
      trap 16
      mv   s1, a0
      halt
  )", 0x10000);
  app.LoadProgramImage(space, program, /*writable=*/false);
  app.DefineZeroRegion(space, 0x00f00000, 8, /*writable=*/true);

  ckapp::GuestThreadParams params;
  params.space_index = space;
  params.entry = 0x10000;
  uint32_t thread = app.CreateGuestThread(api, params);
  EXPECT_TRUE(world.RunUntil([&] { return app.thread(thread).finished; }, 2000000));

  Snapshot s;
  CaptureMachineState(s, world);
  CaptureRegs(s, app.thread(thread), "t0");
  return s;
}

TEST(FastPathDifferential, DemandPagingAndTraps) {
  ExpectIdentical(RunDemandPaging(true), RunDemandPaging(false));
}

// ---------------------------------------------------------------------------
// Workload 2: fault storm -- a tiny frame grant forces continuous eviction,
// page-out and re-fault while the guest dirties 200 pages.
// ---------------------------------------------------------------------------

Snapshot RunFaultStorm(bool fastpath) {
  TestWorld world(Options(fastpath));
  TrapAppKernel app;
  cksrm::LaunchParams launch;
  launch.page_groups = 1;  // 128 frames for 200 dirty pages
  EXPECT_TRUE(world.srm().Launch(app, launch).ok());
  ck::CkApi api(world.ck(), app.self(), world.machine().cpu(0));

  uint32_t space = app.CreateSpace(api);
  ckisa::Program program = MustAssemble(R"(
      li   t0, 0x00400000
      addi t1, r0, 200
      li   t3, 4096
    loop:
      sw   t1, 0(t0)
      lw   t4, 0(t0)
      add  t0, t0, t3
      addi t1, t1, -1
      bne  t1, r0, loop
      mv   s0, t4
      halt
  )", 0x10000);
  app.LoadProgramImage(space, program, /*writable=*/false);
  app.DefineZeroRegion(space, 0x00400000, 256, /*writable=*/true);

  ckapp::GuestThreadParams params;
  params.space_index = space;
  params.entry = 0x10000;
  uint32_t thread = app.CreateGuestThread(api, params);
  EXPECT_TRUE(world.RunUntil([&] { return app.thread(thread).finished; }, 3000000));
  EXPECT_GE(app.paging_stats().evictions, 50u);

  Snapshot s;
  CaptureMachineState(s, world);
  CaptureRegs(s, app.thread(thread), "t0");
  s.Add("paging.faults", app.paging_stats().faults);
  s.Add("paging.evictions", app.paging_stats().evictions);
  s.Add("paging.pages_out", app.paging_stats().pages_out);
  return s;
}

TEST(FastPathDifferential, FaultStorm) {
  ExpectIdentical(RunFaultStorm(true), RunFaultStorm(false));
}

// ---------------------------------------------------------------------------
// Workload 3: guest-to-guest memory-based messaging -- sender writes and
// signals, receiver takes the signal in a handler and signal-returns.
// ---------------------------------------------------------------------------

Snapshot RunMessaging(bool fastpath) {
  TestWorld world(Options(fastpath));
  TrapAppKernel app;
  world.Launch(app);
  ck::CkApi api(world.ck(), app.self(), world.machine().cpu(0));

  uint32_t space = app.CreateSpace(api);
  cksim::PhysAddr frame = app.frames().Allocate();
  EXPECT_NE(frame, 0u);

  // Receiver: awaits a signal, handler records the address, then halts.
  ckisa::Program receiver_prog = MustAssemble(R"(
      li   t0, 0x00a00000
    wait:
      trap 3
      lw   t1, 0(t0)
      beq  t1, r0, wait
      mv   s0, t1
      halt
    handler:
      li   t2, 0x00a00000
      sw   a0, 0(t2)
      trap 1
  )", 0x10000);
  app.LoadProgramImage(space, receiver_prog, /*writable=*/false);
  app.DefineZeroRegion(space, 0x00a00000, 1, /*writable=*/true);
  app.DefineFrameRegion(space, 0x00900000, 1, frame, /*writable=*/false, /*message=*/true,
                        ckapp::kNoThread);

  ckapp::GuestThreadParams rparams;
  rparams.space_index = space;
  rparams.entry = 0x10000;
  rparams.signal_handler = receiver_prog.labels.at("handler");
  uint32_t receiver = app.CreateGuestThread(api, rparams);
  app.space(space).FindPage(0x00900000)->signal_thread = receiver;
  EXPECT_EQ(app.EnsureMappingLoaded(api, space, 0x00900000), CkStatus::kOk);

  // Sender view of the same frame, writable + message mode.
  app.DefineFrameRegion(space, 0x00800000, 1, frame, /*writable=*/true, /*message=*/true);

  // Let the receiver reach its await before the sender starts.
  EXPECT_TRUE(world.RunUntil([&] {
    ckbase::Result<ck::ThreadState> state = world.ck().GetThreadState(app.thread(receiver).ck_id);
    return state.ok() && state.value() == ck::ThreadState::kBlocked;
  }, 500000));

  // Sender: write the payload into the message page, then signal it.
  ckisa::Program sender_prog = MustAssemble(R"(
      li   t0, 0x00800000
      li   t1, 0xc0ffee
      sw   t1, 32(t0)
      addi a0, t0, 32
      trap 2
      halt
  )", 0x20000);
  app.LoadProgramImage(space, sender_prog, /*writable=*/false);
  ckapp::GuestThreadParams sparams;
  sparams.space_index = space;
  sparams.entry = 0x20000;
  uint32_t sender = app.CreateGuestThread(api, sparams);

  EXPECT_TRUE(world.RunUntil(
      [&] { return app.thread(sender).finished && app.thread(receiver).finished; }, 1000000));

  Snapshot s;
  CaptureMachineState(s, world);
  CaptureRegs(s, app.thread(receiver), "recv");
  CaptureRegs(s, app.thread(sender), "send");
  return s;
}

TEST(FastPathDifferential, GuestMessaging) {
  ExpectIdentical(RunMessaging(true), RunMessaging(false));
}

// ---------------------------------------------------------------------------
// Workload 4: the UNIX emulator -- exec, syscalls, exit, with the emulator's
// own scheduler threads running alongside.
// ---------------------------------------------------------------------------

Snapshot RunUnixEmu(bool fastpath) {
  TestWorld world(Options(fastpath));
  ckunix::UnixEmulator emulator(world.ck(), ckunix::UnixConfig());
  cksrm::LaunchParams launch;
  launch.page_groups = 8;
  launch.max_priority = 31;
  launch.locked_kernel_object = true;
  EXPECT_TRUE(world.srm().Launch(emulator, launch).ok());
  ck::CkApi api(world.ck(), emulator.self(), world.machine().cpu(0));
  emulator.Start(api);

  ckisa::Program program = MustAssemble(R"(
      trap 16         ; getpid
      mv   s0, a0
      addi t0, r0, 0
      li   t1, 500
    loop:
      addi t0, t0, 1
      bne  t0, t1, loop
      mv   s1, t0
      addi a0, r0, 0
      trap 17         ; exit(0)
  )", 0x10000);
  int pid1 = emulator.Exec(api, program);
  int pid2 = emulator.Exec(api, program);
  EXPECT_TRUE(world.RunUntil(
      [&] {
        return emulator.process(pid1).state == ckunix::Process::State::kZombie &&
               emulator.process(pid2).state == ckunix::Process::State::kZombie;
      },
      5000000));

  Snapshot s;
  CaptureMachineState(s, world);
  CaptureRegs(s, emulator.thread(emulator.process(pid1).thread_index), "p1");
  CaptureRegs(s, emulator.thread(emulator.process(pid2).thread_index), "p2");
  return s;
}

TEST(FastPathDifferential, UnixEmulator) {
  ExpectIdentical(RunUnixEmu(true), RunUnixEmu(false));
}

// ---------------------------------------------------------------------------
// Workload 5: self-modifying code. The guest patches an instruction in its
// own (writable) text page and re-executes it; a trace over that page must
// observe the store (frame generation bump) and be rebuilt.
// ---------------------------------------------------------------------------

Snapshot RunSelfModifying(bool fastpath, uint32_t* s0_out, uint32_t* s1_out) {
  TestWorld world(Options(fastpath));
  TrapAppKernel app;
  world.Launch(app);
  ck::CkApi api(world.ck(), app.self(), world.machine().cpu(0));

  uint32_t space = app.CreateSpace(api);
  // The word for `addi s0, r0, 99`, patched over the `addi s0, r0, 1` at
  // label `patch` after that instruction has already executed once.
  uint32_t patched = ckisa::Encode(ckisa::Op::kAddi, ckisa::kRegS0, ckisa::kRegZero, 99);
  char source[1024];
  std::snprintf(source, sizeof(source), R"(
      ; first pass: run the subroutine as assembled (s0 = 1)
      call sub
      mv   s1, s0
      ; patch: overwrite the addi at `patch` with "addi s0, r0, 99"
      li   t0, 0x%08x
      la   t1, patch
      sw   t0, 0(t1)
      ; second pass: the patched instruction must execute
      call sub
      halt
    sub:
    patch:
      addi s0, r0, 1
      ret
  )", patched);
  ckisa::Program program = MustAssemble(source, 0x10000);
  app.LoadProgramImage(space, program, /*writable=*/true);
  app.DefineZeroRegion(space, 0x00f00000, 2, /*writable=*/true);

  ckapp::GuestThreadParams params;
  params.space_index = space;
  params.entry = 0x10000;
  params.stack_top = 0x00f02000 - 16;
  uint32_t thread = app.CreateGuestThread(api, params);
  EXPECT_TRUE(world.RunUntil([&] { return app.thread(thread).finished; }, 1000000));

  if (s0_out != nullptr) {
    *s0_out = app.thread(thread).saved.regs[ckisa::kRegS0];
  }
  if (s1_out != nullptr) {
    *s1_out = app.thread(thread).saved.regs[ckisa::kRegS0 + 1];
  }
  Snapshot s;
  CaptureMachineState(s, world);
  CaptureRegs(s, app.thread(thread), "t0");
  return s;
}

TEST(FastPathDifferential, SelfModifyingCode) {
  uint32_t fast_s0 = 0, fast_s1 = 0, slow_s0 = 0, slow_s1 = 0;
  Snapshot fast = RunSelfModifying(true, &fast_s0, &fast_s1);
  Snapshot slow = RunSelfModifying(false, &slow_s0, &slow_s1);
  // Semantics first: the pre-patch pass saw the original instruction, the
  // post-patch pass the new one -- in BOTH modes.
  EXPECT_EQ(fast_s1, 1u);
  EXPECT_EQ(fast_s0, 99u) << "fast path executed stale decoded instructions";
  EXPECT_EQ(slow_s1, 1u);
  EXPECT_EQ(slow_s0, 99u);
  ExpectIdentical(fast, slow);
}

// ---------------------------------------------------------------------------
// Workload 6: remapping a virtual page to a different frame mid-run. After
// UnloadMapping the TLB entry is flushed; a trace over the old frame must die
// with it and the re-fault must fetch (and decode) from the NEW frame.
// ---------------------------------------------------------------------------

// App kernel whose trap 18 rebinds vaddr 0x00500000 to a second frame.
class RemapAppKernel : public ckapp::AppKernelBase {
 public:
  RemapAppKernel() : ckapp::AppKernelBase("fp-remap", 512) {}

  ck::TrapAction HandleTrap(const ck::TrapForward& trap, ck::CkApi& api) override {
    ck::TrapAction action;
    if (trap.number == 18) {
      EXPECT_EQ(api.UnloadMapping(space(space_index).ck_id, 0x00500000), CkStatus::kOk);
      ckapp::PageRecord* page = space(space_index).FindPage(0x00500000);
      EXPECT_NE(page, nullptr);
      page->fixed_frame = frame_b;
      page->frame = frame_b;
      remaps++;
    } else {
      action.action = ck::HandlerAction::kTerminate;
    }
    return action;
  }

  uint32_t space_index = 0;
  cksim::PhysAddr frame_b = 0;
  int remaps = 0;
};

Snapshot RunRemap(bool fastpath, uint32_t* s1_out, uint32_t* s2_out) {
  TestWorld world(Options(fastpath));
  RemapAppKernel app;
  world.Launch(app);
  ck::CkApi api(world.ck(), app.self(), world.machine().cpu(0));

  uint32_t space = app.CreateSpace(api);
  app.space_index = space;

  // Two frames holding two versions of the subroutine at vaddr 0x00500000.
  cksim::PhysAddr frame_a = app.frames().Allocate();
  cksim::PhysAddr frame_b = app.frames().Allocate();
  EXPECT_NE(frame_a, 0u);
  EXPECT_NE(frame_b, 0u);
  app.frame_b = frame_b;

  ckisa::Program sub_a = MustAssemble(R"(
      addi s0, r0, 11
      ret
  )", 0x00500000);
  ckisa::Program sub_b = MustAssemble(R"(
      addi s0, r0, 22
      ret
  )", 0x00500000);
  EXPECT_EQ(api.WritePhys(frame_a, sub_a.words.data(), sub_a.SizeBytes()), CkStatus::kOk);
  EXPECT_EQ(api.WritePhys(frame_b, sub_b.words.data(), sub_b.SizeBytes()), CkStatus::kOk);
  app.DefineFrameRegion(space, 0x00500000, 1, frame_a, /*writable=*/false, /*message=*/false);

  ckisa::Program main_prog = MustAssemble(R"(
      ; first call runs frame A's code, then trap 18 rebinds to frame B
      li   t5, 0x00500000
      jalr ra, t5
      mv   s1, s0
      trap 18
      jalr ra, t5
      mv   s2, s0
      halt
  )", 0x10000);
  app.LoadProgramImage(space, main_prog, /*writable=*/false);
  app.DefineZeroRegion(space, 0x00f00000, 2, /*writable=*/true);

  ckapp::GuestThreadParams params;
  params.space_index = space;
  params.entry = 0x10000;
  params.stack_top = 0x00f02000 - 16;
  uint32_t thread = app.CreateGuestThread(api, params);
  EXPECT_TRUE(world.RunUntil([&] { return app.thread(thread).finished; }, 1000000));
  EXPECT_EQ(app.remaps, 1);

  if (s1_out != nullptr) {
    *s1_out = app.thread(thread).saved.regs[ckisa::kRegS0 + 1];
  }
  if (s2_out != nullptr) {
    *s2_out = app.thread(thread).saved.regs[ckisa::kRegS0 + 2];
  }
  Snapshot s;
  CaptureMachineState(s, world);
  CaptureRegs(s, app.thread(thread), "t0");
  return s;
}

TEST(FastPathDifferential, RemapAfterUnloadMapping) {
  uint32_t fast_s1 = 0, fast_s2 = 0, slow_s1 = 0, slow_s2 = 0;
  Snapshot fast = RunRemap(true, &fast_s1, &fast_s2);
  Snapshot slow = RunRemap(false, &slow_s1, &slow_s2);
  EXPECT_EQ(fast_s1, 11u);
  EXPECT_EQ(fast_s2, 22u) << "fast path kept executing the unmapped frame";
  EXPECT_EQ(slow_s1, 11u);
  EXPECT_EQ(slow_s2, 22u);
  ExpectIdentical(fast, slow);
}

// ---------------------------------------------------------------------------
// Consistency faults: marking a frame remote mid-run must fault identically.
// ---------------------------------------------------------------------------

Snapshot RunRemoteFrame(bool fastpath) {
  TestWorld world(Options(fastpath));
  TrapAppKernel app;
  world.Launch(app);
  ck::CkApi api(world.ck(), app.self(), world.machine().cpu(0));

  uint32_t space = app.CreateSpace(api);
  ckisa::Program program = MustAssemble(R"(
      li   t0, 0x00700000
      li   t2, 2000
    loop:
      lw   t1, 0(t0)
      addi t2, t2, -1
      bne  t2, r0, loop
      halt
  )", 0x10000);
  app.LoadProgramImage(space, program, /*writable=*/false);
  app.DefineZeroRegion(space, 0x00700000, 1, /*writable=*/true);

  ckapp::GuestThreadParams params;
  params.space_index = space;
  params.entry = 0x10000;
  uint32_t thread = app.CreateGuestThread(api, params);

  // Let the loop run hot (the micro-TLB is certainly populated), then mark
  // the data frame remote: the NEXT load must raise a consistency fault even
  // though the hint is still valid.
  bool marked = false;
  EXPECT_TRUE(world.RunUntil(
      [&] {
        if (!marked) {
          ckapp::PageRecord* page = app.space(space).FindPage(0x00700000);
          if (page != nullptr && page->where == ckapp::PageRecord::Where::kResident &&
              world.ck().stats().guest_instructions > 500) {
            world.ck().MarkFrameRemote(page->frame >> cksim::kPageShift, true);
            marked = true;
          }
        }
        return app.thread(thread).finished;
      },
      2000000));
  EXPECT_TRUE(marked);
  EXPECT_GE(world.ck().stats().consistency_faults, 1u);

  Snapshot s;
  CaptureMachineState(s, world);
  return s;
}

TEST(FastPathDifferential, RemoteFrameConsistencyFault) {
  ExpectIdentical(RunRemoteFrame(true), RunRemoteFrame(false));
}

// ---------------------------------------------------------------------------
// Superblock traces: self-modifying code INSIDE a cached superblock. The hot
// call/return loop builds a trace through `sub`; the guest then rewrites the
// addi inside it. The store bumps the frame generation, so the next trace
// entry must see the mismatch, invalidate, rebuild, and execute the patched
// instruction -- with bit-identical simulated history in both modes.
// ---------------------------------------------------------------------------

Snapshot RunTraceSmc(bool fastpath, uint32_t* s1_out, uint32_t* s2_out) {
  TestWorld world(Options(fastpath));
  TrapAppKernel app;
  world.Launch(app);
  ck::CkApi api(world.ck(), app.self(), world.machine().cpu(0));

  uint32_t space = app.CreateSpace(api);
  // "addi s0, s0, 5", patched over the "addi s0, s0, 1" at `patchpt` once
  // the first loop has run it hot enough to live in a cached superblock.
  uint32_t patched = ckisa::Encode(ckisa::Op::kAddi, ckisa::kRegS0, ckisa::kRegS0, 5);
  char source[1024];
  std::snprintf(source, sizeof(source), R"(
      li   t6, 200
      addi t0, r0, 0
    warm:
      call sub
      addi t0, t0, 1
      bne  t0, t6, warm
      mv   s1, s0
      ; patch the increment inside the (by now cached) superblock
      li   t1, 0x%08x
      la   t2, patchpt
      sw   t1, 0(t2)
      addi t0, r0, 0
    hot:
      call sub
      addi t0, t0, 1
      bne  t0, t6, hot
      mv   s2, s0
      halt
    sub:
    patchpt:
      addi s0, s0, 1
      ret
  )", patched);
  ckisa::Program program = MustAssemble(source, 0x10000);
  app.LoadProgramImage(space, program, /*writable=*/true);

  ckapp::GuestThreadParams params;
  params.space_index = space;
  params.entry = 0x10000;
  uint32_t thread = app.CreateGuestThread(api, params);
  EXPECT_TRUE(world.RunUntil([&] { return app.thread(thread).finished; }, 1000000));

  if (fastpath) {
    EXPECT_GE(world.ck().stats().exec_trace_builds, 1u);
    EXPECT_GE(world.ck().stats().exec_trace_hits, 1u);
    EXPECT_GE(world.ck().stats().exec_trace_invalidations, 1u)
        << "the patch store should have stale-ified a cached superblock";
  } else {
    EXPECT_EQ(world.ck().stats().exec_trace_builds, 0u);
  }

  if (s1_out != nullptr) {
    *s1_out = app.thread(thread).saved.regs[ckisa::kRegS0 + 1];
  }
  if (s2_out != nullptr) {
    *s2_out = app.thread(thread).saved.regs[ckisa::kRegS0 + 2];
  }
  Snapshot s;
  CaptureMachineState(s, world);
  CaptureRegs(s, app.thread(thread), "t0");
  return s;
}

TEST(TraceExecDifferential, SelfModifyingCodeInsideSuperblock) {
  uint32_t trace_s1 = 0, trace_s2 = 0, slow_s1 = 0, slow_s2 = 0;
  Snapshot trace = RunTraceSmc(true, &trace_s1, &trace_s2);
  Snapshot slow = RunTraceSmc(false, &slow_s1, &slow_s2);
  // Semantics: 200 increments of 1, then 200 of the patched 5.
  EXPECT_EQ(trace_s1, 200u);
  EXPECT_EQ(trace_s2, 1200u) << "trace executor ran stale decoded steps";
  EXPECT_EQ(slow_s1, 200u);
  EXPECT_EQ(slow_s2, 1200u);
  ExpectIdentical(trace, slow);
}

// ---------------------------------------------------------------------------
// Superblock traces: a trace whose steps cross a page boundary, with the
// second page unloaded mid-run. The next trace entry finds the page gone from
// the TLB (a cold miss, not an invalidation), single-steps into the demand
// refault, and the run must stay bit-identical across both modes.
// ---------------------------------------------------------------------------

Snapshot RunTraceCrossPageUnload(bool fastpath) {
  TestWorld world(Options(fastpath));
  TrapAppKernel app;
  world.Launch(app);
  ck::CkApi api(world.ck(), app.self(), world.machine().cpu(0));

  uint32_t space = app.CreateSpace(api);
  // The image base must stay page-aligned (LoadProgramImage packs whole
  // pages), so nop padding pushes `loop` to 15 instructions short of the
  // 0x11000 page boundary: the loop body (20 addi steps) runs straight
  // across it and the built superblock records two code pages.
  const uint32_t base = 0x10000;
  const uint32_t kLoopTarget = 0x11000 - 15 * 4;
  std::string source =
      "      li   t6, 600\n"
      "      addi t0, r0, 0\n";
  uint32_t preamble_words = MustAssemble(source.c_str(), base).words.size();
  for (uint32_t w = preamble_words; w < (kLoopTarget - base) / 4; ++w) {
    source += "      nop\n";
  }
  source += R"(
    loop:
      addi t0, t0, 1
      addi s0, s0, 1
      addi s0, s0, 1
      addi s0, s0, 1
      addi s0, s0, 1
      addi s0, s0, 1
      addi s0, s0, 1
      addi s0, s0, 1
      addi s0, s0, 1
      addi s0, s0, 1
      addi s0, s0, 1
      addi s0, s0, 1
      addi s0, s0, 1
      addi s0, s0, 1
      addi s0, s0, 1
      addi s0, s0, 1
      addi s0, s0, 1
      addi s0, s0, 1
      addi s0, s0, 1
      addi s0, s0, 1
      addi s0, s0, 1
      bne  t0, t6, loop
      halt
  )";
  ckisa::Program program = MustAssemble(source.c_str(), base);
  EXPECT_GT(base + program.SizeBytes(), 0x11000u) << "loop does not cross the page boundary";
  app.LoadProgramImage(space, program, /*writable=*/false);

  ckapp::GuestThreadParams params;
  params.space_index = space;
  params.entry = base;
  uint32_t thread = app.CreateGuestThread(api, params);

  // Once the loop is hot (any superblock spans both pages by construction),
  // unload the second code page. Keyed on guest_instructions, which advances
  // identically in both modes, so the unload lands at the same point in both
  // runs.
  bool unloaded = false;
  EXPECT_TRUE(world.RunUntil(
      [&] {
        if (!unloaded && world.ck().stats().guest_instructions > 3000) {
          EXPECT_EQ(api.UnloadMapping(app.space(space).ck_id, 0x11000), CkStatus::kOk);
          unloaded = true;
        }
        return app.thread(thread).finished;
      },
      2000000));
  EXPECT_TRUE(unloaded);

  if (fastpath) {
    EXPECT_GE(world.ck().stats().exec_trace_builds, 1u);
    EXPECT_GE(world.ck().stats().exec_trace_hits, 1u);
  }

  Snapshot s;
  CaptureMachineState(s, world);
  CaptureRegs(s, app.thread(thread), "t0");
  return s;
}

TEST(TraceExecDifferential, TraceCrossesPageBoundaryWithMidRunUnload) {
  ExpectIdentical(RunTraceCrossPageUnload(true), RunTraceCrossPageUnload(false));
}

// ---------------------------------------------------------------------------
// Profiler differential: with --profile armed, the guest-PC histogram must be
// identical with and without the fast path -- samples latch at run-loop
// exits, and those see the same (clock, pc) pairs in both modes.
// ---------------------------------------------------------------------------

std::map<uint32_t, uint64_t> RunProfiledHistogram(bool fastpath, uint64_t* total) {
  TestWorld world(Options(fastpath));
  world.ck().set_profile_period(3000);
  TrapAppKernel app;
  world.Launch(app);
  ck::CkApi api(world.ck(), app.self(), world.machine().cpu(0));

  uint32_t space = app.CreateSpace(api);
  ckisa::Program program = MustAssemble(R"(
      li   t3, 0x00600000
      li   t6, 4000
      addi t0, r0, 0
    loop:
      addi t0, t0, 1
      add  t1, t1, t0
      sw   t1, 0(t3)
      lw   t2, 4(t3)
      bne  t0, t6, loop
      halt
  )", 0x10000);
  app.LoadProgramImage(space, program, /*writable=*/false);
  app.DefineZeroRegion(space, 0x00600000, 1, /*writable=*/true);

  ckapp::GuestThreadParams params;
  params.space_index = space;
  params.entry = 0x10000;
  uint32_t thread = app.CreateGuestThread(api, params);
  EXPECT_TRUE(world.RunUntil([&] { return app.thread(thread).finished; }, 2000000));

  if (total != nullptr) {
    *total = world.ck().profile_samples_total();
  }
  // Merge across kernel slots (only the app's slot has samples).
  std::map<uint32_t, uint64_t> merged;
  for (const auto& hist : world.ck().profile_pcs()) {
    for (const auto& [pc, count] : hist) {
      merged[pc] += count;
    }
  }
  return merged;
}

TEST(TraceExecDifferential, ProfilerHistogramsMatch) {
  uint64_t trace_total = 0, slow_total = 0;
  std::map<uint32_t, uint64_t> trace = RunProfiledHistogram(true, &trace_total);
  std::map<uint32_t, uint64_t> slow = RunProfiledHistogram(false, &slow_total);
  EXPECT_GT(trace_total, 0u) << "profiler collected no samples";
  EXPECT_FALSE(trace.empty()) << "profiler histogram is empty";
  EXPECT_EQ(trace_total, slow_total);
  EXPECT_EQ(trace, slow) << "trace execution moved profiler sample points";
}

// ---------------------------------------------------------------------------
// Four CPUs at once: one guest thread pinned to each CPU, each in its own
// space, so all four per-CPU micro-TLBs and trace caches are live in one
// interleaving. Cycle-exactness must hold across them in both modes.
// ---------------------------------------------------------------------------

Snapshot RunFourCpuWorkload(bool fastpath) {
  TestWorld world(Options(fastpath));
  TrapAppKernel app;
  world.Launch(app);
  ck::CkApi api(world.ck(), app.self(), world.machine().cpu(0));

  ckisa::Program program = MustAssemble(R"(
      li   t3, 0x00400000
      li   t6, 3000
      addi t0, r0, 0
    loop:
      addi t0, t0, 1
      add  t1, t1, t0
      sw   t1, 0(t3)
      lw   t2, 4(t3)
      slt  t4, t2, t1
      bne  t0, t6, loop
      trap 16
      mv   s0, a0
      halt
  )", 0x10000);

  std::vector<uint32_t> threads;
  for (uint32_t c = 0; c < 4; ++c) {
    uint32_t space = app.CreateSpace(api);
    app.LoadProgramImage(space, program, /*writable=*/false);
    app.DefineZeroRegion(space, 0x00400000, 1, /*writable=*/true);
    ckapp::GuestThreadParams params;
    params.space_index = space;
    params.entry = 0x10000;
    params.cpu_hint = static_cast<uint8_t>(c);
    threads.push_back(app.CreateGuestThread(api, params));
  }

  EXPECT_TRUE(world.RunUntil(
      [&] {
        for (uint32_t t : threads) {
          if (!app.thread(t).finished) {
            return false;
          }
        }
        return true;
      },
      4000000));

  Snapshot s;
  CaptureMachineState(s, world);
  for (size_t i = 0; i < threads.size(); ++i) {
    std::string tag = "t";
    tag += std::to_string(i);
    CaptureRegs(s, app.thread(threads[i]), tag);
  }
  return s;
}

TEST(TraceExecDifferential, FourCpusFourSpaces) {
  ExpectIdentical(RunFourCpuWorkload(true), RunFourCpuWorkload(false));
}

// ---------------------------------------------------------------------------
// Random programs (tests/random_program.h): every generated program runs in
// trace and slow mode and must leave identical simulated state. The programs
// cover loops, forward branches and jumps, loads and stores that hit,
// demand-fault, fault fatally, break copy-on-write, write a message page or
// land in the code page, traps, and the division edge cases. Part-way
// through each run the harness unloads one data page's mapping and marks the
// other data page's frame remote, so later accesses refault or raise a
// consistency fault.
// ---------------------------------------------------------------------------

// Counts the demand faults on one watched page.
class GeneratedAppKernel : public TrapAppKernel {
 public:
  ck::HandlerAction HandleFault(const ck::FaultForward& fault, ck::CkApi& api) override {
    if (fault.fault.type == cksim::FaultType::kNoMapping &&
        (fault.fault.address & ~cksim::kPageOffsetMask) == watched_page) {
      ++watched_faults;
    }
    return TrapAppKernel::HandleFault(fault, api);
  }

  uint32_t watched_page = ~0u;
  uint64_t watched_faults = 0;
};

struct GeneratedRun {
  Snapshot snapshot;
  ck::CkStats stats;
  uint64_t illegal_accesses = 0;
  uint64_t cow_copies = 0;
  uint64_t refaults = 0;  // demand faults on the unloaded data page
};

// The guest instruction count after which RunGenerated unloads and marks its
// data pages: it advances identically in both modes, so both runs perturb at
// the same point.
constexpr uint64_t kPerturbAfter = 200;

GeneratedRun RunGenerated(bool fastpath, uint64_t seed) {
  const cktest::ProgramLayout layout;
  TestWorld world(Options(fastpath));
  GeneratedAppKernel app;
  world.Launch(app);
  ck::CkApi api(world.ck(), app.self(), world.machine().cpu(0));

  uint32_t space = app.CreateSpace(api);
  ckisa::Program program;
  program.base = layout.code_base;
  program.words = cktest::GenerateProgram(seed, layout);
  app.LoadProgramImage(space, program, /*writable=*/true);
  app.DefineZeroRegion(space, layout.data_base, 2, /*writable=*/true);
  app.DefineZeroRegion(space, layout.readonly_base, 1, /*writable=*/false);
  cksim::PhysAddr cow_source = app.frames().Allocate();
  cksim::PhysAddr message_frame = app.frames().Allocate();
  EXPECT_NE(cow_source, 0u);
  EXPECT_NE(message_frame, 0u);
  const uint32_t pattern[4] = {0x80000000u, 0xffffffffu, static_cast<uint32_t>(seed), 7};
  EXPECT_EQ(api.WritePhys(cow_source, pattern, sizeof(pattern)), CkStatus::kOk);
  app.DefineCowRegion(space, layout.cow_base, 1, cow_source);
  app.DefineFrameRegion(space, layout.message_base, 1, message_frame, /*writable=*/true,
                        /*message=*/true);

  ckapp::GuestThreadParams params;
  params.space_index = space;
  params.entry = layout.code_base;
  uint32_t thread = app.CreateGuestThread(api, params);
  bool perturbed = false;
  EXPECT_TRUE(world.RunUntil(
      [&] {
        if (!perturbed && world.ck().stats().guest_instructions > kPerturbAfter) {
          perturbed = true;
          ckapp::VSpace& sp = app.space(space);
          if (sp.FindPage(layout.data_base)->where == ckapp::PageRecord::Where::kResident) {
            EXPECT_EQ(api.UnloadMapping(sp.ck_id, layout.data_base), CkStatus::kOk);
            app.watched_page = layout.data_base;
          }
          ckapp::PageRecord* remote = sp.FindPage(layout.data_base + cksim::kPageSize);
          if (remote->where == ckapp::PageRecord::Where::kResident) {
            world.ck().MarkFrameRemote(remote->frame >> cksim::kPageShift, true);
          }
        }
        return app.thread(thread).finished;
      },
      2000000));

  GeneratedRun run;
  CaptureMachineState(run.snapshot, world);
  CaptureRegs(run.snapshot, app.thread(thread), "t0");
  run.snapshot.Add("paging.faults", app.paging_stats().faults);
  run.snapshot.Add("paging.illegal_accesses", app.paging_stats().illegal_accesses);
  run.snapshot.Add("paging.cow_copies", app.paging_stats().cow_copies);
  run.snapshot.Add("paging.refaults", app.watched_faults);
  run.stats = world.ck().stats();
  run.illegal_accesses = app.paging_stats().illegal_accesses;
  run.cow_copies = app.paging_stats().cow_copies;
  run.refaults = app.watched_faults;
  return run;
}

class RandomProgramDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomProgramDifferential, TraceSlowIdentical) {
  ExpectIdentical(RunGenerated(true, GetParam()).snapshot,
                  RunGenerated(false, GetParam()).snapshot);
}

constexpr uint64_t kFirstSeed = 1;
constexpr uint64_t kSeedCount = 64;

INSTANTIATE_TEST_SUITE_P(Generated, RandomProgramDifferential,
                         ::testing::Range(kFirstSeed, kFirstSeed + kSeedCount),
                         [](const ::testing::TestParamInfo<uint64_t>& seed) {
                           return "seed" + std::to_string(seed.param);
                         });

// The differential above must not pass vacuously: across the seeds, the
// trace executor builds, hits and invalidates superblocks, guests trap,
// break copy-on-write, refault on the unloaded page and raise consistency
// faults, and some programs halt while others die on a fatal access.
TEST(RandomProgramCoverage, SeedsExerciseTracesTrapsHaltsAndFaults) {
  uint64_t builds = 0, hits = 0, invalidations = 0, traps = 0, faulted = 0;
  uint64_t cow_copies = 0, refaults = 0, consistency_faults = 0;
  for (uint64_t seed = kFirstSeed; seed < kFirstSeed + kSeedCount; ++seed) {
    GeneratedRun run = RunGenerated(true, seed);
    builds += run.stats.exec_trace_builds;
    hits += run.stats.exec_trace_hits;
    invalidations += run.stats.exec_trace_invalidations;
    traps += run.stats.traps_forwarded;
    faulted += run.illegal_accesses != 0 ? 1 : 0;
    cow_copies += run.cow_copies;
    refaults += run.refaults;
    consistency_faults += run.stats.consistency_faults;
  }
  EXPECT_GT(builds, 0u);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(invalidations, 0u) << "no code-page store staled a superblock";
  EXPECT_GT(traps, 0u);
  EXPECT_GT(cow_copies, 0u) << "no store broke copy-on-write";
  EXPECT_GT(refaults, 0u) << "no access refaulted on the unloaded data page";
  EXPECT_GT(consistency_faults, 0u) << "no access reached the remote data frame";
  EXPECT_GT(faulted, 0u)
      << "no program died on an unmapped, misaligned, read-only or remote access";
  EXPECT_LT(faulted, kSeedCount) << "no program ran to its halt";
}

}  // namespace
