// UNIX emulator: processes, syscalls, SEGV delivery, sleep/wakeup with
// thread unload, swap, scheduler aging.

#include <gtest/gtest.h>

#include <vector>

#include "src/isa/assembler.h"
#include "src/unixemu/unix_emulator.h"
#include "tests/test_harness.h"

namespace {

using ckbase::CkStatus;
using ckunix::Process;
using ckunix::UnixConfig;
using ckunix::UnixEmulator;
using cktest::TestWorld;

ckisa::Program MustAssemble(const char* source, uint32_t base = 0x10000) {
  ckisa::AssembleResult result = ckisa::Assemble(source, base);
  EXPECT_TRUE(result.ok) << result.error;
  return result.program;
}

class UnixTest : public ::testing::Test {
 protected:
  explicit UnixTest(UnixConfig config = UnixConfig()) {
    world_ = std::make_unique<TestWorld>();
    emulator_ = std::make_unique<UnixEmulator>(world_->ck(), config);
    cksrm::LaunchParams params;
    params.page_groups = 8;
    params.max_priority = 31;          // scheduler threads run at 30
    params.locked_kernel_object = true;  // lock chains for the scheduler
                                         // threads end at the kernel object
    EXPECT_TRUE(world_->srm().Launch(*emulator_, params).ok());
    ck::CkApi api(world_->ck(), emulator_->self(), world_->machine().cpu(0));
    emulator_->Start(api);
  }

  ck::CkApi Api() { return ck::CkApi(world_->ck(), emulator_->self(), world_->machine().cpu(0)); }

  bool RunToExit(int pid, uint64_t max_turns = 3000000) {
    return world_->RunUntil(
        [&] { return emulator_->process(pid).state == Process::State::kZombie; }, max_turns);
  }

  std::unique_ptr<TestWorld> world_;
  std::unique_ptr<UnixEmulator> emulator_;
};

TEST_F(UnixTest, GetPidReturnsStablePid) {
  ck::CkApi api = Api();
  ckisa::Program program = MustAssemble(R"(
      trap 16         ; getpid
      mv   s0, a0
      trap 16
      mv   s1, a0
      addi a0, r0, 0
      trap 17         ; exit(0)
  )");
  int pid1 = emulator_->Exec(api, program);
  int pid2 = emulator_->Exec(api, program);
  ASSERT_TRUE(RunToExit(pid1));
  ASSERT_TRUE(RunToExit(pid2));

  ckapp::ThreadRec& rec1 = emulator_->thread(emulator_->process(pid1).thread_index);
  ckapp::ThreadRec& rec2 = emulator_->thread(emulator_->process(pid2).thread_index);
  EXPECT_EQ(rec1.saved.regs[ckisa::kRegS0], static_cast<uint32_t>(pid1));
  EXPECT_EQ(rec1.saved.regs[ckisa::kRegS0 + 1], static_cast<uint32_t>(pid1));
  EXPECT_EQ(rec2.saved.regs[ckisa::kRegS0], static_cast<uint32_t>(pid2));
  EXPECT_NE(pid1, pid2);
}

TEST_F(UnixTest, ExitCodeRecorded) {
  ck::CkApi api = Api();
  int pid = emulator_->Exec(api, MustAssemble(R"(
      addi a0, r0, 42
      trap 17
  )"));
  ASSERT_TRUE(RunToExit(pid));
  EXPECT_EQ(emulator_->process(pid).exit_code, 42);
}

TEST_F(UnixTest, ConsoleWrite) {
  ck::CkApi api = Api();
  // "hi!\n" stored as words in the data segment.
  int pid = emulator_->Exec(api, MustAssemble(R"(
      la   a0, msg
      addi a1, r0, 4
      trap 18         ; write(buf, len)
      mv   s0, a0
      addi a0, r0, 0
      trap 17
    msg:
      .word 0x0a216968  ; "hi!\n" little-endian
  )"));
  ASSERT_TRUE(RunToExit(pid));
  EXPECT_EQ(emulator_->process(pid).console, "hi!\n");
  ckapp::ThreadRec& rec = emulator_->thread(emulator_->process(pid).thread_index);
  EXPECT_EQ(rec.saved.regs[ckisa::kRegS0], 4u);
}

TEST_F(UnixTest, SbrkGrowsHeap) {
  ck::CkApi api = Api();
  int pid = emulator_->Exec(api, MustAssemble(R"(
      addi a0, r0, 2
      trap 19         ; sbrk(2 pages)
      mv   t0, a0     ; old break
      li   t1, 0x1234abcd
      sw   t1, 0(t0)  ; touch the new heap (demand faults)
      sw   t1, 4096(t0)
      lw   s0, 0(t0)
      addi a0, r0, 0
      trap 17
  )"));
  ASSERT_TRUE(RunToExit(pid));
  ckapp::ThreadRec& rec = emulator_->thread(emulator_->process(pid).thread_index);
  EXPECT_EQ(rec.saved.regs[ckisa::kRegS0], 0x1234abcdu);
  EXPECT_EQ(emulator_->process(pid).exit_code, 0);
}

TEST_F(UnixTest, SegvWithoutHandlerKillsProcess) {
  ck::CkApi api = Api();
  int pid = emulator_->Exec(api, MustAssemble(R"(
      li   t0, 0x0bad0000
      lw   t1, 0(t0)
      addi a0, r0, 0
      trap 17
  )"));
  ASSERT_TRUE(RunToExit(pid));
  EXPECT_EQ(emulator_->process(pid).exit_code, -11);
  EXPECT_TRUE(emulator_->process(pid).segv_fault);
}

TEST_F(UnixTest, SegvHandlerGetsControl) {
  ck::CkApi api = Api();
  // Register a SEGV handler; the handler receives the faulting address in a0
  // and exits 7 ("recovered").
  int pid = emulator_->Exec(api, MustAssemble(R"(
      la   a0, onsegv
      trap 22         ; sigsegv(handler)
      li   t0, 0x0bad0000
      lw   t1, 0(t0)  ; boom
      addi a0, r0, 1  ; not reached
      trap 17
    onsegv:
      mv   s0, a0     ; faulting address
      addi a0, r0, 7
      trap 17
  )"));
  ASSERT_TRUE(RunToExit(pid));
  EXPECT_EQ(emulator_->process(pid).exit_code, 7);
  ckapp::ThreadRec& rec = emulator_->thread(emulator_->process(pid).thread_index);
  EXPECT_EQ(rec.saved.regs[ckisa::kRegS0], 0x0bad0000u);
}

TEST_F(UnixTest, ShortSleepBlocksAndResumes) {
  ck::CkApi api = Api();
  int pid = emulator_->Exec(api, MustAssemble(R"(
      trap 23         ; gettime -> us
      mv   s0, a0
      addi a0, r0, 500  ; sleep 500us (short: stays loaded)
      trap 20
      trap 23
      mv   s1, a0
      addi a0, r0, 0
      trap 17
  )"));
  ASSERT_TRUE(RunToExit(pid));
  ckapp::ThreadRec& rec = emulator_->thread(emulator_->process(pid).thread_index);
  uint32_t before = rec.saved.regs[ckisa::kRegS0];
  uint32_t after = rec.saved.regs[ckisa::kRegS0 + 1];
  EXPECT_GE(after - before, 500u) << "sleep must last at least the requested time";
}

TEST_F(UnixTest, LongSleepUnloadsThreadDescriptor) {
  ck::CkApi api = Api();
  int pid = emulator_->Exec(api, MustAssemble(R"(
      li   a0, 20000   ; 20ms: above the unload threshold
      trap 20
      addi a0, r0, 5
      trap 17
  )"));
  // Run until the process is sleeping with its thread unloaded.
  ASSERT_TRUE(world_->RunUntil([&] {
    return emulator_->process(pid).state == Process::State::kSleeping &&
           !emulator_->thread(emulator_->process(pid).thread_index).loaded;
  }));
  // "In this swapped state, it consumes no Cache Kernel descriptors."
  // Wakeup reloads it and the syscall completes.
  ASSERT_TRUE(RunToExit(pid));
  EXPECT_EQ(emulator_->process(pid).exit_code, 5);
}

TEST_F(UnixTest, ManyProcessesTimeshare) {
  ck::CkApi api = Api();
  ckisa::Program program = MustAssemble(R"(
      addi t0, r0, 0
      addi t1, r0, 1
      li   t2, 500
    loop:
      add  t0, t0, t1
      addi t1, t1, 1
      bge  t2, t1, loop
      mv   a0, t0
      trap 17          ; exit(sum)
  )");
  std::vector<int> pids;
  for (int i = 0; i < 8; ++i) {
    pids.push_back(emulator_->Exec(api, program));
  }
  for (int pid : pids) {
    ASSERT_TRUE(RunToExit(pid)) << "pid " << pid;
    EXPECT_EQ(emulator_->process(pid).exit_code, 125250);
  }
  EXPECT_TRUE(emulator_->AllExited());
}

TEST_F(UnixTest, SwapOutAndWake) {
  ck::CkApi api = Api();
  int pid = emulator_->Exec(api, MustAssemble(R"(
      li   t3, 0x20000000
      addi a0, r0, 4
      trap 19          ; sbrk 4 pages
      li   t1, 0xabcd1234
      sw   t1, 0(t3)   ; dirty a heap page
      li   a0, 50000
      trap 20          ; long sleep
      lw   s0, 0(t3)   ; read it back after swap-in
      mv   a0, s0
      trap 17
  )"));
  // Wait for the long sleep (thread unloaded).
  ASSERT_TRUE(world_->RunUntil([&] {
    return emulator_->process(pid).state == Process::State::kSleeping;
  }));
  // Swap the whole process out: space unloaded, frames paged out.
  emulator_->SwapOutProcess(api, pid);
  EXPECT_TRUE(emulator_->process(pid).swapped);
  uint64_t pages_out = emulator_->paging_stats().pages_out;
  EXPECT_GT(pages_out, 0u) << "dirty heap page must be written to backing store";

  // Wake: everything reloads on demand and the data survived.
  emulator_->WakeProcess(api, pid);
  ASSERT_TRUE(RunToExit(pid));
  EXPECT_EQ(static_cast<uint32_t>(emulator_->process(pid).exit_code), 0xabcd1234u);
}

TEST_F(UnixTest, SchedulerThreadAgesComputeBoundProcesses) {
  ck::CkApi api = Api();
  // A long compute loop: the per-processor scheduler thread should demote it
  // to batch priority within a few rescheduling intervals.
  int pid = emulator_->Exec(api, MustAssemble(R"(
      li   t2, 2000000
      addi t1, r0, 1
      addi t0, r0, 0
    loop:
      add  t0, t0, t1
      blt  t0, t2, loop
      addi a0, r0, 0
      trap 17
  )"));
  ckapp::ThreadRec& rec = emulator_->thread(emulator_->process(pid).thread_index);
  uint8_t initial = rec.priority;
  ASSERT_TRUE(world_->RunUntil(
      [&] {
        return rec.priority < initial ||
               emulator_->process(pid).state == Process::State::kZombie;
      },
      5000000));
  EXPECT_LT(rec.priority, initial) << "compute-bound process must be aged down";
}

TEST_F(UnixTest, NiceLowersPriority) {
  ck::CkApi api = Api();
  int pid = emulator_->Exec(api, MustAssemble(R"(
      addi a0, r0, 3
      trap 21          ; nice(3)
      mv   s0, a0
      addi a0, r0, 0
      trap 17
  )"));
  ASSERT_TRUE(RunToExit(pid));
  ckapp::ThreadRec& rec = emulator_->thread(emulator_->process(pid).thread_index);
  EXPECT_EQ(rec.saved.regs[ckisa::kRegS0], 3u);
  EXPECT_EQ(rec.priority, 3u);
}

TEST_F(UnixTest, SpawnAndWaitPid) {
  ck::CkApi api = Api();
  // Child: exits 33.
  uint32_t child_index = emulator_->RegisterProgram(MustAssemble(R"(
      addi a0, r0, 33
      trap 17
  )"));
  ASSERT_EQ(child_index, 0u);
  // Parent: spawns the child, waits, exits with (child code + 1).
  int parent = emulator_->Exec(api, MustAssemble(R"(
      addi a0, r0, 0
      trap 24          ; spawn(program 0) -> child pid
      mv   s0, a0
      trap 25          ; waitpid(child) -> exit code (a0 already = pid)
      addi a0, a0, 1
      trap 17
  )"));
  ASSERT_TRUE(RunToExit(parent));
  EXPECT_EQ(emulator_->process(parent).exit_code, 34);
  EXPECT_EQ(emulator_->process_count(), 2u);
  int child_pid = static_cast<int>(
      emulator_->thread(emulator_->process(parent).thread_index).saved.regs[ckisa::kRegS0]);
  EXPECT_EQ(emulator_->process(child_pid).exit_code, 33);
}

TEST_F(UnixTest, WaitPidOnZombieReturnsImmediately) {
  ck::CkApi api = Api();
  int child = emulator_->Exec(api, MustAssemble(R"(
      addi a0, r0, 9
      trap 17
  )"));
  ASSERT_TRUE(RunToExit(child));
  int parent = emulator_->Exec(api, MustAssemble(R"(
      addi a0, r0, 1    ; pid 1 (the already-dead child)
      trap 25
      trap 17           ; exit(child's code)
  )"));
  ASSERT_TRUE(RunToExit(parent));
  EXPECT_EQ(emulator_->process(parent).exit_code, 9);
}

TEST_F(UnixTest, SendRecvBetweenProcesses) {
  ck::CkApi api = Api();
  // Receiver (pid 1): recv into a buffer, exit with the first byte + length.
  int receiver = emulator_->Exec(api, MustAssemble(R"(
      li   a0, 0x20000000
      mv   t5, a0
      addi a1, r0, 0
      trap 19          ; harmless sbrk(0) -- warms the syscall path
      addi a0, r0, 1
      trap 19          ; sbrk(1 page) for the buffer
      mv   t5, a0
      mv   a0, t5
      addi a1, r0, 64
      trap 27          ; recv(buf, 64) -> len (blocks)
      mv   s1, a0      ; len
      lb   s0, 0(t5)   ; first byte
      add  a0, s0, s1
      trap 17
  )"));
  // Sender (pid 2): sends "hi" (2 bytes) to pid 1.
  int sender = emulator_->Exec(api, MustAssemble(R"(
      la   t0, msg
      addi a0, r0, 1   ; dest pid
      mv   a1, t0
      addi a2, r0, 2
      trap 26          ; send
      mv   a0, a0
      trap 17          ; exit(bytes sent)
    msg:
      .word 0x00006968 ; "hi"
  )"));
  ASSERT_TRUE(RunToExit(sender));
  ASSERT_TRUE(RunToExit(receiver));
  EXPECT_EQ(emulator_->process(sender).exit_code, 2);
  EXPECT_EQ(emulator_->process(receiver).exit_code, 'h' + 2);
}

TEST_F(UnixTest, WaiterWokenWhenChildSegfaults) {
  ck::CkApi api = Api();
  uint32_t crasher = emulator_->RegisterProgram(MustAssemble(R"(
      li   t0, 0x0bad0000
      lw   t1, 0(t0)
      trap 17
  )"));
  int parent = emulator_->Exec(api, MustAssemble(R"(
      mv   a0, r0
      trap 24          ; spawn(crasher)
      trap 25          ; waitpid -> -11
      trap 17
  )"));
  (void)crasher;
  ASSERT_TRUE(RunToExit(parent));
  EXPECT_EQ(emulator_->process(parent).exit_code, -11);
}

// Fixture with a deliberately tiny thread-descriptor cache: more runnable
// processes than descriptors, so the Cache Kernel reclaims threads out from
// under running programs and the emulator's scheduler reloads them.
class TinyThreadCacheUnixTest : public UnixTest {
 protected:
  TinyThreadCacheUnixTest() : UnixTest(MakeConfig()) {}

  static UnixConfig MakeConfig() {
    UnixConfig config;
    config.sched_interval = 250000;  // 10 ms: reload promptly
    return config;
  }
};

TEST_F(UnixTest, MoreProcessesThanThreadDescriptors) {
  // Rebuild the world with a 6-slot thread cache (4 scheduler threads + 2).
  cktest::WorldOptions options;
  options.ck.thread_slots = 6;
  TestWorld world(options);
  UnixConfig config;
  config.sched_interval = 250000;
  UnixEmulator emulator(world.ck(), config);
  cksrm::LaunchParams params;
  params.page_groups = 8;
  params.max_priority = 31;
  params.locked_kernel_object = true;  // keep the scheduler threads pinned
  ASSERT_TRUE(world.srm().Launch(emulator, params).ok());
  ck::CkApi api(world.ck(), emulator.self(), world.machine().cpu(0));
  emulator.Start(api);  // 4 locked scheduler threads -> 2 free slots

  // 8 compute processes compete for 2 descriptor slots.
  ckisa::Program program = MustAssemble(R"(
      addi t0, r0, 0
      addi t1, r0, 1
      li   t2, 2000
    loop:
      add  t0, t0, t1
      addi t1, t1, 1
      bge  t2, t1, loop
      mv   a0, t0
      trap 17
  )");
  std::vector<int> pids;
  for (int i = 0; i < 8; ++i) {
    pids.push_back(emulator.Exec(api, program));
  }
  ASSERT_TRUE(world.RunUntil([&] { return emulator.AllExited(); }, 30000000))
      << "all processes must finish despite descriptor reclamation";
  for (int pid : pids) {
    EXPECT_EQ(emulator.process(pid).exit_code, 2001000) << "pid " << pid;
  }
  // The thread cache was actually thrashed.
  EXPECT_GT(world.ck().stats().reclamations[static_cast<int>(ck::ObjectType::kThread)], 4u);
  EXPECT_TRUE(world.ck().ValidateInvariants().empty());
}

TEST_F(UnixTest, UnknownSyscallKillsProcess) {
  ck::CkApi api = Api();
  int pid = emulator_->Exec(api, MustAssemble(R"(
      trap 99
      addi a0, r0, 0
      trap 17
  )"));
  ASSERT_TRUE(RunToExit(pid));
  EXPECT_EQ(emulator_->process(pid).exit_code, -1);
}

// Swap has a floor. A sleeper dirties two heap pages; then a hog dirties
// more zero-fill pages than the 128 frames plus six swap pages hold. Swap
// comes down to the program images and stops: the dirty eviction that finds
// no swap page is refused, the fault that needed its frame ends the hog with
// SIGSEGV, and no image backing page is ever overwritten. Swapping the
// sleeper out then stops at its first dirty page instead of spinning.
TEST(UnixSwapFloorTest, DirtyingPastFramesPlusSwapEndsTheProcessCleanly) {
  TestWorld world;
  UnixConfig config;
  config.backing_pages = 8;  // two image pages, six swap pages
  UnixEmulator emulator(world.ck(), config);
  cksrm::LaunchParams params;
  params.page_groups = 1;  // 128 frames
  params.max_priority = 31;
  params.locked_kernel_object = true;
  ASSERT_TRUE(world.srm().Launch(emulator, params).ok());
  ck::CkApi api(world.ck(), emulator.self(), world.machine().cpu(0));
  emulator.Start(api);

  int sleeper = emulator.Exec(api, MustAssemble(R"(
      li   t3, 0x20000000
      addi a0, r0, 2
      trap 19          ; sbrk 2 pages
      li   t1, 0x5eed
      sw   t1, 0(t3)
      sw   t1, 4096(t3)
      li   a0, 1000000
      trap 20          ; sleep 1 s
      addi a0, r0, 0
      trap 17
  )"));
  ASSERT_TRUE(world.RunUntil(
      [&] { return emulator.process(sleeper).state == Process::State::kSleeping; }));
  int hog = emulator.Exec(api, MustAssemble(R"(
      addi a0, r0, 160
      trap 19          ; sbrk 160 pages
      mv   t0, a0
      li   t2, 160
      li   t3, 4096
      addi t1, r0, 0
    loop:
      sw   t1, 0(t0)   ; dirty the next zero-fill page
      add  t0, t0, t3
      addi t1, t1, 1
      blt  t1, t2, loop
      addi a0, r0, 0
      trap 17
  )"));
  ASSERT_EQ(emulator.image_next(), 2u);
  auto images = [&] {
    return std::vector<uint8_t>(emulator.backing().PageData(0),
                                emulator.backing().PageData(0) + 2 * cksim::kPageSize);
  };
  std::vector<uint8_t> images_before = images();

  bool floor_held = true;
  ASSERT_TRUE(world.RunUntil([&] {
    floor_held = floor_held && emulator.swap_next() >= emulator.image_next();
    return emulator.process(hog).state == Process::State::kZombie;
  }));
  EXPECT_TRUE(floor_held) << "swap must never reach below the program images";
  EXPECT_EQ(emulator.swap_next(), emulator.image_next()) << "every swap page was used";
  EXPECT_EQ(emulator.process(hog).exit_code, -11);
  EXPECT_TRUE(emulator.process(hog).segv_fault);
  EXPECT_GE(emulator.paging_stats().pages_out, 6u);
  EXPECT_EQ(images(), images_before) << "program image backing pages must stay byte-identical";

  emulator.SwapOutProcess(api, sleeper);
  EXPECT_TRUE(emulator.process(sleeper).swapped);
  ckapp::VSpace& sp = emulator.space(emulator.process(sleeper).space_index);
  EXPECT_NE(sp.FindPage(0x10000)->where, ckapp::PageRecord::Where::kResident)
      << "the clean code page went out first";
  ASSERT_NE(sp.resident.Front(), nullptr) << "the dirty heap pages had nowhere to go";
  for (ckapp::PageRecord* page : sp.resident) {
    EXPECT_TRUE(page->dirty && page->backing_page == ckapp::kNoBackingPage);
  }
  EXPECT_EQ(emulator.swap_next(), emulator.image_next());
  EXPECT_EQ(images(), images_before);
  EXPECT_TRUE(world.ck().ValidateInvariants().empty());
}

}  // namespace
