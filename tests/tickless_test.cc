// Tickless idle and tickless polling: inside Machine::RunUntil an idle CPU
// covers its whole idle stretch in one turn (CacheKernel::IdleTurn), and a
// native thread that promises quiet (NativeOutcome::quiet_until) covers
// every poll before its horizon in one turn (CacheKernel::RunNative); see
// docs/PERFORMANCE.md "Tickless idle" and "Tickless polling". Both jumps
// must be bit-exact with the crawl of one tick or one poll per turn.
//
// Every case builds the same world twice. The reference drives it with
// `while (Now() < deadline) Step()` -- bare steps never skip, so this is the
// crawl -- and the change side drives it with RunUntil(deadline) over the
// same seeded deadline schedule. The two must agree on every CPU clock,
// CkStats (memcmp), the tenant cost accounts, the workload's own
// observables (consoles, exit codes, counters) and every trace event. One
// case per horizon term and, for polling, one per stop; each RunUntil side
// must actually skip (idle_skips > 0, and poll_skips > 0 in the polling
// cases), so no case can pass vacuously.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/isa/assembler.h"
#include "src/sim/devices.h"
#include "src/unixemu/unix_emulator.h"
#include "tests/test_harness.h"

namespace {

using ckbase::CkStatus;
using cksim::Cycles;

// One world plus whatever its workload owns (programs, app kernels,
// devices). Owned objects are destroyed before the world, as in the other
// suites.
struct Rig {
  explicit Rig(const cktest::WorldOptions& options) : world(options) {
    world.machine().EnableTracing(1u << 15);
  }

  template <typename T, typename... Args>
  T& Make(Args&&... args) {
    auto object = std::make_shared<T>(std::forward<Args>(args)...);
    owned.push_back(object);
    return *object;
  }

  cksim::Machine& machine() { return world.machine(); }
  ck::CacheKernel& ck() { return world.ck(); }

  cktest::TestWorld world;
  std::vector<std::shared_ptr<void>> owned;
  // The workload's own observables, read after the run.
  std::function<std::string()> observe = [] { return std::string(); };
  // What the test does between two RunUntil calls (both sides alike).
  std::function<void()> between = [] {};
};

// Forwards every turn to the Cache Kernel and counts immediate repeats: an
// idle turn of a CPU directly after an idle turn of the same CPU.
class TurnLog : public cksim::MachineClient {
 public:
  explicit TurnLog(ck::CacheKernel& ck) : ck_(ck) {}

  void OnCpuTurn(cksim::Cpu& cpu) override {
    const uint64_t idle_before = ck_.stats().idle_turns;
    ck_.OnCpuTurn(cpu);
    const bool idle = ck_.stats().idle_turns != idle_before;
    if (idle && last_idle_ == static_cast<int>(cpu.id())) {
      ++repeats;
    }
    last_idle_ = idle ? static_cast<int>(cpu.id()) : -1;
  }
  // The caller acted between two RunUntil calls.
  void Break() { last_idle_ = -1; }

  uint64_t repeats = 0;

 private:
  ck::CacheKernel& ck_;
  int last_idle_ = -1;
};

struct Case {
  cktest::WorldOptions options;
  std::function<void(Rig&)> build;
  Cycles span = 2000000;  // simulated cycles to run after set-up
  Cycles min_chunk = 5000;
  Cycles max_chunk = 60000;
  uint64_t seed = 1;
};

struct Snapshot {
  std::vector<Cycles> clocks;
  ck::CkStats stats;
  std::vector<ck::CostAccount> tenants;
  std::string observed;
  std::vector<uint64_t> trace_pushed;  // per CPU ring
  uint64_t trace_hash = 0;             // FNV-1a over every retained event
  uint64_t idle_skips = 0;
  uint64_t poll_skips = 0;
  uint64_t repeats = 0;
};

uint64_t Fnv(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash = (hash ^ ((value >> (8 * i)) & 0xffu)) * 0x100000001b3ull;
  }
  return hash;
}

// The seeded deadline schedule: odd chunk sizes in [min_chunk, max_chunk],
// so deadlines fall at arbitrary offsets from every CPU's idle grid.
std::vector<Cycles> Deadlines(const Case& c, Cycles start) {
  std::mt19937_64 rng(c.seed);
  std::uniform_int_distribution<Cycles> chunk(c.min_chunk, c.max_chunk);
  std::vector<Cycles> out;
  for (Cycles at = start; at < start + c.span;) {
    at += chunk(rng) | 1u;
    out.push_back(at);
  }
  return out;
}

Snapshot Drive(const Case& c, bool crawl) {
  Rig rig(c.options);
  c.build(rig);
  cksim::Machine& machine = rig.machine();
  TurnLog log(rig.ck());
  machine.AttachKernel(&log);
  for (Cycles deadline : Deadlines(c, machine.Now())) {
    log.Break();
    if (crawl) {
      while (!machine.halted() && machine.Now() < deadline) {
        machine.Step();
      }
    } else {
      machine.RunUntil(deadline);
    }
    rig.between();
  }
  machine.AttachKernel(&rig.ck());

  Snapshot s;
  for (uint32_t i = 0; i < machine.cpu_count(); ++i) {
    s.clocks.push_back(machine.cpu(i).clock());
  }
  s.stats = rig.ck().stats();
  s.tenants = rig.ck().tenant_accounts();
  s.observed = rig.observe();
  s.trace_hash = 0xcbf29ce484222325ull;
  for (uint32_t i = 0; i < machine.cpu_count(); ++i) {
    const obs::TraceRing& ring = *machine.trace_ring(i);
    s.trace_pushed.push_back(ring.pushed());
    for (size_t e = 0; e < ring.size(); ++e) {
      const obs::TraceEvent& ev = ring.at(e);
      s.trace_hash = Fnv(s.trace_hash, ev.when);
      s.trace_hash = Fnv(s.trace_hash, (uint64_t{ev.type} << 56) | (uint64_t{ev.cpu} << 48) |
                                           (uint64_t{ev.arg16} << 32) | ev.arg32);
    }
  }
  s.idle_skips = rig.ck().idle_skips();
  s.poll_skips = rig.ck().poll_skips();
  s.repeats = log.repeats;
  return s;
}

// Runs the crawl and the jump and requires identical simulated state.
// Returns the jump side for case-specific checks.
Snapshot ExpectCrawlEqualsJump(const Case& c) {
  Snapshot crawl = Drive(c, /*crawl=*/true);
  Snapshot jump = Drive(c, /*crawl=*/false);
  EXPECT_EQ(crawl.clocks, jump.clocks);
  EXPECT_EQ(std::memcmp(&crawl.stats, &jump.stats, sizeof(ck::CkStats)), 0)
      << "CkStats differ: idle_turns " << crawl.stats.idle_turns << " vs "
      << jump.stats.idle_turns << ", context_switches " << crawl.stats.context_switches
      << " vs " << jump.stats.context_switches;
  EXPECT_EQ(crawl.tenants.size(), jump.tenants.size());
  if (crawl.tenants.size() == jump.tenants.size()) {
    EXPECT_EQ(std::memcmp(crawl.tenants.data(), jump.tenants.data(),
                          crawl.tenants.size() * sizeof(ck::CostAccount)),
              0)
        << "tenant accounts differ";
  }
  EXPECT_EQ(crawl.observed, jump.observed);
  EXPECT_EQ(crawl.trace_pushed, jump.trace_pushed);
  EXPECT_EQ(crawl.trace_hash, jump.trace_hash);
  EXPECT_GT(crawl.stats.idle_turns, 0u) << "the world never idled";
  EXPECT_EQ(crawl.idle_skips, 0u) << "a bare Step() covers exactly one tick";
  EXPECT_EQ(crawl.poll_skips, 0u) << "a bare Step() makes exactly one poll";
  EXPECT_GT(jump.idle_skips, 0u) << "RunUntil never skipped: the case proves nothing";
  return jump;
}

// The polling cases: the crawl and the jump agree, and the jump covered
// several polls in one turn at least once.
Snapshot ExpectPollCrawlEqualsJump(const Case& c) {
  Snapshot jump = ExpectCrawlEqualsJump(c);
  EXPECT_GT(jump.poll_skips, 0u) << "no turn covered more than one poll: the case proves nothing";
  return jump;
}

// ---------------------------------------------------------------------------
// Native programs
// ---------------------------------------------------------------------------

ck::NativeOutcome Outcome(ck::NativeOutcome::Action action) {
  ck::NativeOutcome outcome;
  outcome.action = action;
  return outcome;
}

// Runs a little work each time it is resumed, then blocks again.
class Sleeper : public ck::NativeProgram {
 public:
  explicit Sleeper(Cycles work) : work_(work) {}
  ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
    runs.push_back(ctx.api().now());
    ctx.Charge(work_);
    return Outcome(ck::NativeOutcome::Action::kBlock);
  }
  std::vector<Cycles> runs;

 private:
  Cycles work_;
};

std::string Join(const std::vector<Cycles>& values) {
  std::string out;
  for (Cycles v : values) {
    out += std::to_string(v) + ",";
  }
  return out;
}

// Sets up one app kernel with one space and returns the space index.
uint32_t LaunchApp(Rig& rig, ckapp::AppKernelBase& app,
                   const cksrm::LaunchParams& params = cksrm::LaunchParams()) {
  EXPECT_TRUE(rig.world.srm().Launch(app, params).ok());
  ck::CkApi api(rig.ck(), app.self(), rig.machine().cpu(0));
  return app.CreateSpace(api);
}

// ---------------------------------------------------------------------------
// Horizon term: the clock of every other CPU that can run a thread.
// ---------------------------------------------------------------------------

// A busy thread on CPU 2 resumes sleepers homed on idle CPUs 0 and 3, one
// below and one above it in index order.
class Resumer : public ck::NativeProgram {
 public:
  ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
    ++steps_;
    if (steps_ % 7 == 0) {
      statuses += static_cast<char>('0' + static_cast<int>(ctx.api().ResumeThread(low)));
    }
    if (steps_ % 11 == 0) {
      statuses += static_cast<char>('0' + static_cast<int>(ctx.api().ResumeThread(high)));
    }
    ctx.Charge(1700 + (steps_ % 5) * 37);
    return Outcome(ck::NativeOutcome::Action::kYield);
  }
  ck::ThreadId low, high;
  std::string statuses;

 private:
  uint64_t steps_ = 0;
};

TEST(TicklessTest, BusyCpuResumesThreadOnIdleSibling) {
  Case c;
  c.build = [](Rig& rig) {
    auto& app = rig.Make<ckapp::AppKernelBase>("resume", 16);
    uint32_t space = LaunchApp(rig, app);
    ck::CkApi api(rig.ck(), app.self(), rig.machine().cpu(0));
    auto& low = rig.Make<Sleeper>(310);
    auto& high = rig.Make<Sleeper>(290);
    auto& resumer = rig.Make<Resumer>();
    uint32_t t_low = app.CreateNativeThread(api, space, &low, 12, false, /*cpu=*/0);
    uint32_t t_high = app.CreateNativeThread(api, space, &high, 12, false, /*cpu=*/3);
    app.CreateNativeThread(api, space, &resumer, 10, false, /*cpu=*/2);
    resumer.low = app.thread(t_low).ck_id;
    resumer.high = app.thread(t_high).ck_id;
    rig.observe = [&low, &high, &resumer] {
      return Join(low.runs) + "|" + Join(high.runs) + "|" + resumer.statuses;
    };
  };
  Snapshot jump = ExpectCrawlEqualsJump(c);
  EXPECT_GT(jump.stats.context_switches, 100u);
}

// ---------------------------------------------------------------------------
// Horizon term: Step's lowest-index tie-break. A busy thread on CPU 1 keeps
// its clock on the idle grid of CPU 0 (below it) and CPU 2 (above it), and
// resumes a thread homed on CPU 2. CPU 2 must take its turn at the busy
// clock itself (CPU 1 runs first on the tie), and CPU 0 must land one grid
// point past it: landing on the tie would give CPU 0 a second idle turn
// before CPU 1 runs, a turn that cannot see anything new.
// ---------------------------------------------------------------------------

// Charge so that this CPU's clock at the end of the turn sits on CPU 0's
// idle grid. `tail` is what the kernel adds after the step.
Cycles AlignedCharge(ck::NativeCtx& ctx, Cycles base, Cycles tail) {
  cksim::Machine& machine = ctx.api().kernel().machine();
  const Cycles tick = machine.cost().idle_tick;
  const Cycles want = machine.cpu(0).clock() % tick;
  const Cycles end = ctx.api().now() + base + tail;
  return base + (want + tick - end % tick) % tick;
}

class AlignedDriver : public ck::NativeProgram {
 public:
  ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
    ++steps_;
    if (steps_ % 3 == 0) {
      statuses += static_cast<char>('0' + static_cast<int>(ctx.api().ResumeThread(target)));
    }
    const cksim::CostModel& cost = ctx.api().kernel().machine().cost();
    ctx.Charge(AlignedCharge(ctx, 900, cost.quota_account));
    return Outcome(ck::NativeOutcome::Action::kYield);
  }
  ck::ThreadId target;
  std::string statuses;

 private:
  uint64_t steps_ = 0;
};

class AlignedSleeper : public ck::NativeProgram {
 public:
  ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
    runs.push_back(ctx.api().now());
    const cksim::CostModel& cost = ctx.api().kernel().machine().cost();
    ctx.Charge(AlignedCharge(ctx, 300, cost.quota_account + cost.context_save));
    return Outcome(ck::NativeOutcome::Action::kBlock);
  }
  std::vector<Cycles> runs;
};

TEST(TicklessTest, LowestIndexWinsTies) {
  Case c;
  c.options.ck.quota_window = ~Cycles{0};  // no quota rolls: nothing else wakes CPU 0
  c.build = [](Rig& rig) {
    auto& app = rig.Make<ckapp::AppKernelBase>("ties", 16);
    uint32_t space = LaunchApp(rig, app);
    ck::CkApi api(rig.ck(), app.self(), rig.machine().cpu(0));
    auto& sleeper = rig.Make<AlignedSleeper>();
    auto& driver = rig.Make<AlignedDriver>();
    uint32_t t_sleeper = app.CreateNativeThread(api, space, &sleeper, 12, false, /*cpu=*/2);
    app.CreateNativeThread(api, space, &driver, 10, false, /*cpu=*/1);
    driver.target = app.thread(t_sleeper).ck_id;
    rig.observe = [&sleeper, &driver] { return Join(sleeper.runs) + "|" + driver.statuses; };
  };
  Snapshot jump = ExpectCrawlEqualsJump(c);
  EXPECT_GT(jump.stats.context_switches, 100u);
  EXPECT_EQ(jump.repeats, 0u) << "an idle CPU took two turns in a row with nothing in between";
}

// ---------------------------------------------------------------------------
// Horizon term: every CPU's earliest pending signal. A token circles four
// native threads, one per CPU; each hop is a cross-CPU address-valued signal
// that lands after the IPI latency, while every CPU is idle.
// ---------------------------------------------------------------------------

class RingHop : public ck::NativeProgram {
 public:
  ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
    if (pending_ > 0) {
      --pending_;
      ctx.Charge(400 + (hops_ % 3) * 41);
      ++hops_;
      statuses += static_cast<char>('0' + static_cast<int>(ctx.api().Signal(space, next)));
    }
    return Outcome(ck::NativeOutcome::Action::kBlock);
  }
  void OnSignal(cksim::VirtAddr addr, ck::NativeCtx& ctx) override {
    received.push_back(ctx.api().now() ^ (uint64_t{addr} << 40));
    ++pending_;
  }
  ck::SpaceId space;
  cksim::VirtAddr next = 0;
  std::vector<Cycles> received;
  std::string statuses;

 private:
  uint32_t pending_ = 0;
  uint64_t hops_ = 0;
};

TEST(TicklessTest, CrossCpuSignalArrivesAtIdleCpu) {
  Case c;
  c.build = [](Rig& rig) {
    auto& app = rig.Make<ckapp::AppKernelBase>("ring", 16);
    uint32_t space = LaunchApp(rig, app);
    ck::CkApi api(rig.ck(), app.self(), rig.machine().cpu(0));
    constexpr uint32_t kHops = 4;
    constexpr cksim::VirtAddr kSend = 0x00800000;
    constexpr cksim::VirtAddr kRecv = 0x00900000;
    std::vector<RingHop*> hops;
    std::vector<uint32_t> threads;
    for (uint32_t i = 0; i < kHops; ++i) {
      hops.push_back(&rig.Make<RingHop>());
      threads.push_back(app.CreateNativeThread(api, space, hops.back(), 12, false,
                                               static_cast<uint8_t>(i)));
    }
    // Page i carries the token from hop i to hop i+1.
    for (uint32_t i = 0; i < kHops; ++i) {
      cksim::PhysAddr frame = app.frames().Allocate();
      cksim::VirtAddr send = kSend + i * cksim::kPageSize;
      cksim::VirtAddr recv = kRecv + i * cksim::kPageSize;
      app.DefineFrameRegion(space, send, 1, frame, /*writable=*/true, /*message=*/true);
      app.DefineFrameRegion(space, recv, 1, frame, /*writable=*/false, /*message=*/true,
                            threads[(i + 1) % kHops]);
      EXPECT_EQ(app.EnsureMappingLoaded(api, space, send), CkStatus::kOk);
      EXPECT_EQ(app.EnsureMappingLoaded(api, space, recv), CkStatus::kOk);
      hops[i]->space = app.space(space).ck_id;
      hops[i]->next = send;
    }
    // Kick the token from the test: the first hop lands on CPU 1.
    EXPECT_EQ(api.Signal(app.space(space).ck_id, kSend), CkStatus::kOk);
    rig.observe = [hops] {
      std::string out;
      for (RingHop* hop : hops) {
        out += Join(hop->received) + "|" + hop->statuses + "|";
      }
      return out;
    };
  };
  Snapshot jump = ExpectCrawlEqualsJump(c);
  EXPECT_GT(jump.stats.signals_delivered_slow + jump.stats.signals_delivered_fast, 100u);
}

// ---------------------------------------------------------------------------
// Horizon term: the first app event. Threads on every CPU sleep with
// ScheduleAfter and are woken by the event.
// ---------------------------------------------------------------------------

class Napper : public ck::NativeProgram {
 public:
  explicit Napper(Cycles base) : base_(base) {}
  ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
    wakes.push_back(ctx.api().now());
    ctx.Charge(500 + (wakes.size() % 4) * 113);
    ck::ThreadId self = ctx.self_thread();
    Cycles delay = base_ + (wakes.size() % 5) * 7919;
    ctx.api().ScheduleAfter(delay, [self](ck::CkApi& later) { later.ResumeThread(self); });
    return Outcome(ck::NativeOutcome::Action::kBlock);
  }
  std::vector<Cycles> wakes;

 private:
  Cycles base_;
};

TEST(TicklessTest, ScheduleAfterSleeps) {
  Case c;
  c.build = [](Rig& rig) {
    auto& app = rig.Make<ckapp::AppKernelBase>("nap", 16);
    uint32_t space = LaunchApp(rig, app);
    ck::CkApi api(rig.ck(), app.self(), rig.machine().cpu(0));
    std::vector<Napper*> nappers;
    for (uint32_t i = 0; i < 4; ++i) {
      nappers.push_back(&rig.Make<Napper>(20000 + i * 13001));
      app.CreateNativeThread(api, space, nappers.back(), 12, false, static_cast<uint8_t>(i));
    }
    rig.observe = [nappers] {
      std::string out;
      for (Napper* napper : nappers) {
        out += Join(napper->wakes) + "|";
      }
      return out;
    };
  };
  ExpectCrawlEqualsJump(c);
}

// ---------------------------------------------------------------------------
// Horizon term: the next device event. A clock device ticks a thread on
// CPU 1; each tick sends a packet over a fiber-channel pair attached to the
// same machine, and a collector on CPU 3 receives it after the wire latency.
// ---------------------------------------------------------------------------

class TickForwarder : public ck::NativeProgram {
 public:
  ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
    while (pending_ > 0) {
      --pending_;
      uint32_t word = static_cast<uint32_t>(ticks.size());
      uint32_t len = 4;
      ctx.api().WritePhys(tx_frame, &len, 4);
      ctx.api().WritePhys(tx_frame + 4, &word, 4);
      statuses += static_cast<char>('0' + static_cast<int>(ctx.api().Signal(space, tx_vaddr)));
    }
    return Outcome(ck::NativeOutcome::Action::kBlock);
  }
  void OnSignal(cksim::VirtAddr, ck::NativeCtx& ctx) override {
    ticks.push_back(ctx.api().now());
    ++pending_;
  }
  ck::SpaceId space;
  cksim::VirtAddr tx_vaddr = 0;
  cksim::PhysAddr tx_frame = 0;
  std::vector<Cycles> ticks;
  std::string statuses;

 private:
  uint32_t pending_ = 0;
};

class Collector : public ck::NativeProgram {
 public:
  ck::NativeOutcome Step(ck::NativeCtx&) override {
    return Outcome(ck::NativeOutcome::Action::kBlock);
  }
  void OnSignal(cksim::VirtAddr addr, ck::NativeCtx& ctx) override {
    packets.push_back(ctx.api().now() ^ (uint64_t{addr} << 40));
  }
  std::vector<Cycles> packets;
};

TEST(TicklessTest, TimerAndFiberChannelEvents) {
  Case c;
  c.build = [](Rig& rig) {
    auto& app = rig.Make<ckapp::AppKernelBase>("devices", 16);
    uint32_t space = LaunchApp(rig, app);
    ck::CkApi api(rig.ck(), app.self(), rig.machine().cpu(0));
    cksrm::Srm& srm = rig.world.srm();
    uint32_t group = srm.ReserveGroups(1).value();
    cksim::PhysAddr base = group * cksim::kPageGroupBytes;
    EXPECT_EQ(srm.GrantSharedGroups(app, group, 1, ck::GroupAccess::kReadWrite), CkStatus::kOk);

    // Page 0: the clock's tick page. Pages 1-4 and 5-8: two fiber-channel
    // endpoints (2 tx + 2 rx slots each), wired to each other.
    auto& clock = rig.Make<cksim::ClockDevice>(base, &rig.ck());
    auto& fc_a = rig.Make<cksim::FiberChannelDevice>(rig.machine().memory(), &rig.ck(),
                                                     base + 1 * cksim::kPageSize, 2, 2, 2500);
    auto& fc_b = rig.Make<cksim::FiberChannelDevice>(rig.machine().memory(), &rig.ck(),
                                                     base + 5 * cksim::kPageSize, 2, 2, 2500);
    cksim::FiberChannelDevice::Connect(fc_a, fc_b);
    rig.machine().AttachDevice(&clock);
    rig.machine().AttachDevice(&fc_a);
    rig.machine().AttachDevice(&fc_b);

    auto& forwarder = rig.Make<TickForwarder>();
    auto& collector = rig.Make<Collector>();
    uint32_t t_forward = app.CreateNativeThread(api, space, &forwarder, 20, false, /*cpu=*/1);
    uint32_t t_collect = app.CreateNativeThread(api, space, &collector, 20, false, /*cpu=*/3);
    app.DefineFrameRegion(space, 0x00700000, 1, base, false, true, t_forward);
    app.DefineFrameRegion(space, 0x00800000, 1, fc_a.tx_slot(0), true, true);
    app.DefineFrameRegion(space, 0x00900000, 2, fc_b.rx_slot(0), false, true, t_collect);
    for (cksim::VirtAddr v : {0x00700000u, 0x00800000u, 0x00900000u, 0x00901000u}) {
      EXPECT_EQ(app.EnsureMappingLoaded(api, space, v), CkStatus::kOk);
    }
    forwarder.space = app.space(space).ck_id;
    forwarder.tx_vaddr = 0x00800000;
    forwarder.tx_frame = fc_a.tx_slot(0);
    clock.Start(rig.machine().Now() + 30011, 37003);
    rig.observe = [&forwarder, &collector, &fc_b, &clock] {
      return Join(forwarder.ticks) + "|" + forwarder.statuses + "|" + Join(collector.packets) +
             "|" + std::to_string(fc_b.packets_received()) + "|" +
             std::to_string(clock.ticks_delivered());
    };
  };
  Snapshot jump = ExpectCrawlEqualsJump(c);
  EXPECT_GT(jump.stats.signals_delivered_slow + jump.stats.signals_delivered_fast, 50u);
}

// ---------------------------------------------------------------------------
// Horizon term: the next tier scan. Tiering is on with a small DRAM budget;
// a thread touches more pages than fit, then naps for long stretches, so
// the promotion scans run on an otherwise idle machine.
// ---------------------------------------------------------------------------

class PageToucher : public ck::NativeProgram {
 public:
  ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
    ++rounds_;
    uint32_t sum = 0;
    for (uint32_t i = 0; i < 8; ++i) {
      cksim::VirtAddr page = base + ((rounds_ * 5 + i * 3) % pages) * cksim::kPageSize;
      ckbase::Result<uint32_t> word = ctx.LoadWord(page);
      sum += word.ok() ? word.value() : 0xdead;
      ctx.StoreWord(page + 4, static_cast<uint32_t>(rounds_));
    }
    sums.push_back(sum ^ ctx.api().now());
    ck::ThreadId self = ctx.self_thread();
    ctx.api().ScheduleAfter(170000 + (rounds_ % 3) * 33331,
                            [self](ck::CkApi& later) { later.ResumeThread(self); });
    return Outcome(ck::NativeOutcome::Action::kBlock);
  }
  cksim::VirtAddr base = 0;
  uint32_t pages = 0;
  std::vector<Cycles> sums;

 private:
  uint64_t rounds_ = 0;
};

TEST(TicklessTest, TierScansOnIdleMachine) {
  Case c;
  c.options.ck.tier_dram_frames = 24;
  c.options.ck.tier_promote_period = 20011;
  c.span = 3000000;
  c.min_chunk = 20000;
  c.max_chunk = 200000;
  c.build = [](Rig& rig) {
    auto& app = rig.Make<ckapp::AppKernelBase>("tiers", 64);
    cksrm::LaunchParams params;
    params.page_groups = 4;
    uint32_t space = LaunchApp(rig, app, params);
    ck::CkApi api(rig.ck(), app.self(), rig.machine().cpu(0));
    auto& toucher = rig.Make<PageToucher>();
    toucher.base = 0x40000000;
    toucher.pages = 48;
    app.DefineZeroRegion(space, toucher.base, toucher.pages, /*writable=*/true);
    app.CreateNativeThread(api, space, &toucher, 12, false, /*cpu=*/2);
    rig.observe = [&toucher] { return Join(toucher.sums); };
  };
  Snapshot jump = ExpectCrawlEqualsJump(c);
  EXPECT_GT(jump.stats.tier_demotions, 0u);
  EXPECT_GT(jump.stats.tier_scan_steps, 0u);
  EXPECT_GT(jump.stats.tier_promotions, 0u);
}

// ---------------------------------------------------------------------------
// Horizon term: this CPU's next quota-window roll. Quotas are enforced; a
// rogue kernel over its 20% grant and a well-behaved kernel share CPU 1 and
// both sleep across window rolls, so a roll happens on an idle CPU and its
// timing decides when the rogue is degraded next.
// ---------------------------------------------------------------------------

class Burster : public ck::NativeProgram {
 public:
  Burster(Cycles work, uint32_t burst, Cycles sleep) : work_(work), burst_(burst), sleep_(sleep) {}
  ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
    ++steps_;
    ctx.Charge(work_);
    if (steps_ % burst_ != 0) {
      return Outcome(ck::NativeOutcome::Action::kYield);
    }
    wakes.push_back(ctx.api().now());
    ck::ThreadId self = ctx.self_thread();
    ctx.api().ScheduleAfter(sleep_ + (steps_ / burst_ % 3) * 9973,
                            [self](ck::CkApi& later) { later.ResumeThread(self); });
    return Outcome(ck::NativeOutcome::Action::kBlock);
  }
  std::vector<Cycles> wakes;

 private:
  Cycles work_;
  uint32_t burst_;
  Cycles sleep_;
  uint64_t steps_ = 0;
};

TEST(TicklessTest, QuotaWindowRollsOnIdleCpu) {
  Case c;
  c.options.ck.enforce_quotas = true;
  c.options.ck.quota_window = 60000;
  c.span = 3000000;
  c.min_chunk = 30000;
  c.max_chunk = 250000;
  c.build = [](Rig& rig) {
    auto& rogue = rig.Make<ckapp::AppKernelBase>("rogue", 16);
    auto& polite = rig.Make<ckapp::AppKernelBase>("polite", 16);
    cksrm::LaunchParams rogue_params;
    rogue_params.cpu_percent[1] = 20;
    uint32_t rogue_space = LaunchApp(rig, rogue, rogue_params);
    uint32_t polite_space = LaunchApp(rig, polite);
    ck::CkApi rogue_api(rig.ck(), rogue.self(), rig.machine().cpu(0));
    ck::CkApi polite_api(rig.ck(), polite.self(), rig.machine().cpu(0));
    auto& hog = rig.Make<Burster>(1500, 20, 90001);
    auto& worker = rig.Make<Burster>(700, 6, 70001);
    rogue.CreateNativeThread(rogue_api, rogue_space, &hog, 10, false, /*cpu=*/1);
    polite.CreateNativeThread(polite_api, polite_space, &worker, 10, false, /*cpu=*/1);
    rig.observe = [&hog, &worker] { return Join(hog.wakes) + "|" + Join(worker.wakes); };
  };
  Snapshot jump = ExpectCrawlEqualsJump(c);
  EXPECT_GT(jump.stats.quota_degradations, 0u);
}

// ---------------------------------------------------------------------------
// Horizon term: the RunUntil deadline, at seeded chunk sizes down to a
// fraction of one idle tick. A UNIX-emulator mix of sleeps (short and
// descriptor-unloading long ones), console writes and compute.
// ---------------------------------------------------------------------------

ckisa::Program MustAssemble(const char* source) {
  ckisa::AssembleResult result = ckisa::Assemble(source, 0x10000);
  EXPECT_TRUE(result.ok) << result.error;
  return result.program;
}

void BuildUnixMix(Rig& rig) {
  auto& emulator = rig.Make<ckunix::UnixEmulator>(rig.ck());
  cksrm::LaunchParams params;
  params.page_groups = 8;
  params.max_priority = 31;
  params.locked_kernel_object = true;
  EXPECT_TRUE(rig.world.srm().Launch(emulator, params).ok());
  ck::CkApi api(rig.ck(), emulator.self(), rig.machine().cpu(0));
  emulator.Start(api);
  // Three naps of 300 us with a console line after each, then exit 7.
  emulator.Exec(api, MustAssemble(R"(
      addi s0, r0, 3
    again:
      addi a0, r0, 300
      trap 20         ; sleep
      la   a0, msg
      addi a1, r0, 4
      trap 18         ; write
      addi s0, s0, -1
      bne  s0, r0, again
      addi a0, r0, 7
      trap 17
    msg:
      .word 0x0a216968
  )"));
  // A long sleep (the thread descriptor is unloaded), then exit 3.
  emulator.Exec(api, MustAssemble(R"(
      li   a0, 20000
      trap 20
      la   a0, msg
      addi a1, r0, 4
      trap 18
      addi a0, r0, 3
      trap 17
    msg:
      .word 0x0a4b4f21
  )"));
  // Compute, read the clock, report it, exit with its low bits.
  emulator.Exec(api, MustAssemble(R"(
      li   t0, 3000
    spin:
      addi t0, t0, -1
      bne  t0, r0, spin
      trap 23         ; gettime
      mv   s1, a0
      la   t1, buf
      sw   s1, 0(t1)
      la   a0, buf
      addi a1, r0, 4
      trap 18
      andi a0, s1, 63
      trap 17
    buf:
      .word 0
  )"));
  rig.observe = [&emulator] {
    std::string out;
    for (uint32_t pid = 1; pid <= emulator.process_count(); ++pid) {
      ckunix::Process& p = emulator.process(static_cast<int>(pid));
      out += std::to_string(static_cast<int>(p.state)) + ":" + std::to_string(p.exit_code) +
             ":" + p.console + "|";
    }
    return out + std::to_string(emulator.total_syscalls());
  };
}

class TicklessChunks : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TicklessChunks, SeededDeadlinesAtOddGridOffsets) {
  Case c;
  c.seed = GetParam();
  c.span = 1500000;
  // Seeds alternate between sub-tick chunks and long ones.
  c.min_chunk = c.seed % 2 == 0 ? 1 : 3000;
  c.max_chunk = c.seed % 2 == 0 ? 257 : 90000;
  c.build = BuildUnixMix;
  ExpectCrawlEqualsJump(c);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TicklessChunks, ::testing::Values(1, 2, 3, 4, 5, 6));

// The landing arithmetic near the top of the clock range: with nothing to
// wake them, every CPU lands on the first grid point at or after the
// deadline -- where the crawl would -- in one turn, without wrapping.
TEST(TicklessTest, DeadlineNearClockRangeEnd) {
  cktest::WorldOptions options;
  options.ck.quota_window = ~Cycles{0};
  cktest::TestWorld world(options);
  cksim::Machine& machine = world.machine();
  const Cycles tick = machine.cost().idle_tick;
  std::vector<Cycles> before;
  for (uint32_t i = 0; i < machine.cpu_count(); ++i) {
    before.push_back(machine.cpu(i).clock());
  }
  const Cycles deadline = ~Cycles{0} - 12345;
  const uint64_t idle_before = world.ck().stats().idle_turns;
  machine.RunUntil(deadline);
  uint64_t ticks = 0;
  for (uint32_t i = 0; i < machine.cpu_count(); ++i) {
    const Cycles k = (deadline - before[i] + tick - 1) / tick;
    EXPECT_EQ(machine.cpu(i).clock(), before[i] + k * tick) << "cpu " << i;
    ticks += k;
  }
  EXPECT_EQ(world.ck().stats().idle_turns - idle_before, ticks);
  EXPECT_EQ(world.ck().idle_skips(), machine.cpu_count());
}

// ---------------------------------------------------------------------------
// Tickless polling. QuietPoller is the file cache's pump in miniature: it
// claims every arrival due by its clock, and a poll that claims nothing
// charges nothing and promises quiet until the next arrival is due
// (kNoEvent when none is queued). Arrivals come from a schedule the case
// sets and from whatever the case wires to Arrive(): a busy sibling, a
// device, an app event, the test between two RunUntil calls.
// ---------------------------------------------------------------------------

class QuietPoller : public ck::NativeProgram {
 public:
  ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
    const Cycles now = ctx.api().now();
    ck::NativeOutcome outcome;
    if (!due_.empty() && *due_.begin() <= now) {
      due_.erase(due_.begin(), due_.upper_bound(now));
      claims.push_back(now);
      ctx.Charge(700 + (claims.size() % 3) * 61);
      if (on_claim) {
        on_claim(ctx);
      }
      return outcome;
    }
    outcome.quiet_until = due_.empty() ? cksim::Device::kNoEvent : *due_.begin();
    if (on_quiet) {
      outcome.quiet_until = std::min(outcome.quiet_until, on_quiet(ctx));
    }
    return outcome;
  }
  void OnSignal(cksim::VirtAddr addr, ck::NativeCtx& ctx) override {
    signals.push_back(ctx.api().now() ^ (uint64_t{addr} << 40));
    if (on_signal) {
      on_signal(ctx);
    }
  }
  void Arrive(Cycles at) { due_.insert(at); }

  std::vector<Cycles> claims;
  std::vector<Cycles> signals;
  std::function<void(ck::NativeCtx&)> on_claim;
  std::function<void(ck::NativeCtx&)> on_signal;
  // Runs in a poll that claims nothing; returns the clock until which it
  // stays quiet itself.
  std::function<Cycles(ck::NativeCtx&)> on_quiet;

 private:
  std::multiset<Cycles> due_;
};

// A world with one app kernel and a poller homed on `cpu`.
struct PollRig {
  ckapp::AppKernelBase* app = nullptr;
  uint32_t space = 0;
  QuietPoller* poller = nullptr;
  uint32_t poller_thread = 0;
};

PollRig AddPoller(Rig& rig, uint8_t cpu, uint8_t priority = 12,
                  const cksrm::LaunchParams& params = cksrm::LaunchParams()) {
  PollRig p;
  p.app = &rig.Make<ckapp::AppKernelBase>("poll", 64);
  p.space = LaunchApp(rig, *p.app, params);
  ck::CkApi api(rig.ck(), p.app->self(), rig.machine().cpu(0));
  p.poller = &rig.Make<QuietPoller>();
  p.poller_thread = p.app->CreateNativeThread(api, p.space, p.poller, priority, false, cpu);
  QuietPoller* poller = p.poller;
  rig.observe = [poller] { return Join(poller->claims) + "|" + Join(poller->signals); };
  return p;
}

// A seeded schedule of `count` arrivals from `start`, `gap` apart on average.
void ScheduleArrivals(QuietPoller& poller, Cycles start, uint32_t count, Cycles gap) {
  std::mt19937_64 rng(count * 7919 + gap);
  std::uniform_int_distribution<Cycles> jitter(0, gap / 2);
  for (uint32_t i = 0; i < count; ++i) {
    poller.Arrive(start + i * gap + jitter(rng));
  }
}

// A clock device whose tick page signals `thread`, in its own page group.
cksim::ClockDevice& AddTicker(Rig& rig, PollRig& p, uint32_t thread, Cycles first, Cycles period) {
  cksrm::Srm& srm = rig.world.srm();
  uint32_t group = srm.ReserveGroups(1).value();
  cksim::PhysAddr base = group * cksim::kPageGroupBytes;
  EXPECT_EQ(srm.GrantSharedGroups(*p.app, group, 1, ck::GroupAccess::kReadWrite), CkStatus::kOk);
  auto& clock = rig.Make<cksim::ClockDevice>(base, &rig.ck());
  rig.machine().AttachDevice(&clock);
  ck::CkApi api(rig.ck(), p.app->self(), rig.machine().cpu(0));
  p.app->DefineFrameRegion(p.space, 0x00700000, 1, base, false, true, thread);
  EXPECT_EQ(p.app->EnsureMappingLoaded(api, p.space, 0x00700000), CkStatus::kOk);
  clock.Start(rig.machine().Now() + first, period);
  return clock;
}

// Keeps its CPU busy and hands the poller an arrival, due at once, every
// few steps: the pump's bulk queue filled by a sibling CPU.
class Feeder : public ck::NativeProgram {
 public:
  Feeder(QuietPoller& poller, uint64_t every) : poller_(poller), every_(every) {}
  ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
    ++steps_;
    if (steps_ % every_ == 0) {
      poller_.Arrive(ctx.api().now());
    }
    ctx.Charge(1300 + (steps_ % 5) * 53);
    return Outcome(ck::NativeOutcome::Action::kYield);
  }

 private:
  QuietPoller& poller_;
  uint64_t every_;
  uint64_t steps_ = 0;
};

// Horizon term: the clock of every other CPU that can run a thread. Busy
// feeders on CPU 1 (below the poller) and CPU 3 (above it) add arrivals the
// poller's last promise did not know of.
TEST(TicklessTest, PollerBoundByBusySiblings) {
  Case c;
  c.build = [](Rig& rig) {
    PollRig p = AddPoller(rig, /*cpu=*/2);
    ck::CkApi api(rig.ck(), p.app->self(), rig.machine().cpu(0));
    auto& low = rig.Make<Feeder>(*p.poller, 7);
    auto& high = rig.Make<Feeder>(*p.poller, 11);
    p.app->CreateNativeThread(api, p.space, &low, 12, false, /*cpu=*/1);
    p.app->CreateNativeThread(api, p.space, &high, 12, false, /*cpu=*/3);
  };
  Snapshot jump = ExpectPollCrawlEqualsJump(c);
  EXPECT_GT(jump.stats.context_switches, 100u);
}

// A device whose events are arrivals: at each of its event clocks it hands
// the poller an arrival due at once. Nothing signals its page.
class ArrivalDevice : public cksim::Device {
 public:
  ArrivalDevice(cksim::PhysAddr page, QuietPoller& poller, Cycles first)
      : page_(page), poller_(poller), next_(first) {}
  cksim::PhysAddr region_base() const override { return page_; }
  uint32_t region_size() const override { return cksim::kPageSize; }
  Cycles NextEventAt() const override { return next_; }
  void Run(Cycles now) override {
    poller_.Arrive(now);
    ++runs;
    next_ = now + 31013 + (runs % 7) * 1129;
  }
  void OnDoorbell(cksim::PhysAddr, Cycles) override {}
  uint64_t runs = 0;

 private:
  cksim::PhysAddr page_;
  QuietPoller& poller_;
  Cycles next_;
};

// Horizon term: the next device event. The poller's queue is empty between
// device events, so it promises quiet for ever.
TEST(TicklessTest, PollerBoundByDeviceEvent) {
  Case c;
  c.build = [](Rig& rig) {
    PollRig p = AddPoller(rig, /*cpu=*/1);
    uint32_t group = rig.world.srm().ReserveGroups(1).value();
    auto& device = rig.Make<ArrivalDevice>(group * cksim::kPageGroupBytes, *p.poller,
                                           rig.machine().Now() + 20011);
    rig.machine().AttachDevice(&device);
  };
  ExpectPollCrawlEqualsJump(c);
}

// Horizon term: the first app event. Each claim schedules the next arrival
// as an app event.
TEST(TicklessTest, PollerBoundByAppEvent) {
  Case c;
  c.build = [](Rig& rig) {
    PollRig p = AddPoller(rig, /*cpu=*/1);
    QuietPoller* poller = p.poller;
    auto arrive = [poller](ck::CkApi& later) { poller->Arrive(later.now()); };
    p.poller->on_claim = [arrive, poller](ck::NativeCtx& ctx) {
      ctx.api().ScheduleAfter(24007 + (poller->claims.size() % 4) * 2203, arrive);
    };
    ck::CkApi api(rig.ck(), p.app->self(), rig.machine().cpu(0));
    api.ScheduleAfter(15013, arrive);
  };
  ExpectPollCrawlEqualsJump(c);
}

// Horizon term: every pending signal. A clock device ticks the poller's own
// page; each tick's signal is due one IPI latency after the device event.
TEST(TicklessTest, PollerBoundByPendingSignal) {
  Case c;
  c.build = [](Rig& rig) {
    PollRig p = AddPoller(rig, /*cpu=*/1);
    ScheduleArrivals(*p.poller, rig.machine().Now() + 9001, 60, 35011);
    AddTicker(rig, p, p.poller_thread, 13007, 41017);
  };
  Snapshot jump = ExpectPollCrawlEqualsJump(c);
  EXPECT_GT(jump.stats.signals_delivered_slow + jump.stats.signals_delivered_fast, 20u);
}

// Horizon term: the next tier scan. Tiering is on with a small DRAM budget,
// and each claim touches more pages than fit, so promotion scans move
// frames between tiers while the poller waits.
TEST(TicklessTest, PollerBoundByTierScan) {
  Case c;
  c.options.ck.tier_dram_frames = 24;
  c.options.ck.tier_promote_period = 20011;
  c.span = 3000000;
  c.build = [](Rig& rig) {
    cksrm::LaunchParams params;
    params.page_groups = 4;
    PollRig p = AddPoller(rig, /*cpu=*/2, 12, params);
    constexpr cksim::VirtAddr kBase = 0x40000000;
    constexpr uint32_t kPages = 48;
    p.app->DefineZeroRegion(p.space, kBase, kPages, /*writable=*/true);
    QuietPoller* poller = p.poller;
    p.poller->on_claim = [poller](ck::NativeCtx& ctx) {
      const uint32_t round = static_cast<uint32_t>(poller->claims.size());
      for (uint32_t i = 0; i < 8; ++i) {
        cksim::VirtAddr page = kBase + ((round * 5 + i * 3) % kPages) * cksim::kPageSize;
        ctx.StoreWord(page + 4, round);
      }
    };
    ScheduleArrivals(*p.poller, rig.machine().Now() + 7001, 70, 41011);
  };
  Snapshot jump = ExpectPollCrawlEqualsJump(c);
  EXPECT_GT(jump.stats.tier_demotions, 0u);
  EXPECT_GT(jump.stats.tier_promotions, 0u);
}

// Horizon term: the RunUntil deadline. Between two RunUntil calls the test
// hands the poller an arrival due at once, as a lockstep loop acting
// between steps would.
TEST(TicklessTest, PollerBoundByRunUntilDeadline) {
  Case c;
  c.min_chunk = 20000;
  c.max_chunk = 70000;
  c.build = [](Rig& rig) {
    PollRig p = AddPoller(rig, /*cpu=*/1);
    QuietPoller* poller = p.poller;
    cksim::Machine* machine = &rig.machine();
    rig.between = [poller, machine] { poller->Arrive(machine->Now()); };
  };
  ExpectPollCrawlEqualsJump(c);
}

// Horizon term: the promise itself. Nothing else wakes the poller before
// its next scheduled arrival.
TEST(TicklessTest, PollerBoundByItsPromise) {
  Case c;
  c.build = [](Rig& rig) {
    PollRig p = AddPoller(rig, /*cpu=*/1);
    ScheduleArrivals(*p.poller, rig.machine().Now() + 5003, 80, 23011);
  };
  Snapshot jump = ExpectPollCrawlEqualsJump(c);
  EXPECT_GT(jump.poll_skips, 60u);
}

// Spins at its priority, charging a little per step.
class Spinner : public ck::NativeProgram {
 public:
  ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
    ctx.Charge(900 + (++steps_ % 3) * 71);
    return Outcome(ck::NativeOutcome::Action::kYield);
  }

 private:
  uint64_t steps_ = 0;
};

// Stop: slice expiry. A spinner of the same priority shares the poller's
// CPU, so every slice end hands the CPU over, round-robin.
TEST(TicklessTest, PollerStopsAtSliceExpiry) {
  Case c;
  c.span = 4000000;
  c.build = [](Rig& rig) {
    PollRig p = AddPoller(rig, /*cpu=*/1);
    ScheduleArrivals(*p.poller, rig.machine().Now() + 5003, 40, 47017);
    ck::CkApi api(rig.ck(), p.app->self(), rig.machine().cpu(0));
    auto& spinner = rig.Make<Spinner>();
    p.app->CreateNativeThread(api, p.space, &spinner, 12, false, /*cpu=*/1);
  };
  Snapshot jump = ExpectPollCrawlEqualsJump(c);
  // A poll charges its thread one instruction, so a poller's slice lasts
  // kTimeSlice / 2 polls.
  EXPECT_GT(jump.stats.preemptions, 16u);
}

// Stop: a quota flip. The poller's kernel has 2% of CPU 1 and a
// well-behaved kernel's lower-priority spinner is always ready there: the
// poll that degrades the poller's kernel must end the skip, because the
// crawl's next turn hands the CPU to the spinner.
TEST(TicklessTest, PollerStopsAtQuotaFlip) {
  Case c;
  c.options.ck.enforce_quotas = true;
  c.options.ck.quota_window = 500000;
  c.span = 3000000;
  c.build = [](Rig& rig) {
    cksrm::LaunchParams params;
    params.cpu_percent[1] = 2;
    PollRig p = AddPoller(rig, /*cpu=*/1, 12, params);
    ScheduleArrivals(*p.poller, rig.machine().Now() + 5003, 60, 47017);
    auto& polite = rig.Make<ckapp::AppKernelBase>("polite", 16);
    uint32_t space = LaunchApp(rig, polite);
    ck::CkApi api(rig.ck(), polite.self(), rig.machine().cpu(0));
    auto& spinner = rig.Make<Spinner>();
    polite.CreateNativeThread(api, space, &spinner, 8, false, /*cpu=*/1);
  };
  Snapshot jump = ExpectPollCrawlEqualsJump(c);
  EXPECT_GT(jump.stats.quota_degradations, 3u);
}

// Stop: a higher-priority thread ready on the poller's CPU. The poller's
// signal handler resumes a higher-priority sleeper homed on its CPU; the
// crawl's next turn preempts the poller for it.
TEST(TicklessTest, PollerStopsForHigherPriorityThread) {
  Case c;
  c.build = [](Rig& rig) {
    PollRig p = AddPoller(rig, /*cpu=*/1, 10);
    ScheduleArrivals(*p.poller, rig.machine().Now() + 5003, 60, 33013);
    ck::CkApi api(rig.ck(), p.app->self(), rig.machine().cpu(0));
    auto& sleeper = rig.Make<Sleeper>(310);
    uint32_t t_sleeper = p.app->CreateNativeThread(api, p.space, &sleeper, 20, false, 1);
    ck::ThreadId sleeper_id = p.app->thread(t_sleeper).ck_id;
    p.poller->on_signal = [sleeper_id](ck::NativeCtx& ctx) { ctx.api().ResumeThread(sleeper_id); };
    AddTicker(rig, p, p.poller_thread, 13007, 41017);
    QuietPoller* poller = p.poller;
    rig.observe = [poller, &sleeper] {
      return Join(poller->claims) + "|" + Join(poller->signals) + "|" + Join(sleeper.runs);
    };
  };
  Snapshot jump = ExpectPollCrawlEqualsJump(c);
  EXPECT_GT(jump.stats.preemptions, 20u);
}

// Stop: a signal queued for the poller. The case's cost model makes the
// signal path free, so a step that claims nothing can signal the poller's
// own page, every 29017 cycles, at no charge and still promise quiet until
// its next signal or arrival. The signal it queued must end the turn: the
// crawl's next turn delivers it before polling.
TEST(TicklessTest, PollerStopsForQueuedSignal) {
  Case c;
  cksim::CostModel& cost_model = c.options.cost;
  for (cksim::Cycles* cost :
       {&cost_model.trap_entry, &cost_model.trap_exit, &cost_model.call_gate, &cost_model.tlb_hit,
        &cost_model.tlb_fill, &cost_model.table_walk_level, &cost_model.pte_write,
        &cost_model.signal_deliver_fast, &cost_model.signal_deliver_slow}) {
    *cost = 0;
  }
  c.build = [](Rig& rig) {
    PollRig p = AddPoller(rig, /*cpu=*/1);
    ScheduleArrivals(*p.poller, rig.machine().Now() + 5003, 60, 33013);
    ck::CkApi api(rig.ck(), p.app->self(), rig.machine().cpu(0));
    constexpr cksim::VirtAddr kSend = 0x00800000;
    constexpr cksim::VirtAddr kRecv = 0x00900000;
    cksim::PhysAddr frame = p.app->frames().Allocate();
    p.app->DefineFrameRegion(p.space, kSend, 1, frame, true, true);
    p.app->DefineFrameRegion(p.space, kRecv, 1, frame, false, true, p.poller_thread);
    EXPECT_EQ(p.app->EnsureMappingLoaded(api, p.space, kSend), CkStatus::kOk);
    EXPECT_EQ(p.app->EnsureMappingLoaded(api, p.space, kRecv), CkStatus::kOk);
    ck::SpaceId space = p.app->space(p.space).ck_id;
    auto pings = std::make_shared<std::vector<Cycles>>();
    rig.owned.push_back(pings);
    p.poller->on_quiet = [pings, space](ck::NativeCtx& ctx) {
      const Cycles now = ctx.api().now();
      if (pings->empty() || now >= pings->back() + 29017) {
        EXPECT_EQ(ctx.api().Signal(space, kSend), CkStatus::kOk);
        EXPECT_EQ(ctx.api().now(), now) << "the signal was not free";
        pings->push_back(now);
      }
      return pings->back() + 29017;
    };
    QuietPoller* poller = p.poller;
    rig.observe = [poller, pings] {
      EXPECT_GT(pings->size(), 20u);
      return Join(poller->claims) + "|" + Join(poller->signals) + "|" + Join(*pings);
    };
  };
  ExpectPollCrawlEqualsJump(c);
}

}  // namespace
