// Tests for the conservative parallel cluster driver (src/sim/cluster.h).
//
// The heart of the file is the differential suite: the full multi-MPM
// scenario (cross-machine RPC, live migration over the bulk path, periodic
// checkpointing, MPM failure, crash failover) is run twice per window size --
// once on the single-threaded reference driver, once on host worker threads
// -- and every observable (RPC payloads, migration outcome and digest,
// restored process consoles/pids/exit codes, per-machine CkStats, final
// machine clocks, window count) must be bit-exact. The sweep covers three
// window sizes at and below the lookahead.
//
// Window size moves the barrier points, so time-dependent observables (CPU
// clocks, stats) legitimately differ ACROSS window sizes; semantic outcomes
// (what was computed, what migrated, what survived the failover) must not.
// A separate test pins that down.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/appkernel/channel.h"
#include "src/ckpt/checkpoint.h"
#include "src/isa/assembler.h"
#include "src/sim/cluster.h"
#include "src/sim/devices.h"
#include "src/sim/machine.h"
#include "src/srm/srm.h"
#include "src/unixemu/unix_emulator.h"

namespace {

using cksim::Cycles;

// ---------------------------------------------------------------------------
// Cluster unit tests
// ---------------------------------------------------------------------------

class IdleClient : public cksim::MachineClient {
 public:
  void OnCpuTurn(cksim::Cpu& cpu) override { cpu.Advance(100); }
};

class RecordingSink : public cksim::SignalSink {
 public:
  void SignalPhysical(cksim::PhysAddr addr, Cycles when) override {
    addrs.push_back(addr);
    times.push_back(when);
  }
  std::vector<cksim::PhysAddr> addrs;
  std::vector<Cycles> times;
};

TEST(ClusterTest, LookaheadIsMinimumLinkLatencyAndWindowClamps) {
  cksim::MachineConfig config;
  cksim::Machine m0(config), m1(config), m2(config);
  RecordingSink s0, s1a, s1b, s2;
  cksim::FiberChannelDevice fc0(m0.memory(), &s0, 0x20000, 2, 2, 2500);
  cksim::FiberChannelDevice fc1a(m1.memory(), &s1a, 0x20000, 2, 2, 2500);
  cksim::FiberChannelDevice fc1b(m1.memory(), &s1b, 0x30000, 2, 2, 900);
  cksim::FiberChannelDevice fc2(m2.memory(), &s2, 0x20000, 2, 2, 900);

  cksim::Cluster cluster;
  cluster.AddMachine(&m0);
  cluster.AddMachine(&m1);
  cluster.AddMachine(&m2);
  EXPECT_EQ(cluster.lookahead(), cksim::Cluster::kNoLookahead);
  EXPECT_GT(cluster.window(), 0u) << "unlinked machines still get finite windows";

  cluster.Link(fc0, fc1a);
  EXPECT_EQ(cluster.lookahead(), 2500u);
  cluster.Link(fc1b, fc2);
  EXPECT_EQ(cluster.lookahead(), 900u) << "lookahead is the minimum over links";
  EXPECT_EQ(cluster.window(), 900u) << "default window is the lookahead";

  cluster.set_window(500);
  EXPECT_EQ(cluster.window(), 500u);
  cluster.set_window(100000);
  EXPECT_EQ(cluster.window(), 900u) << "window above lookahead must clamp";
  cluster.set_window(0);
  EXPECT_EQ(cluster.window(), 900u);
}

TEST(ClusterTest, LinkSwitchesEndpointsToDeferredDelivery) {
  cksim::MachineConfig config;
  cksim::Machine a(config), b(config);
  RecordingSink sink_a, sink_b;
  cksim::FiberChannelDevice fca(a.memory(), &sink_a, 0x20000, 2, 2, 2500);
  cksim::FiberChannelDevice fcb(b.memory(), &sink_b, 0x20000, 2, 2, 2500);
  EXPECT_FALSE(fca.deferred_delivery());

  cksim::Cluster cluster;
  cluster.AddMachine(&a);
  cluster.AddMachine(&b);
  cluster.Link(fca, fcb);
  a.AttachDevice(&fca);
  b.AttachDevice(&fcb);
  EXPECT_TRUE(fca.deferred_delivery());
  EXPECT_TRUE(fcb.deferred_delivery());

  // A deferred transmit stays in the sender's outbox until flushed, then
  // arrives at the peer with the send-time-stamped due time.
  IdleClient ca, cb;
  a.AttachKernel(&ca);
  b.AttachKernel(&cb);
  const char payload[] = "pkt";
  uint32_t len = sizeof(payload);
  a.memory().WriteWord(fca.tx_slot(0), len);
  a.memory().Write(fca.tx_slot(0) + 4, payload, len);
  fca.OnDoorbell(fca.tx_slot(0), 100);

  b.RunUntil(10000);
  EXPECT_TRUE(sink_b.addrs.empty()) << "delivery must wait for the barrier flush";
  EXPECT_EQ(fca.FlushOutbox(), 1u);
  b.RunUntil(20000);
  ASSERT_EQ(sink_b.addrs.size(), 1u);
  EXPECT_EQ(sink_b.times[0], 100u + 2500u) << "due time is send time + wire latency";
}

TEST(ClusterTest, RunUntilAdvancesAllMachinesAndSkipsHalted) {
  cksim::MachineConfig config;
  cksim::Machine a(config), b(config);
  IdleClient ca, cb;
  a.AttachKernel(&ca);
  b.AttachKernel(&cb);
  cksim::Cluster cluster;
  cluster.AddMachine(&a);
  cluster.AddMachine(&b);
  cluster.set_window(1000);
  cluster.set_parallel(false);

  cluster.RunUntil(5000);
  EXPECT_GE(a.Now(), 5000u);
  EXPECT_GE(b.Now(), 5000u);
  EXPECT_GE(cluster.windows_run(), 5u);

  a.Halt();
  Cycles b_before = b.Now();
  cluster.RunFor(3000);
  EXPECT_GE(b.Now(), b_before + 3000) << "surviving machine keeps running";
  EXPECT_LT(a.Now(), b.Now()) << "halted machine's clock is frozen";
}

// ---------------------------------------------------------------------------
// The differential scenario
// ---------------------------------------------------------------------------

ckisa::Program MustAssemble(const char* source, uint32_t base = 0x10000) {
  ckisa::AssembleResult result = ckisa::Assemble(source, base);
  EXPECT_TRUE(result.ok) << result.error;
  return result.program;
}

// Guest workload for the failover act (same programs as examples/multi_mpm).
constexpr const char* kTickerSrc = R"(
      addi s0, r0, 4
  loop:
      la   a0, msg
      addi a1, r0, 4
      trap 18         ; write "tik."
      li   a0, 12000
      trap 20         ; sleep 12ms
      addi s0, s0, -1
      beq  s0, r0, done
      j    loop
  done:
      addi a0, r0, 7
      trap 17
  msg:
      .word 0x2e6b6974
)";

constexpr const char* kChildSrc = R"(
      la   a0, msg
      addi a1, r0, 3
      trap 18         ; write "c!\n"
      addi a0, r0, 9
      trap 17
  msg:
      .word 0x000a2163
)";

constexpr const char* kSpawnerSrc = R"(
      addi a0, r0, 0
      trap 24         ; spawn(program 0)
      trap 25         ; waitpid -> child exit code
      addi a0, a0, 1
      trap 17
)";

struct Node {
  Node() : machine(cksim::MachineConfig()), ck(machine, ck::CacheKernelConfig()), srm(ck) {
    srm.Boot();
  }
  cksim::Machine machine;
  ck::CacheKernel ck;
  cksrm::Srm srm;
};

using Digest = std::vector<std::pair<std::string, uint64_t>>;

struct Observables {
  bool rpc_ok = true;
  std::vector<uint64_t> rpc_answers;

  bool migration_ok = false;
  Digest migrated_digest;

  bool checkpoints_ok = true;  // each checkpoint wait reached its console target
  bool failover_ok = false;
  uint32_t restored_processes = 0;
  std::vector<int> pids;
  std::vector<int> exit_codes;
  std::vector<std::string> consoles;
  size_t store_bytes = 0;

  ck::CkStats stats_a;
  ck::CkStats stats_b;
  Cycles clock_a = 0;
  Cycles clock_b = 0;
  uint64_t windows = 0;

  // Observability state: per-tenant cost accounts (POD, memcmp-compared),
  // deterministic span allocation counts, trace-event volume and the
  // flattened profiler histograms must all match bit-exactly too --
  // enabling tracing/attribution/profiling must not perturb the simulation,
  // and the observability data itself must be deterministic.
  std::vector<ck::CostAccount> tenants_a;
  std::vector<ck::CostAccount> tenants_b;
  uint64_t spans_a = 0;
  uint64_t spans_b = 0;
  uint64_t trace_pushed_a = 0;
  uint64_t trace_pushed_b = 0;
  uint64_t prof_samples_a = 0;
  uint64_t prof_samples_b = 0;
  std::vector<std::map<uint32_t, uint64_t>> profile_a;
  std::vector<std::map<uint32_t, uint64_t>> profile_b;
};

// The multi_mpm scenario, driven entirely through the Cluster so the serial
// and parallel executions share one window schedule. All SRM calls and guest
// state reads happen in done-predicates or between RunUntilDone calls, i.e.
// at barriers, as the Cluster thread-safety contract requires.
Observables RunScenario(bool parallel, Cycles window) {
  Observables obs;
  Node a, b;
  cksim::Cluster cluster;
  cluster.AddMachine(&a.machine);
  cluster.AddMachine(&b.machine);
  cluster.set_parallel(parallel);
  cluster.set_window(window);

  // Full observability on: per-CPU tracing and the sampling profiler run
  // during the differential, so the serial/parallel comparison also proves
  // they do not perturb (and are themselves) deterministic.
  a.machine.EnableTracing(/*capacity_per_cpu=*/4096);
  b.machine.EnableTracing(/*capacity_per_cpu=*/4096);
  a.ck.set_profile_period(5000);
  b.ck.set_profile_period(5000);

  uint32_t group_a = a.srm.ReserveGroups(1).value();
  uint32_t group_b = b.srm.ReserveGroups(1).value();
  cksim::FiberChannelDevice fc_a(a.machine.memory(), &a.ck, group_a * cksim::kPageGroupBytes, 4,
                                 4, 2500);
  cksim::FiberChannelDevice fc_b(b.machine.memory(), &b.ck, group_b * cksim::kPageGroupBytes, 4,
                                 4, 2500);
  cluster.Link(fc_a, fc_b);
  a.machine.AttachDevice(&fc_a);
  b.machine.AttachDevice(&fc_b);

  // --- Act 1: cross-machine RPC ---
  ckapp::AppKernelBase app_a("dispatcher", 64), app_b("compute-node", 64);
  cksrm::LaunchParams params;
  params.page_groups = 2;
  a.srm.Launch(app_a, params);
  b.srm.Launch(app_b, params);
  a.srm.GrantSharedGroups(app_a, group_a, 1, ck::GroupAccess::kReadWrite);
  b.srm.GrantSharedGroups(app_b, group_b, 1, ck::GroupAccess::kReadWrite);

  ck::CkApi api_a(a.ck, app_a.self(), a.machine.cpu(0));
  ck::CkApi api_b(b.ck, app_b.self(), b.machine.cpu(0));
  uint32_t space_a = app_a.CreateSpace(api_a);
  uint32_t space_b = app_b.CreateSpace(api_b);

  ckapp::MessageChannel requests, replies;
  ckapp::RpcServer server(requests, replies,
                          [](uint32_t op, const std::vector<uint8_t>& in, ck::CkApi&) {
                            std::vector<uint8_t> out(8, 0);
                            if (op == 1 && in.size() >= 4) {
                              uint32_t n;
                              std::memcpy(&n, in.data(), 4);
                              uint64_t sum = 0;
                              for (uint64_t i = 1; i <= n; ++i) {
                                sum += i * i;
                              }
                              std::memcpy(out.data(), &sum, 8);
                            }
                            return out;
                          });
  ckapp::RpcClient client(requests, replies);

  uint32_t server_thread = app_b.CreateNativeThread(api_b, space_b, &server, 16);
  uint32_t client_thread = app_a.CreateNativeThread(api_a, space_a, &client, 16);
  requests.ConfigureSender(app_a, space_a, 0x00800000, fc_a.tx_slot(0), 2);
  requests.ConfigureReceiver(app_b, space_b, 0x00900000, fc_b.rx_slot(0), 4, server_thread);
  replies.ConfigureSender(app_b, space_b, 0x00a00000, fc_b.tx_slot(2), 2);
  replies.ConfigureReceiver(app_a, space_a, 0x00b00000, fc_a.rx_slot(0), 4, client_thread);
  requests.PrimeReceiver(api_b);
  replies.PrimeReceiver(api_a);

  for (uint32_t n = 10; n <= 30; n += 10) {
    uint64_t answer = 0;
    std::vector<uint8_t> arg(4);
    std::memcpy(arg.data(), &n, 4);
    client.Call(api_a, 1, arg, [&answer](const std::vector<uint8_t>& reply, ck::CkApi&) {
      std::memcpy(&answer, reply.data(), 8);
    });
    if (!cluster.RunUntilDone([&] { return answer != 0; }, 50000000)) {
      obs.rpc_ok = false;
      break;
    }
    obs.rpc_answers.push_back(answer);
  }

  // --- Act 2: live migration A -> B over the bulk path ---
  ckapp::AppKernelBase pay_a("payload", 512), pay_b("payload", 512);
  {
    cksrm::LaunchParams pay_params;
    pay_params.page_groups = 4;
    a.srm.Launch(pay_a, pay_params);
    ck::CkApi pay_api(a.ck, pay_a.self(), a.machine.cpu(0));
    uint32_t sp = pay_a.CreateSpace(pay_api);
    pay_a.DefineZeroRegion(sp, 0x40000000, 16, /*writable=*/true);
    for (uint32_t p = 0; p < 16; ++p) {
      uint32_t value = 0xc0de0000 + p;
      pay_a.WriteGuest(pay_api, sp, 0x40000000 + p * cksim::kPageSize, &value, 4);
    }
  }
  a.srm.Migrate(pay_a, fc_a);
  std::string error;
  ckbase::CkStatus accepted = ckbase::CkStatus::kRetry;
  cluster.RunUntilDone(
      [&] {
        accepted = b.srm.AcceptMigration(fc_b, pay_b, ckckpt::RestoreOptions{}, &error);
        return accepted != ckbase::CkStatus::kRetry;
      },
      200000000);
  obs.migration_ok = accepted == ckbase::CkStatus::kOk;
  if (obs.migration_ok) {
    ck::CkApi pay_api_b(b.ck, pay_b.self(), b.machine.cpu(0));
    obs.migrated_digest = ckckpt::AppKernelState::Digest(pay_b, pay_api_b);
  }

  // --- Act 3: UNIX emulator on A, periodic checkpoints to stable store ---
  cksim::StableStore store;
  ckunix::UnixEmulator emu_a(a.ck);
  cksrm::LaunchParams unix_params;
  unix_params.page_groups = 8;
  unix_params.max_priority = 31;
  unix_params.locked_kernel_object = true;
  a.srm.Launch(emu_a, unix_params);
  ck::CkApi unix_api(a.ck, emu_a.self(), a.machine.cpu(0));
  emu_a.Start(unix_api);
  emu_a.RegisterProgram(MustAssemble(kChildSrc));
  int ticker = emu_a.Exec(unix_api, MustAssemble(kTickerSrc));
  int spawner = emu_a.Exec(unix_api, MustAssemble(kSpawnerSrc));
  (void)spawner;

  for (size_t target : {4u, 8u}) {
    if (!cluster.RunUntilDone([&] { return emu_a.process(ticker).console.size() >= target; },
                              100000000)) {
      obs.checkpoints_ok = false;
    }
    a.srm.CheckpointToStore(emu_a, store, "unix-emulator");
  }
  obs.store_bytes = store.bytes_written();

  // --- Act 4: MPM failure on A, crash failover to B ---
  a.machine.Halt();
  ckunix::UnixEmulator emu_b(b.ck);
  obs.failover_ok = b.srm.RestoreFromStore(emu_b, store, "unix-emulator",
                                           ckckpt::RestoreOptions{}, &error) ==
                    ckbase::CkStatus::kOk;
  if (obs.failover_ok) {
    obs.restored_processes = emu_b.process_count();
    cluster.RunUntilDone([&] { return emu_b.AllExited(); }, 200000000);
    for (uint32_t p = 1; p <= emu_b.process_count(); ++p) {
      const ckunix::Process& proc = emu_b.process(p);
      obs.pids.push_back(proc.pid);
      obs.exit_codes.push_back(proc.exit_code);
      obs.consoles.push_back(proc.console);
    }
  }

  obs.stats_a = a.ck.stats();
  obs.stats_b = b.ck.stats();
  obs.clock_a = a.machine.Now();
  obs.clock_b = b.machine.Now();
  obs.windows = cluster.windows_run();
  obs.tenants_a = a.ck.tenant_accounts();
  obs.tenants_b = b.ck.tenant_accounts();
  obs.spans_a = a.machine.spans_allocated();
  obs.spans_b = b.machine.spans_allocated();
  obs.trace_pushed_a = a.machine.tracer()->total_pushed();
  obs.trace_pushed_b = b.machine.tracer()->total_pushed();
  obs.prof_samples_a = a.ck.profile_samples_total();
  obs.prof_samples_b = b.ck.profile_samples_total();
  obs.profile_a = a.ck.profile_pcs();
  obs.profile_b = b.ck.profile_pcs();
  return obs;
}

// Scenario runs are expensive; each (mode, window) pair is computed once and
// shared by the differential and cross-window tests.
const Observables& CachedScenario(bool parallel, Cycles window) {
  static std::map<std::pair<bool, Cycles>, Observables> cache;
  auto key = std::make_pair(parallel, window);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, RunScenario(parallel, window)).first;
  }
  return it->second;
}

void ExpectScenarioSucceeded(const Observables& obs) {
  EXPECT_TRUE(obs.rpc_ok);
  ASSERT_EQ(obs.rpc_answers.size(), 3u);
  EXPECT_EQ(obs.rpc_answers[0], 385u);    // sum of squares 1..10
  EXPECT_EQ(obs.rpc_answers[1], 2870u);   // 1..20
  EXPECT_EQ(obs.rpc_answers[2], 9455u);   // 1..30
  EXPECT_TRUE(obs.migration_ok);
  EXPECT_FALSE(obs.migrated_digest.empty());
  EXPECT_TRUE(obs.checkpoints_ok);
  EXPECT_TRUE(obs.failover_ok);
  ASSERT_EQ(obs.restored_processes, 3u);  // ticker, spawner, spawned child
  EXPECT_EQ(obs.consoles[0], "tik.tik.tik.tik.");
  EXPECT_EQ(obs.exit_codes[0], 7);
  EXPECT_EQ(obs.exit_codes[1], 10);       // child exit 9 + 1
  // The observability machinery was really on: spans allocated on both
  // machines (faults, IPC, SRM ops), trace events recorded, guest PCs
  // sampled wherever guest code ran.
  EXPECT_GT(obs.spans_a, 0u);
  EXPECT_GT(obs.spans_b, 0u);
  EXPECT_GT(obs.trace_pushed_a, 0u);
  EXPECT_GT(obs.trace_pushed_b, 0u);
  EXPECT_GT(obs.prof_samples_a, 0u);
  EXPECT_GT(obs.prof_samples_b, 0u);
}

void ExpectIdentical(const Observables& serial, const Observables& par) {
  EXPECT_EQ(serial.rpc_ok, par.rpc_ok);
  EXPECT_EQ(serial.rpc_answers, par.rpc_answers);
  EXPECT_EQ(serial.migration_ok, par.migration_ok);
  EXPECT_EQ(serial.migrated_digest, par.migrated_digest);
  EXPECT_EQ(serial.checkpoints_ok, par.checkpoints_ok);
  EXPECT_EQ(serial.failover_ok, par.failover_ok);
  EXPECT_EQ(serial.restored_processes, par.restored_processes);
  EXPECT_EQ(serial.pids, par.pids);
  EXPECT_EQ(serial.exit_codes, par.exit_codes);
  EXPECT_EQ(serial.consoles, par.consoles);
  EXPECT_EQ(serial.store_bytes, par.store_bytes);
  EXPECT_EQ(serial.clock_a, par.clock_a) << "machine A clock diverged";
  EXPECT_EQ(serial.clock_b, par.clock_b) << "machine B clock diverged";
  EXPECT_EQ(serial.windows, par.windows);
  EXPECT_EQ(0, std::memcmp(&serial.stats_a, &par.stats_a, sizeof(ck::CkStats)))
      << "CkStats diverged on machine A";
  EXPECT_EQ(0, std::memcmp(&serial.stats_b, &par.stats_b, sizeof(ck::CkStats)))
      << "CkStats diverged on machine B";
  auto expect_tenants_equal = [](const std::vector<ck::CostAccount>& s,
                                 const std::vector<ck::CostAccount>& p, const char* which) {
    ASSERT_EQ(s.size(), p.size());
    EXPECT_EQ(0, std::memcmp(s.data(), p.data(), s.size() * sizeof(ck::CostAccount)))
        << "tenant cost accounts diverged on machine " << which;
  };
  expect_tenants_equal(serial.tenants_a, par.tenants_a, "A");
  expect_tenants_equal(serial.tenants_b, par.tenants_b, "B");
  EXPECT_EQ(serial.spans_a, par.spans_a) << "span allocation diverged on machine A";
  EXPECT_EQ(serial.spans_b, par.spans_b) << "span allocation diverged on machine B";
  EXPECT_EQ(serial.trace_pushed_a, par.trace_pushed_a) << "trace volume diverged on machine A";
  EXPECT_EQ(serial.trace_pushed_b, par.trace_pushed_b) << "trace volume diverged on machine B";
  EXPECT_EQ(serial.prof_samples_a, par.prof_samples_a);
  EXPECT_EQ(serial.prof_samples_b, par.prof_samples_b);
  EXPECT_EQ(serial.profile_a, par.profile_a) << "profiler histograms diverged on machine A";
  EXPECT_EQ(serial.profile_b, par.profile_b) << "profiler histograms diverged on machine B";
}

class ClusterDifferentialTest : public ::testing::TestWithParam<Cycles> {};

TEST_P(ClusterDifferentialTest, ParallelIsBitExactAgainstSerialReference) {
  Cycles window = GetParam();
  const Observables& serial = CachedScenario(/*parallel=*/false, window);
  {
    SCOPED_TRACE("serial baseline");
    ExpectScenarioSucceeded(serial);
  }
  const Observables& par = CachedScenario(/*parallel=*/true, window);
  ExpectIdentical(serial, par);
}

// Window sizes: the lookahead itself, half of it, and a fifth of it.
INSTANTIATE_TEST_SUITE_P(WindowSweep, ClusterDifferentialTest,
                         ::testing::Values(2500, 1250, 500));

TEST(ClusterDifferentialTest, SemanticOutcomesInvariantAcrossWindowSizes) {
  // Barrier placement moves with the window, so clocks and stats legitimately
  // shift between window sizes -- but what was computed must not.
  const Observables& w2500 = CachedScenario(false, 2500);
  for (Cycles window : {Cycles{1250}, Cycles{500}}) {
    const Observables& other = CachedScenario(false, window);
    SCOPED_TRACE("window " + std::to_string(window));
    EXPECT_EQ(w2500.rpc_answers, other.rpc_answers);
    EXPECT_EQ(w2500.migration_ok, other.migration_ok);
    EXPECT_EQ(w2500.failover_ok, other.failover_ok);
    EXPECT_EQ(w2500.restored_processes, other.restored_processes);
    EXPECT_EQ(w2500.pids, other.pids);
    EXPECT_EQ(w2500.exit_codes, other.exit_codes);
    EXPECT_EQ(w2500.consoles, other.consoles);
  }
}

}  // namespace
