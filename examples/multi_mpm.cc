// Multi-MPM example: two machines, one Cache Kernel each, fiber-channel
// interconnect, cross-machine RPC, and fault containment (Figures 4 and 5).
//
//   $ ./multi_mpm            # machines on parallel host threads (default)
//   $ ./multi_mpm --serial   # single-threaded reference driver
//
// Act 1: node A's application kernel farms work items to node B over the RPC
// facility. Act 2: node A's MPM is halted (a simulated hardware failure);
// node B keeps running -- "a failure in one MPM does not need to impact
// other kernels" (section 3). Act 3: crash failover -- a UNIX emulator that
// was running on node A, periodically checkpointed to stable store, is
// restarted by node B's SRM from the last image; its guest processes resume
// with stable pids and only the work since that checkpoint is redone
// (docs/CHECKPOINT.md).
//
// Both machines are driven by the conservative parallel cluster driver
// (src/sim/cluster.h): the fiber channel's wire latency is the lookahead, and
// the two modes produce bit-exact results (tests/cluster_test.cc,
// docs/PERFORMANCE.md "Cluster parallelism").

#include <cstdio>
#include <cstring>

#include "src/appkernel/channel.h"
#include "src/isa/assembler.h"
#include "src/sim/cluster.h"
#include "src/sim/devices.h"
#include "src/sim/machine.h"
#include "src/srm/srm.h"
#include "src/ck/observability.h"
#include "src/unixemu/unix_emulator.h"

namespace {

struct Node {
  Node() : machine(cksim::MachineConfig()), ck(machine, ck::CacheKernelConfig()), srm(ck) {
    srm.Boot();
  }
  cksim::Machine machine;
  ck::CacheKernel ck;
  cksrm::Srm srm;
};

ckisa::Program MustAssemble(const char* source, uint32_t base = 0x10000) {
  ckisa::AssembleResult result = ckisa::Assemble(source, base);
  if (!result.ok) {
    std::fprintf(stderr, "assemble error: %s\n", result.error.c_str());
    std::exit(1);
  }
  return result.program;
}

// Guest workload for the failover act: a ticker that writes and sleeps, and
// a spawner that waits on a child. Output is deterministic per process.
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

}  // namespace

int main(int argc, char** argv) {
  ck::ObsSession obs(argc, argv, {"--serial"});
  bool parallel = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--serial") == 0) {
      parallel = false;
    }
  }
  Node a, b;
  obs.Attach(a.machine, &a.ck);
  obs.Attach(b.machine, &b.ck);
  // SRM lifecycle events (failover, failed restore preflights) trigger a
  // flight record when --flight-recorder=<dir> is armed.
  a.srm.set_event_hook([&obs](const std::string& what) { obs.DumpFlightRecord(what); });
  b.srm.set_event_hook([&obs](const std::string& what) { obs.DumpFlightRecord(what); });

  // Fiber channel: one device per node; the cluster connects the endpoints,
  // switches them to barrier-exchanged delivery and derives its lookahead
  // from the wire latency. Device regions are reserved by each SRM.
  uint32_t group_a = a.srm.ReserveGroups(1).value();
  uint32_t group_b = b.srm.ReserveGroups(1).value();
  cksim::FiberChannelDevice fc_a(a.machine.memory(), &a.ck, group_a * cksim::kPageGroupBytes, 4,
                                 4, 2500);
  cksim::FiberChannelDevice fc_b(b.machine.memory(), &b.ck, group_b * cksim::kPageGroupBytes, 4,
                                 4, 2500);
  cksim::Cluster cluster;
  cluster.AddMachine(&a.machine);
  cluster.AddMachine(&b.machine);
  cluster.Link(fc_a, fc_b);
  cluster.set_parallel(parallel);
  a.machine.AttachDevice(&fc_a);
  b.machine.AttachDevice(&fc_b);
  std::printf("cluster: %u machines, %s driver, lookahead %llu cycles\n",
              cluster.machine_count(), parallel ? "parallel" : "serial reference",
              static_cast<unsigned long long>(cluster.lookahead()));

  // One app kernel per node.
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

  // RPC: requests A->B, replies B->A. Op 1 = "sum of squares up to n".
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

  // Drive both machines through the cluster's window protocol. The predicate
  // is evaluated at barriers, where cross-machine state is quiescent.
  auto run_both = [&](const std::function<bool()>& done, cksim::Cycles max_cycles) {
    return cluster.RunUntilDone(done, max_cycles);
  };

  // Dispatch three jobs to node B.
  std::printf("dispatching jobs from node A to node B over the fiber channel...\n");
  for (uint32_t n = 10; n <= 30; n += 10) {
    uint64_t answer = 0;
    std::vector<uint8_t> arg(4);
    std::memcpy(arg.data(), &n, 4);
    client.Call(api_a, 1, arg, [&answer](const std::vector<uint8_t>& reply, ck::CkApi&) {
      std::memcpy(&answer, reply.data(), 8);
    });
    if (!run_both([&] { return answer != 0; }, cksim::Cycles{200000000})) {
      std::printf("  job n=%u: TIMED OUT\n", n);
      return 1;
    }
    std::printf("  sum of squares 1..%u = %llu (computed on node B)\n", n,
                static_cast<unsigned long long>(answer));
  }

  // A UNIX emulator on node A, checkpointed periodically to stable store
  // (simulated NVRAM reachable from both MPMs).
  std::printf("\nstarting UNIX emulator on node A, checkpointing to stable store...\n");
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

  // Run until the ticker is mid-sequence, checkpointing as it goes.
  for (size_t target : {4u, 8u}) {
    if (!run_both([&] { return emu_a.process(ticker).console.size() >= target; },
                  cksim::Cycles{200000000})) {
      std::printf("  ticker TIMED OUT before console=%zu\n", target);
      return 1;
    }
    if (a.srm.CheckpointToStore(emu_a, store, "unix-emulator") != ckbase::CkStatus::kOk) {
      std::printf("  checkpoint FAILED\n");
      return 1;
    }
    std::printf("  checkpoint at console=\"%s\" (%zu bytes to stable store)\n",
                emu_a.process(ticker).console.c_str(), store.bytes_written());
  }

  // Kill node A's MPM. Node B keeps serving local work.
  std::printf("\nsimulating MPM failure on node A (halt)...\n");
  a.machine.Halt();

  class LocalCounter : public ck::NativeProgram {
   public:
    ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
      ctx.Charge(200);
      ++count;
      ck::NativeOutcome outcome;
      outcome.action = ck::NativeOutcome::Action::kYield;
      return outcome;
    }
    uint64_t count = 0;
  };
  LocalCounter counter;
  app_b.CreateNativeThread(api_b, space_b, &counter, 10);
  if (!run_both([&] { return counter.count >= 1000; }, cksim::Cycles{200000000})) {
    std::printf("  node B local work TIMED OUT\n");
    return 1;
  }

  std::printf("node B executed %llu work units after node A failed\n",
              static_cast<unsigned long long>(counter.count));
  std::printf("node A dead: %s\n", a.machine.Step() ? "NO (bug)" : "yes, contained");

  // Failover: the surviving SRM restarts the lost UNIX emulator from the
  // last stable-store image. Processes keep their pids; work done after the
  // checkpoint is redone from the captured state.
  std::printf("\nfailover: node B restores the UNIX emulator from the last checkpoint...\n");
  ckunix::UnixEmulator emu_b(b.ck);
  std::string error;
  if (b.srm.RestoreFromStore(emu_b, store, "unix-emulator", ckckpt::RestoreOptions{}, &error) !=
      ckbase::CkStatus::kOk) {
    std::printf("  restore FAILED: %s\n", error.c_str());
    return 1;
  }
  std::printf("  restored %u processes; resuming on node B\n", emu_b.process_count());
  if (!run_both([&] { return emu_b.AllExited(); }, cksim::Cycles{400000000})) {
    std::printf("  guest processes TIMED OUT on node B\n");
    return 1;
  }
  bool pids_stable = emu_b.process(ticker).pid == ticker && emu_b.process(spawner).pid == spawner;
  for (uint32_t p = 1; p <= emu_b.process_count(); ++p) {
    const ckunix::Process& proc = emu_b.process(p);
    std::printf("  pid %d: exit %d console \"%s\"\n", proc.pid, proc.exit_code,
                proc.console.c_str());
  }
  if (!pids_stable || emu_b.process(ticker).console != "tik.tik.tik.tik." ||
      emu_b.process(spawner).exit_code != 10) {
    std::printf("failover output WRONG\n");
    return 1;
  }
  obs.Finish();
  std::printf("multi-MPM OK: failure contained, lost kernel restarted from checkpoint\n");
  return 0;
}
