// Extension bench: distributed-shared-memory page migration cost over the
// consistency-fault mechanism (section 2.1 footnote 1).
//
// Measures the full migration path: consistency fault -> forward to the DSM
// kernel -> fetch RPC over the fiber channel (two half-page fragments) ->
// peer invalidation -> install -> faulting thread resumed. Reported against
// the local-access baseline so the cost of sharing is visible, and swept
// over ping-pong round counts to show the steady-state migration rate.

#include "bench/bench_util.h"
#include "src/dsm/dsm_kernel.h"
#include "src/sim/devices.h"

namespace {

class TouchWorker : public ck::NativeProgram {
 public:
  explicit TouchWorker(cksim::VirtAddr addr) : addr_(addr) {}

  ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
    ck::NativeOutcome outcome;
    if (!armed_) {
      outcome.action = ck::NativeOutcome::Action::kBlock;
      return outcome;
    }
    ckbase::Result<uint32_t> value = ctx.LoadWord(addr_);
    if (value.ok()) {
      ctx.StoreWord(addr_, value.value() + 1);
      ++touches;
      armed_ = false;
      outcome.action = ck::NativeOutcome::Action::kBlock;
      return outcome;
    }
    outcome.action = ck::NativeOutcome::Action::kYield;  // fetch in flight
    return outcome;
  }

  void Arm() { armed_ = true; }
  uint64_t touches = 0;

 private:
  cksim::VirtAddr addr_;
  bool armed_ = false;
};

}  // namespace

int main(int argc, char** argv) {
  ck::ObsSession obs(argc, argv);
  ckbench::ObsSlot() = &obs;
  // Two machines, fiber channel, DSM kernel on each (mirrors tests/dsm_test).
  ckbench::World a, b;
  uint32_t group_a = a.srm().ReserveGroups(1).value();
  uint32_t group_b = b.srm().ReserveGroups(1).value();
  cksim::FiberChannelDevice fc_a(a.machine().memory(), &a.ck(),
                                 group_a * cksim::kPageGroupBytes, 4, 4, 2500);
  cksim::FiberChannelDevice fc_b(b.machine().memory(), &b.ck(),
                                 group_b * cksim::kPageGroupBytes, 4, 4, 2500);
  cksim::FiberChannelDevice::Connect(fc_a, fc_b);
  a.machine().AttachDevice(&fc_a);
  b.machine().AttachDevice(&fc_b);

  ckdsm::DsmConfig config_a{2, true};
  ckdsm::DsmConfig config_b{2, false};
  ckdsm::DsmKernel dsm_a(a.ck(), config_a), dsm_b(b.ck(), config_b);
  a.Launch(dsm_a, 2);
  b.Launch(dsm_b, 2);
  a.srm().GrantSharedGroups(dsm_a, group_a, 1, ck::GroupAccess::kReadWrite);
  b.srm().GrantSharedGroups(dsm_b, group_b, 1, ck::GroupAccess::kReadWrite);

  ckapp::MessageChannel out_a, in_a, out_b, in_b;
  ck::CkApi api_a = a.ApiFor(dsm_a);
  ck::CkApi api_b = b.ApiFor(dsm_b);
  dsm_a.Setup(api_a, out_a, in_a);
  dsm_b.Setup(api_b, out_b, in_b);
  out_a.ConfigureSender(dsm_a, dsm_a.space_index(), 0x00800000, fc_a.tx_slot(0), 4);
  in_a.ConfigureReceiver(dsm_a, dsm_a.space_index(), 0x00900000, fc_a.rx_slot(0), 4,
                         dsm_a.endpoint_thread());
  out_b.ConfigureSender(dsm_b, dsm_b.space_index(), 0x00800000, fc_b.tx_slot(0), 4);
  in_b.ConfigureReceiver(dsm_b, dsm_b.space_index(), 0x00900000, fc_b.rx_slot(0), 4,
                         dsm_b.endpoint_thread());
  in_a.PrimeReceiver(api_a);
  in_b.PrimeReceiver(api_b);

  TouchWorker worker_a(dsm_a.PageVaddr(0)), worker_b(dsm_b.PageVaddr(0));
  uint32_t thread_a = dsm_a.CreateNativeThread(api_a, dsm_a.space_index(), &worker_a, 12);
  uint32_t thread_b = dsm_b.CreateNativeThread(api_b, dsm_b.space_index(), &worker_b, 12);

  auto run_both = [&](const std::function<bool()>& done) {
    for (uint64_t i = 0; i < 3000000 && !done(); ++i) {
      a.machine().Step();
      b.machine().Step();
    }
  };
  auto touch = [&](ckbench::World& world, ckdsm::DsmKernel& dsm, TouchWorker& worker,
                   uint32_t thread) {
    uint64_t before = worker.touches;
    worker.Arm();
    ck::CkApi api(world.ck(), dsm.self(), world.machine().cpu(0));
    dsm.EnsureThreadLoaded(api, thread);
    api.ResumeThread(dsm.thread(thread).ck_id);
    run_both([&] { return worker.touches > before; });
  };

  // Local baseline: A touches its own page repeatedly.
  ckbase::Stats local;
  for (int i = 0; i < 20; ++i) {
    cksim::Cycles start = a.machine().Now();
    touch(a, dsm_a, worker_a, thread_a);
    local.Add(ckbench::ToUs(a.machine().Now() - start));
  }

  // Migration: alternate A and B so every touch moves the page.
  ckbase::Stats migrate;
  for (int i = 0; i < 20; ++i) {
    cksim::Cycles start = b.machine().Now();
    touch(b, dsm_b, worker_b, thread_b);
    migrate.Add(ckbench::ToUs(b.machine().Now() - start));
    touch(a, dsm_a, worker_a, thread_a);
  }

  ckbench::Title("DSM extension: page migration over consistency faults");
  std::printf("%-44s %12s %12s\n", "access kind", "mean us", "p95 us");
  ckbench::Rule();
  std::printf("%-44s %12.1f %12.1f\n", "owned page (no fault)", local.Mean(),
              local.Percentile(95));
  std::printf("%-44s %12.1f %12.1f\n", "remote page (fault + fetch + migrate)",
              migrate.Mean(), migrate.Percentile(95));
  ckbench::Rule();
  std::printf("migration / local ratio: %.0fx;  fetches A=%llu B=%llu, invalidations A=%llu "
              "B=%llu\n",
              migrate.Mean() / local.Mean(),
              static_cast<unsigned long long>(dsm_a.dsm_stats().fetches_sent),
              static_cast<unsigned long long>(dsm_b.dsm_stats().fetches_sent),
              static_cast<unsigned long long>(dsm_a.dsm_stats().invalidations),
              static_cast<unsigned long long>(dsm_b.dsm_stats().invalidations));
  ckbench::Note("shape checks: owned-page access costs nothing beyond the memory system;");
  ckbench::Note("migration pays fault forwarding + two RPC fragments over the wire (dominated");
  ckbench::Note("by the fiber-channel latency) -- the consistency protocol lives entirely in");
  ckbench::Note("user-level software, with the Cache Kernel providing only the fault.");
  obs.Finish();
  return 0;
}
