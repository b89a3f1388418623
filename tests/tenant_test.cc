// Per-app-kernel cost attribution (ck::CostAccount) and the sampling
// profiler. The central property is conservation: every tenant account
// increment mirrors a machine-level CkStats increment, so summing any
// attributed field across kernel slots must equal the CkStats total -- with
// two co-resident application kernels doing real (faulting, reclaiming,
// swapping) work, nothing may be double-charged or dropped.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/appkernel/app_kernel_base.h"
#include "src/ck/cache_kernel.h"
#include "src/isa/assembler.h"
#include "src/obs/metrics.h"
#include "src/sim/machine.h"
#include "src/srm/srm.h"

namespace {

class TenantTest : public ::testing::Test {
 protected:
  void Boot(ck::CacheKernelConfig config) {
    machine_ = std::make_unique<cksim::Machine>(cksim::MachineConfig{});
    ck_ = std::make_unique<ck::CacheKernel>(*machine_, config);
    srm_ = std::make_unique<cksrm::Srm>(*ck_);
    srm_->Boot();
  }

  // Launch an app kernel running a guest that strides over `pages` unmapped
  // pages (one forwarded fault + mapping load each) and then halts.
  std::unique_ptr<ckapp::AppKernelBase> LaunchFaultingApp(const std::string& name,
                                                          uint32_t pages, uint32_t* thread) {
    auto app = std::make_unique<ckapp::AppKernelBase>(name, 64);
    cksrm::LaunchParams params;
    params.page_groups = 4;
    params.max_priority = 30;
    EXPECT_TRUE(srm_->Launch(*app, params).ok());
    ck::CkApi api(*ck_, app->self(), machine_->cpu(0));
    uint32_t space = app->CreateSpace(api);
    app->DefineZeroRegion(space, 0x00400000, pages, /*writable=*/true);
    for (uint32_t i = 0; i < pages; ++i) {
      cksim::VirtAddr vaddr = 0x00400000 + i * cksim::kPageSize;
      ckapp::PageRecord* page = app->space(space).FindPage(vaddr);
      app->MaterializePage(api, app->space(space), *page);
    }
    ckisa::AssembleResult assembled = ckisa::Assemble(R"(
        li   t0, 0x00400000
        li   t1, )" + std::to_string(pages) + R"(
        li   t3, 4096
      loop:
        lw   t2, 0(t0)
        add  t0, t0, t3
        addi t1, t1, -1
        bne  t1, r0, loop
        halt
    )", 0x10000);
    EXPECT_TRUE(assembled.ok) << assembled.error;
    app->LoadProgramImage(space, assembled.program, /*writable=*/false);
    ckapp::GuestThreadParams tparams;
    tparams.space_index = space;
    tparams.entry = 0x10000;
    uint32_t guest = app->CreateGuestThread(api, tparams);
    if (thread != nullptr) {
      *thread = guest;
    }
    return app;
  }

  void RunUntilFinished(ckapp::AppKernelBase& a, uint32_t ta, ckapp::AppKernelBase& b,
                        uint32_t tb) {
    for (uint64_t turn = 0; turn < 4000000; ++turn) {
      if (a.thread(ta).finished && b.thread(tb).finished) {
        return;
      }
      machine_->Step();
    }
    FAIL() << "guests did not finish";
  }

  std::unique_ptr<cksim::Machine> machine_;
  std::unique_ptr<ck::CacheKernel> ck_;
  std::unique_ptr<cksrm::Srm> srm_;
};

// Sum one CostAccount array field across all slots.
uint64_t SumField(const std::vector<ck::CostAccount>& tenants,
                  const uint64_t (ck::CostAccount::*field)[ck::kObjectTypeCount], uint32_t t) {
  uint64_t sum = 0;
  for (const ck::CostAccount& account : tenants) {
    sum += (account.*field)[t];
  }
  return sum;
}

uint64_t SumField(const std::vector<ck::CostAccount>& tenants,
                  uint64_t ck::CostAccount::*field) {
  uint64_t sum = 0;
  for (const ck::CostAccount& account : tenants) {
    sum += account.*field;
  }
  return sum;
}

TEST_F(TenantTest, AttributionConservesMachineTotals) {
  ck::CacheKernelConfig config;
  config.mapping_slots = 32;  // two 64-page guests force mapping reclamation
  Boot(config);
  uint32_t thread_a = 0, thread_b = 0;
  auto app_a = LaunchFaultingApp("tenant-a", 64, &thread_a);
  auto app_b = LaunchFaultingApp("tenant-b", 64, &thread_b);
  RunUntilFinished(*app_a, thread_a, *app_b, thread_b);

  // Swap one kernel out and back in: explicit unloads + cascade writebacks
  // attributed to that kernel's slot.
  ASSERT_EQ(srm_->SwapOut(*app_a), ckbase::CkStatus::kOk);
  ASSERT_EQ(srm_->SwapIn(*app_a), ckbase::CkStatus::kOk);

  const ck::CkStats& stats = ck_->stats();
  const std::vector<ck::CostAccount>& tenants = ck_->tenant_accounts();
  ASSERT_EQ(tenants.size(), ck_->config().kernel_slots);

  // The workload really exercised the attributed paths.
  constexpr uint32_t kMappingIdx = static_cast<uint32_t>(ck::ObjectType::kMapping);
  constexpr uint32_t kKernelIdx = static_cast<uint32_t>(ck::ObjectType::kKernel);
  EXPECT_GT(stats.faults_forwarded, 100u);
  EXPECT_GT(stats.reclaim_scan_steps[kMappingIdx], 0u);
  EXPECT_GT(stats.writebacks[kMappingIdx], 0u);
  EXPECT_GT(stats.explicit_unloads[kKernelIdx], 0u);

  for (uint32_t t = 0; t < ck::kObjectTypeCount; ++t) {
    EXPECT_EQ(SumField(tenants, &ck::CostAccount::loads, t), stats.loads[t]) << "type " << t;
    EXPECT_EQ(SumField(tenants, &ck::CostAccount::writebacks, t), stats.writebacks[t])
        << "type " << t;
    EXPECT_EQ(SumField(tenants, &ck::CostAccount::explicit_unloads, t),
              stats.explicit_unloads[t])
        << "type " << t;
    EXPECT_EQ(SumField(tenants, &ck::CostAccount::reclaim_scan_steps, t),
              stats.reclaim_scan_steps[t])
        << "type " << t;
  }
  EXPECT_EQ(SumField(tenants, &ck::CostAccount::guest_instructions), stats.guest_instructions);
  EXPECT_EQ(SumField(tenants, &ck::CostAccount::faults_forwarded), stats.faults_forwarded);

  // Superblock-trace work is attributed to the tenant that owns the space,
  // and the per-tenant counters conserve the machine totals.
  EXPECT_GT(stats.exec_trace_builds, 0u);
  EXPECT_GT(stats.exec_trace_hits, 0u);
  EXPECT_EQ(SumField(tenants, &ck::CostAccount::exec_trace_hits), stats.exec_trace_hits);
  EXPECT_EQ(SumField(tenants, &ck::CostAccount::exec_trace_misses), stats.exec_trace_misses);
  EXPECT_EQ(SumField(tenants, &ck::CostAccount::exec_trace_invalidations),
            stats.exec_trace_invalidations);
  EXPECT_EQ(SumField(tenants, &ck::CostAccount::exec_trace_builds), stats.exec_trace_builds);

  // Both tenants were actually charged (not everything on one slot).
  uint32_t active_slots = 0;
  for (const ck::CostAccount& account : tenants) {
    if (account.guest_instructions > 0) {
      ++active_slots;
    }
  }
  EXPECT_GE(active_slots, 2u);
}

TEST_F(TenantTest, TenantMetricsExportedPerSlot) {
  Boot(ck::CacheKernelConfig{});
  uint32_t thread_a = 0, thread_b = 0;
  auto app_a = LaunchFaultingApp("tenant-a", 8, &thread_a);
  auto app_b = LaunchFaultingApp("tenant-b", 8, &thread_b);
  RunUntilFinished(*app_a, thread_a, *app_b, thread_b);

  obs::Registry registry;
  ck_->RegisterMetrics(registry);
  std::string json = registry.DumpJson();
  EXPECT_NE(json.find("\"ck.tenant.0.loads\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ck.tenant.0.guest_instructions\""), std::string::npos);
  EXPECT_NE(json.find("\"ck.tenant.1.faults\""), std::string::npos);
}

TEST_F(TenantTest, ProfilerSamplesGuestPcs) {
  Boot(ck::CacheKernelConfig{});
  ck_->set_profile_period(2000);  // dense sampling for a short run
  uint32_t thread_a = 0, thread_b = 0;
  auto app_a = LaunchFaultingApp("tenant-a", 48, &thread_a);
  auto app_b = LaunchFaultingApp("tenant-b", 48, &thread_b);
  RunUntilFinished(*app_a, thread_a, *app_b, thread_b);

  EXPECT_GT(ck_->profile_samples_total(), 0u);
  // Sampled PCs land inside the guest program (loaded at 0x10000, a few
  // dozen bytes long).
  uint64_t histogram_total = 0;
  for (const auto& per_slot : ck_->profile_pcs()) {
    for (const auto& [pc, count] : per_slot) {
      EXPECT_GE(pc, 0x10000u);
      EXPECT_LT(pc, 0x10100u);
      histogram_total += count;
    }
  }
  EXPECT_EQ(histogram_total, ck_->profile_samples_total());
  // Sample counts are attributed like every other cost.
  EXPECT_EQ(SumField(ck_->tenant_accounts(), &ck::CostAccount::prof_samples),
            ck_->profile_samples_total());
}

TEST_F(TenantTest, ProfilerOffByDefault) {
  Boot(ck::CacheKernelConfig{});
  uint32_t thread_a = 0, thread_b = 0;
  auto app_a = LaunchFaultingApp("tenant-a", 8, &thread_a);
  auto app_b = LaunchFaultingApp("tenant-b", 8, &thread_b);
  RunUntilFinished(*app_a, thread_a, *app_b, thread_b);
  EXPECT_EQ(ck_->profile_samples_total(), 0u);
}

// Samples latch at the interpreter's run-loop exits, which the slow reference
// reaches at the same (clock, pc) pairs as the trace path: a kernel booted
// with the fast path off collects the same profile.
TEST_F(TenantTest, ProfilerSamplesTheSameWithoutTheFastPath) {
  struct Profile {
    uint64_t total = 0;
    std::vector<std::map<uint32_t, uint64_t>> pcs;
    std::vector<uint64_t> prof_samples;  // per kernel slot
  };
  auto run = [&](bool fastpath) {
    ck::CacheKernelConfig config;
    config.fastpath = fastpath;
    Boot(config);
    ck_->set_profile_period(2000);
    uint32_t thread_a = 0, thread_b = 0;
    auto app_a = LaunchFaultingApp("tenant-a", 48, &thread_a);
    auto app_b = LaunchFaultingApp("tenant-b", 48, &thread_b);
    RunUntilFinished(*app_a, thread_a, *app_b, thread_b);
    Profile profile;
    profile.total = ck_->profile_samples_total();
    profile.pcs = ck_->profile_pcs();
    for (const ck::CostAccount& account : ck_->tenant_accounts()) {
      profile.prof_samples.push_back(account.prof_samples);
    }
    return profile;
  };
  Profile trace = run(true);
  Profile slow = run(false);
  EXPECT_GT(trace.total, 0u);
  EXPECT_EQ(slow.total, trace.total);
  EXPECT_EQ(slow.pcs, trace.pcs);
  EXPECT_EQ(slow.prof_samples, trace.prof_samples);
}

}  // namespace
