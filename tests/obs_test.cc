// Observability subsystem tests: trace rings, the metrics registry, the
// bounded Stats histogram, Chrome trace export, and the Cache Kernel's
// fault-step accounting. The compile-time-disabled CK_TRACE path is exercised
// by obs_trace_disabled.cc, a separate translation unit built with
// -DCK_TRACE_ENABLED=0 and linked into this binary.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/appkernel/app_kernel_base.h"
#include "src/base/histogram.h"
#include "src/ck/cache_kernel.h"
#include "src/ck/observability.h"
#include "src/isa/assembler.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/json_lint.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/machine.h"
#include "src/srm/srm.h"

// Implemented in obs_trace_disabled.cc (compiled with CK_TRACE_ENABLED=0).
// Returns the number of times CK_TRACE evaluated its argument expressions
// there; must be zero.
int DisabledTraceEvaluations();
// Also from obs_trace_disabled.cc: ring wraparound with the macro compiled
// out. Returns 0 on success, a step number on the first failed check.
int DisabledTraceWraparound();

namespace {

// --- TraceRing ---

TEST(TraceRing, RecordsInOrder) {
  obs::TraceRing ring(8, /*cpu=*/3);
  for (uint64_t i = 0; i < 5; ++i) {
    ring.Push(obs::EventType::kObjectLoad, 100 + i, static_cast<uint16_t>(i),
              static_cast<uint32_t>(i * 10));
  }
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.pushed(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  for (size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring.at(i).when, 100 + i);
    EXPECT_EQ(ring.at(i).arg32, i * 10);
    EXPECT_EQ(ring.at(i).cpu, 3u);
  }
}

TEST(TraceRing, WraparoundDropsOldest) {
  obs::TraceRing ring(4, 0);
  for (uint64_t i = 0; i < 10; ++i) {
    ring.Push(obs::EventType::kTlbMiss, i, 0, static_cast<uint32_t>(i));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.pushed(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  // Retained events are the newest four, oldest first.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ring.at(i).when, 6 + i);
    EXPECT_EQ(ring.at(i).arg32, 6 + i);
  }
}

TEST(TraceRing, ClearResets) {
  obs::TraceRing ring(4, 0);
  ring.Push(obs::EventType::kContextSwitch, 1, 0, 0);
  ring.Clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.pushed(), 0u);
  ring.Push(obs::EventType::kContextSwitch, 2, 0, 0);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.at(0).when, 2u);
}

TEST(Tracer, PerCpuIsolation) {
  obs::Tracer tracer(/*cpu_count=*/4, /*capacity_per_cpu=*/16);
  tracer.ring(0).Push(obs::EventType::kObjectLoad, 1, 0, 0);
  tracer.ring(2).Push(obs::EventType::kObjectLoad, 2, 0, 0);
  tracer.ring(2).Push(obs::EventType::kObjectLoad, 3, 0, 0);
  EXPECT_EQ(tracer.ring(0).size(), 1u);
  EXPECT_EQ(tracer.ring(1).size(), 0u);
  EXPECT_EQ(tracer.ring(2).size(), 2u);
  EXPECT_EQ(tracer.ring(3).size(), 0u);
  EXPECT_EQ(tracer.total_pushed(), 3u);
  EXPECT_EQ(tracer.ring(2).cpu(), 2u);
}

TEST(TraceMacro, NullRingIsSafe) {
  // Runtime-off path: with a null ring the macro is a no-op and -- because
  // the payload expressions sit inside the null test -- they are not even
  // evaluated, so an untraced run pays only the pointer check.
  int evaluations = 0;
  auto arg = [&] {
    ++evaluations;
    return 7u;
  };
  CK_TRACE(nullptr, obs::EventType::kObjectLoad, 1, 0, arg());
  EXPECT_EQ(evaluations, 0);
  obs::TraceRing ring(4, 0);
  CK_TRACE(&ring, obs::EventType::kObjectLoad, 1, 0, arg());
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.at(0).arg32, 7u);
}

TEST(TraceMacro, CompiledOutEvaluatesNothing) { EXPECT_EQ(DisabledTraceEvaluations(), 0); }

TEST(TraceMacro, WraparoundWithMacroEnabled) {
  // Same wraparound shape as WraparoundDropsOldest, but driven through the
  // CK_TRACE macro (the production path) rather than TraceRing::Push.
  obs::TraceRing ring(4, 0);
  for (uint64_t i = 0; i < 10; ++i) {
    CK_TRACE(&ring, obs::EventType::kTlbMiss, i, 0, static_cast<uint32_t>(i));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.pushed(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ring.at(i).when, 6 + i);
  }
}

TEST(TraceMacro, WraparoundWithMacroCompiledOut) { EXPECT_EQ(DisabledTraceWraparound(), 0); }

TEST(EventTypeNames, AllNamed) {
  std::set<std::string> names;
  for (uint32_t t = 0; t < static_cast<uint32_t>(obs::EventType::kCount); ++t) {
    std::string name = obs::EventTypeName(static_cast<obs::EventType>(t));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?");
    names.insert(name);
  }
  // Names are distinct (an exporter can round-trip them).
  EXPECT_EQ(names.size(), static_cast<size_t>(obs::EventType::kCount));
}

// --- Stats (bounded streaming histogram) ---

TEST(Stats, MomentsExactUnderDecimation) {
  ckbase::Stats s;
  double sum = 0;
  for (int i = 1; i <= 100000; ++i) {
    s.Add(i);
    sum += i;
  }
  EXPECT_EQ(s.count(), 100000u);
  EXPECT_DOUBLE_EQ(s.Sum(), sum);
  EXPECT_DOUBLE_EQ(s.Mean(), sum / 100000.0);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 100000.0);
  // Reservoir is bounded no matter how many samples stream through.
  EXPECT_LE(s.reservoir_size(), ckbase::Stats::kReservoirCap);
  // Percentiles come from the decimated reservoir: approximate, but they
  // must land in the right region for a uniform ramp.
  EXPECT_NEAR(s.Percentile(50), 50000.0, 5000.0);
  EXPECT_NEAR(s.Percentile(95), 95000.0, 5000.0);
  // Streamed stddev of 1..N uniform ramp: N/sqrt(12) ~ 28868.
  EXPECT_NEAR(s.StdDev(), 28867.7, 30.0);
}

TEST(Stats, MergeMatchesCombinedStream) {
  ckbase::Stats a, b, combined;
  for (int i = 0; i < 500; ++i) {
    a.Add(i);
    combined.Add(i);
  }
  for (int i = 500; i < 800; ++i) {
    b.Add(i * 2);
    combined.Add(i * 2);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.Sum(), combined.Sum());
  EXPECT_DOUBLE_EQ(a.Mean(), combined.Mean());
  EXPECT_DOUBLE_EQ(a.Min(), combined.Min());
  EXPECT_DOUBLE_EQ(a.Max(), combined.Max());
  EXPECT_NEAR(a.StdDev(), combined.StdDev(), 1e-9);
  EXPECT_LE(a.reservoir_size(), ckbase::Stats::kReservoirCap);
}

TEST(Stats, MergeEmptySides) {
  ckbase::Stats a, empty;
  a.Add(3);
  a.Add(5);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.Mean(), 4.0);
  ckbase::Stats c;
  c.Merge(a);
  EXPECT_EQ(c.count(), 2u);
  EXPECT_DOUBLE_EQ(c.Max(), 5.0);
}

TEST(Stats, MergeBothEmpty) {
  ckbase::Stats a, b;
  a.Merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.Min(), 0.0);
  EXPECT_DOUBLE_EQ(a.Max(), 0.0);
  EXPECT_DOUBLE_EQ(a.Percentile(50), 0.0);
  EXPECT_EQ(a.reservoir_size(), 0u);
}

TEST(Stats, MergeOneSidedIntoOverflowed) {
  // One side far past the reservoir cap, the other tiny: exact moments still
  // combine exactly, the reservoir stays bounded, and the tiny side's
  // extremes survive the merge.
  ckbase::Stats big, tiny, combined;
  for (int i = 0; i < 50000; ++i) {
    big.Add(1000.0 + (i % 100));
    combined.Add(1000.0 + (i % 100));
  }
  ASSERT_GT(50000u, ckbase::Stats::kReservoirCap);
  tiny.Add(-5.0);
  tiny.Add(99999.0);
  combined.Add(-5.0);
  combined.Add(99999.0);
  big.Merge(tiny);
  EXPECT_EQ(big.count(), combined.count());
  EXPECT_DOUBLE_EQ(big.Sum(), combined.Sum());
  EXPECT_DOUBLE_EQ(big.Min(), -5.0);
  EXPECT_DOUBLE_EQ(big.Max(), 99999.0);
  EXPECT_NEAR(big.StdDev(), combined.StdDev(), 1e-6);
  EXPECT_LE(big.reservoir_size(), ckbase::Stats::kReservoirCap);
}

TEST(Stats, MergeBothOverflowed) {
  // Both reservoirs decimated before the merge: counts and moments stay
  // exact, the merged reservoir stays bounded, and percentiles still land in
  // the right region (the two inputs cover disjoint ranges, so the median of
  // the equal-count union sits at the boundary).
  ckbase::Stats low, high;
  for (int i = 0; i < 100000; ++i) {
    low.Add(i % 1000);              // 0..999
    high.Add(10000 + (i % 1000));   // 10000..10999
  }
  EXPECT_LE(low.reservoir_size(), ckbase::Stats::kReservoirCap);
  EXPECT_LE(high.reservoir_size(), ckbase::Stats::kReservoirCap);
  low.Merge(high);
  EXPECT_EQ(low.count(), 200000u);
  EXPECT_DOUBLE_EQ(low.Min(), 0.0);
  EXPECT_DOUBLE_EQ(low.Max(), 10999.0);
  EXPECT_LE(low.reservoir_size(), ckbase::Stats::kReservoirCap);
  EXPECT_GT(low.Percentile(25), -1.0);
  EXPECT_LT(low.Percentile(25), 1100.0);
  EXPECT_GT(low.Percentile(75), 9900.0);
  EXPECT_LT(low.Percentile(75), 11000.0);
}

// --- Registry ---

TEST(Registry, DumpJsonIsValid) {
  obs::Registry registry;
  uint64_t hits = 42;
  registry.AddCounter("test.hits", [&] { return hits; });
  registry.AddCounter("test.with\"quote", [] { return uint64_t{1}; });
  ckbase::Stats lat;
  lat.Add(1.5);
  lat.Add(2.5);
  registry.AddHistogram("test.latency_us", [&] { return lat; });

  std::string json = registry.DumpJson();
  std::string error;
  EXPECT_TRUE(obs::JsonLint(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"test.hits\":42"), std::string::npos) << json;
  // Dumps read through the closures at call time.
  hits = 43;
  EXPECT_NE(registry.DumpJson().find("\"test.hits\":43"), std::string::npos);
  EXPECT_EQ(registry.counter_count(), 2u);
  EXPECT_EQ(registry.histogram_count(), 1u);
}

TEST(Registry, WriteTextPrometheusExposition) {
  obs::Registry registry;
  registry.AddCounter("ck.tenant.3.loads", [] { return uint64_t{17}; });
  ckbase::Stats lat;
  lat.Add(2.0);
  lat.Add(4.0);
  registry.AddHistogram("ck.fault_us.total", [&] { return lat; });

  char* buf = nullptr;
  size_t len = 0;
  std::FILE* mem = open_memstream(&buf, &len);
  ASSERT_NE(mem, nullptr);
  registry.WriteText(mem);
  std::fclose(mem);
  std::string text(buf, len);
  std::free(buf);

  // Dots fold to underscores; counters get a TYPE comment and a value line.
  EXPECT_NE(text.find("# TYPE ck_tenant_3_loads counter\nck_tenant_3_loads 17\n"),
            std::string::npos)
      << text;
  // Histograms export as summaries with _count/_sum and quantile lines.
  EXPECT_NE(text.find("# TYPE ck_fault_us_total summary"), std::string::npos) << text;
  EXPECT_NE(text.find("ck_fault_us_total_count 2"), std::string::npos) << text;
  EXPECT_NE(text.find("ck_fault_us_total_sum 6"), std::string::npos) << text;
  EXPECT_NE(text.find("ck_fault_us_total{quantile=\"0.5\"}"), std::string::npos) << text;
  // No un-folded name leaks into the exposition.
  EXPECT_EQ(text.find("ck.tenant"), std::string::npos) << text;
}

// --- flight recorder ---

TEST(FlightRecorder, RoundTripsAllSections) {
  obs::Tracer tracer(/*cpu_count=*/2, /*capacity_per_cpu=*/8);
  for (uint64_t i = 0; i < 12; ++i) {  // overflow cpu 0's ring: last 8 survive
    tracer.ring(0).Push(obs::EventType::kObjectLoad, 100 + i, static_cast<uint16_t>(i),
                        static_cast<uint32_t>(i));
  }
  tracer.ring(1).Push(obs::EventType::kSrmOp, 500, 3, 42);
  std::vector<uint8_t> stats_blob = {1, 2, 3, 4, 5};
  std::vector<uint8_t> bytes = obs::EncodeFlightRecord(
      "fatal-fault", /*when=*/123456, &tracer, /*last_n_per_cpu=*/256, "ck_loads 9\n",
      stats_blob);

  obs::FlightRecordData record;
  std::string error;
  ASSERT_TRUE(obs::DecodeFlightRecord(bytes, &record, &error)) << error;
  EXPECT_EQ(record.reason, "fatal-fault");
  EXPECT_EQ(record.when, 123456u);
  EXPECT_EQ(record.metrics_text, "ck_loads 9\n");
  EXPECT_EQ(record.stats_blob, stats_blob);
  ASSERT_EQ(record.events.size(), 9u);  // 8 retained on cpu 0 + 1 on cpu 1
  // Ring order per CPU, newest-8 window on the overflowed ring.
  EXPECT_EQ(record.events.front().when, 104u);
  EXPECT_EQ(record.events.back().when, 500u);
  EXPECT_EQ(record.events.back().arg32, 42u);
  EXPECT_EQ(record.events.back().cpu, 1u);
}

TEST(FlightRecorder, LastNWindowAndNullTracer) {
  obs::Tracer tracer(1, 64);
  for (uint64_t i = 0; i < 20; ++i) {
    tracer.ring(0).Push(obs::EventType::kTlbMiss, i, 0, 0);
  }
  obs::FlightRecordData record;
  std::string error;
  std::vector<uint8_t> bytes =
      obs::EncodeFlightRecord("r", 1, &tracer, /*last_n_per_cpu=*/4, "", {});
  ASSERT_TRUE(obs::DecodeFlightRecord(bytes, &record, &error)) << error;
  ASSERT_EQ(record.events.size(), 4u);
  EXPECT_EQ(record.events.front().when, 16u);  // newest 4 of 20
  // Untraced machine: no trace section at all, still a valid record.
  bytes = obs::EncodeFlightRecord("r", 1, nullptr, 256, "", {});
  ASSERT_TRUE(obs::DecodeFlightRecord(bytes, &record, &error)) << error;
  EXPECT_TRUE(record.events.empty());
}

TEST(FlightRecorder, CorruptionFailsCrc) {
  obs::Tracer tracer(1, 8);
  tracer.ring(0).Push(obs::EventType::kObjectLoad, 1, 2, 3);
  std::vector<uint8_t> bytes =
      obs::EncodeFlightRecord("reason", 7, &tracer, 256, "metrics\n", {9, 9});
  obs::FlightRecordData record;
  std::string error;
  ASSERT_TRUE(obs::DecodeFlightRecord(bytes, &record, &error)) << error;
  // Flip one payload byte somewhere past the magic/version: decode must fail
  // loudly, whichever section the byte lands in.
  std::vector<uint8_t> corrupt = bytes;
  corrupt[bytes.size() / 2] ^= 0x40;
  EXPECT_FALSE(obs::DecodeFlightRecord(corrupt, &record, &error));
  EXPECT_FALSE(error.empty());
  // Truncation fails too (never reads past the end).
  std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + bytes.size() - 3);
  EXPECT_FALSE(obs::DecodeFlightRecord(truncated, &record, &error));
}

// --- merged cluster export with causal flow events ---

TEST(ChromeTrace, MergedMachinesEmitFlowPairs) {
  // Hand-built two-machine trace: machine 0 sends (ipc + bulk), machine 1
  // receives, bound by span ids. The exporter must emit one process per
  // machine and a flow start/finish pair per span.
  obs::Tracer m0(1, 16), m1(1, 16);
  m0.ring(0).Push(obs::EventType::kIpcSend, 1000, /*slot=*/2, /*span=*/0x01000007);
  m1.ring(0).Push(obs::EventType::kIpcRecv, 3500, /*slot=*/0, /*span=*/0x01000007);
  m0.ring(0).Push(obs::EventType::kBulkSend, 5000, /*kib=*/12, /*span=*/0x01000008);
  m1.ring(0).Push(obs::EventType::kBulkRecv, 9000, /*kib=*/12, /*span=*/0x01000008);
  std::vector<obs::MachineTrace> machines;
  machines.push_back(obs::MachineTrace{&m0, 0, "machine 0"});
  machines.push_back(obs::MachineTrace{&m1, 1, "machine 1"});
  std::string json =
      obs::ChromeTraceJson(machines, 25.0, "\"ckProfile\":{\"period\":0,\"machines\":[]}");
  std::string error;
  ASSERT_TRUE(obs::JsonLint(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"machine 0\""), std::string::npos);
  EXPECT_NE(json.find("\"machine 1\""), std::string::npos);
  EXPECT_NE(json.find("\"ckProfile\""), std::string::npos);
  // Flow pairs: a start and a finish per span, finish flagged "bp":"e".
  EXPECT_NE(json.find("\"ph\":\"s\",\"id\":16777223"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"f\",\"bp\":\"e\",\"id\":16777223"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"s\",\"id\":16777224"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"f\",\"bp\":\"e\",\"id\":16777224"), std::string::npos) << json;
}

// --- integration: a faulting world, end to end ---

class ObsWorldTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cksim::MachineConfig machine_config;
    machine_config.cpu_count = 2;
    machine_ = std::make_unique<cksim::Machine>(machine_config);
    ck_ = std::make_unique<ck::CacheKernel>(*machine_, ck::CacheKernelConfig());
    srm_ = std::make_unique<cksrm::Srm>(*ck_);
    srm_->Boot();
  }

  // Run a guest that touches `pages` unmapped pages, forwarding one fault
  // each, with tracing enabled.
  void RunFaultingGuest(uint32_t pages) {
    machine_->EnableTracing(/*capacity_per_cpu=*/4096);
    app_ = std::make_unique<ckapp::AppKernelBase>("obs-test", 64);
    cksrm::LaunchParams params;
    params.page_groups = 4;
    params.max_priority = 30;
    ASSERT_TRUE(srm_->Launch(*app_, params).ok());
    ck::CkApi api(*ck_, app_->self(), machine_->cpu(0));
    uint32_t space = app_->CreateSpace(api);
    app_->DefineZeroRegion(space, 0x00400000, pages, /*writable=*/true);
    for (uint32_t i = 0; i < pages; ++i) {
      cksim::VirtAddr vaddr = 0x00400000 + i * cksim::kPageSize;
      ckapp::PageRecord* page = app_->space(space).FindPage(vaddr);
      app_->MaterializePage(api, app_->space(space), *page);
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
    ASSERT_TRUE(assembled.ok) << assembled.error;
    app_->LoadProgramImage(space, assembled.program, /*writable=*/false);
    ckapp::GuestThreadParams tparams;
    tparams.space_index = space;
    tparams.entry = 0x10000;
    tparams.cpu_hint = 0;
    uint32_t guest = app_->CreateGuestThread(api, tparams);
    for (uint64_t turn = 0; turn < 2000000 && !app_->thread(guest).finished; ++turn) {
      machine_->Step();
    }
    ASSERT_TRUE(app_->thread(guest).finished);
  }

  std::unique_ptr<cksim::Machine> machine_;
  std::unique_ptr<ck::CacheKernel> ck_;
  std::unique_ptr<cksrm::Srm> srm_;
  std::unique_ptr<ckapp::AppKernelBase> app_;
};

TEST_F(ObsWorldTest, KernelEmitsFaultEvents) {
  RunFaultingGuest(8);
  ASSERT_NE(machine_->tracer(), nullptr);
  const obs::TraceRing& ring = machine_->tracer()->ring(0);
  uint32_t trap_entries = 0, resumed = 0, loads = 0;
  uint64_t last_when = 0;
  for (size_t i = 0; i < ring.size(); ++i) {
    const obs::TraceEvent& event = ring.at(i);
    EXPECT_GE(event.when, last_when);  // per-CPU timestamps are monotone
    last_when = event.when;
    switch (static_cast<obs::EventType>(event.type)) {
      case obs::EventType::kFaultTrapEntry:
        trap_entries++;
        break;
      case obs::EventType::kFaultResumed:
        resumed++;
        break;
      case obs::EventType::kObjectLoad:
        loads++;
        break;
      default:
        break;
    }
  }
  EXPECT_GE(trap_entries, 8u);
  EXPECT_GE(resumed, 8u);
  EXPECT_GE(loads, 8u);
}

TEST_F(ObsWorldTest, FaultHistoryAccumulatesEveryFault) {
  RunFaultingGuest(8);
  // Not just the most recent fault: the per-step histograms saw the whole
  // population and the ring retains the last N.
  const ck::FaultStepStats& steps = ck_->fault_step_stats();
  EXPECT_GE(steps.total.count(), 8u);
  EXPECT_EQ(steps.transfer.count(), steps.total.count());
  EXPECT_GE(steps.handle_load.count(), 8u);
  EXPECT_GT(steps.total.Mean(), 0.0);
  EXPECT_GE(ck_->fault_traces_recorded(), 8u);

  std::vector<ck::FaultTrace> history = ck_->FaultHistory();
  ASSERT_GE(history.size(), 8u);
  for (const ck::FaultTrace& t : history) {
    EXPECT_GT(t.trap_entry, 0u);
    EXPECT_GE(t.handler_start, t.trap_entry);
    EXPECT_GE(t.resumed, t.handler_start);
  }
  // The last history entry matches the legacy most-recent accessor.
  EXPECT_EQ(history.back().trap_entry, ck_->last_fault_trace().trap_entry);
  EXPECT_EQ(history.back().resumed, ck_->last_fault_trace().resumed);
}

TEST_F(ObsWorldTest, FaultHistoryRingIsBounded) {
  // Tiny history depth: ring keeps only the newest faults, histograms all.
  ck::CacheKernelConfig config;
  config.fault_history_depth = 4;
  machine_ = std::make_unique<cksim::Machine>(cksim::MachineConfig{});
  ck_ = std::make_unique<ck::CacheKernel>(*machine_, config);
  srm_ = std::make_unique<cksrm::Srm>(*ck_);
  srm_->Boot();
  RunFaultingGuest(12);
  EXPECT_EQ(ck_->FaultHistory().size(), 4u);
  EXPECT_GE(ck_->fault_traces_recorded(), 12u);
  EXPECT_GE(ck_->fault_step_stats().total.count(), 12u);
  // Ring holds the newest traces: strictly increasing trap stamps.
  std::vector<ck::FaultTrace> history = ck_->FaultHistory();
  for (size_t i = 1; i < history.size(); ++i) {
    EXPECT_GT(history[i].trap_entry, history[i - 1].trap_entry);
  }
}

TEST_F(ObsWorldTest, ChromeTraceExportsValidJsonWithFaultSpans) {
  RunFaultingGuest(8);
  std::string json =
      obs::ChromeTraceJson(*machine_->tracer(), static_cast<double>(cksim::kCyclesPerMicrosecond));
  std::string error;
  ASSERT_TRUE(obs::JsonLint(json, &error)) << error;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"fault\""), std::string::npos);
  EXPECT_NE(json.find("fault.handle+load"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // duration spans
  EXPECT_NE(json.find("thread_name"), std::string::npos);   // per-CPU tracks
}

TEST_F(ObsWorldTest, RegisterMetricsExposesKernelState) {
  RunFaultingGuest(8);
  obs::Registry registry;
  ck_->RegisterMetrics(registry);
  EXPECT_GT(registry.counter_count(), 20u);
  EXPECT_EQ(registry.histogram_count(), 4u);
  std::string json = registry.DumpJson();
  std::string error;
  ASSERT_TRUE(obs::JsonLint(json, &error)) << error;
  EXPECT_NE(json.find("\"ck.faults_forwarded\""), std::string::npos);
  EXPECT_NE(json.find("\"ck.fault_us.total\""), std::string::npos);
  EXPECT_NE(json.find("\"hw.tlb.misses.cpu0\""), std::string::npos);
}

// --- JsonLint itself ---

TEST(JsonLint, AcceptsValidRejectsBroken) {
  std::string error;
  EXPECT_TRUE(obs::JsonLint("{}", &error));
  EXPECT_TRUE(obs::JsonLint(R"({"a": [1, 2.5, -3e4], "b": {"c": "d\n"}, "e": null})", &error));
  EXPECT_FALSE(obs::JsonLint("{", &error));
  EXPECT_FALSE(obs::JsonLint(R"({"a": })", &error));
  EXPECT_FALSE(obs::JsonLint(R"({"a": 1} trailing)", &error));
  EXPECT_FALSE(obs::JsonLint(R"({"a": 01})", &error));
}

// --- ObsSession flags ---

// The flags only observe: ObsSession consumes them and leaves the binary's
// own arguments in argv.
TEST(ObsSessionTest, ConsumesObservabilityFlags) {
  std::string prog = "obs_test", metrics = "--metrics", depth = "--trace-depth=128",
              mine = "--serial", operand = "file";
  char* argv[] = {prog.data(), metrics.data(), depth.data(), mine.data(), operand.data(),
                  nullptr};
  int argc = 5;
  ck::ObsSession session(argc, argv, {"--serial"});
  EXPECT_TRUE(session.metrics());
  ASSERT_EQ(argc, 3);
  EXPECT_EQ(std::string(argv[1]), "--serial");
  EXPECT_EQ(std::string(argv[2]), "file");
}

void ParseOneFlag(const char* flag) {
  std::string prog = "obs_test";
  std::string arg = flag;
  char* argv[] = {prog.data(), arg.data(), nullptr};
  int argc = 2;
  ck::ObsSession session(argc, argv);
}

// Execution and policy choices are CacheKernelConfig fields and CkApi
// calls, so these are unknown flags: usage and exit code 2.
TEST(ObsSessionTest, ExecutionAndPolicyFlagsAreRejected) {
  for (const char* flag : {"--policy=fifo", "--fastpath=off", "--trace-exec=off", "--tiers=24"}) {
    EXPECT_EXIT(ParseOneFlag(flag), ::testing::ExitedWithCode(2), "unknown flag") << flag;
  }
}

}  // namespace
