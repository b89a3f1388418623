// Working-set sweep over mapping-cache replacement policies.
//
// The Cache Kernel's one built-in victim scan is the paper's clock; any other
// policy is an application kernel's guest program, installed with LoadPolicy
// and run sandboxed (docs/POLICY_VM.md). This bench drives the cache that
// actually has a hardware referenced bit -- the mapping cache -- with the
// canonical workload that separates policies: a small hot set re-accessed
// every round plus a cold stream cycling through a larger working set,
// against a fixed mapping-cache capacity.
//
//   hot_miss_pct        % of hot-page accesses that found the mapping evicted
//   writebacks_per_1k   Figure-6 writebacks per 1000 accesses (hot + cold)
//   scan_per_reclaim    mean candidates examined per eviction
//
// Rows:
//
//   clock        the built-in scan: no policy program loaded.
//   fifo         a guest program that scores by load_seq_low (feature word
//                4), so the scored scan evicts the oldest load.
//   guest_mru    a guest program that scores by the complement of
//                load_seq_low, so the scored scan evicts the newest load.
//
// Shape being demonstrated (recorded in BENCH_cache_replacement.json,
// discussed in docs/PERFORMANCE.md and EXPERIMENTS.md X6): once the working
// set exceeds capacity, FIFO evicts by load age alone and so displaces the
// hot set every cycle, while clock observes the referenced bits the hot
// accesses keep setting and sheds cold stream pages instead. Below capacity
// every policy is equivalent (no reclamation at all) -- policy only matters
// past the capacity cliff, which is the working-set model's claim. On a
// cyclic loop just over capacity, clock and FIFO both miss every access,
// while the application kernel's own MRU program keeps most of the loop
// resident: the paper's case for leaving policy to application kernels.
//
// `cache_replacement --self-check` replays the adversarial traces and
// enforces those shapes as gates (plus the conservation identity, a
// host-side FIFO queue as the fifo row's reference, and zero sandbox faults
// and fallbacks), exiting nonzero on any failure; scripts/verify.sh runs it
// under the sanitizers.
//
// Each round begins by flushing the space's TLB entries, the same
// referenced-bit harvesting a real kernel performs: translations must go
// through the table walk for the MMU to re-set the referenced bits the clock
// hand consumes.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/rng.h"
#include "src/ck/cache_kernel.h"
#include "src/ck/policy.h"
#include "src/isa/assembler.h"
#include "src/sim/machine.h"

namespace {

using ck::CacheKernel;
using ck::CkApi;
using ck::MappingSpec;
using ckbase::CkStatus;

constexpr uint32_t kMappingSlots = 64;  // cache capacity C
constexpr uint32_t kHotPages = 16;      // re-accessed every round
constexpr uint32_t kColdPerRound = 32;  // cold-stream accesses per round
constexpr uint32_t kRounds = 256;
constexpr uint32_t kVbase = 0x400;                           // hot pages at vpage 0x400..
constexpr uint32_t kFrameBase = 0x100000 / cksim::kPageSize;  // backing frames

// Writeback sink: the bench never faults (residency is checked before every
// access) and mappings carry no thread state, so the handlers are empty. It
// carries a PolicyTable so the guest-program rows have somewhere to live.
class SinkKernel : public ck::AppKernel {
 public:
  ck::HandlerAction HandleFault(const ck::FaultForward&, CkApi&) override {
    return ck::HandlerAction::kTerminate;
  }
  ck::TrapAction HandleTrap(const ck::TrapForward&, CkApi&) override { return {}; }
  void OnMappingWriteback(const ck::MappingWriteback&, CkApi&) override {}
  void OnThreadWriteback(const ck::ThreadWriteback&, CkApi&) override {}
  void OnSpaceWriteback(const ck::SpaceWriteback&, CkApi&) override {}
  ck::PolicyTable* policy_table() override { return &table_; }

 private:
  ck::PolicyTable table_;
};

// One bench row: the mapping policy program the sink kernel loads, or none
// for the built-in clock scan.
struct PolicySetup {
  const char* source = nullptr;  // guest program (assembler source)
};

// Score by feature word 4 (load_seq_low): the scored scan takes the minimum
// with first-wins ties, i.e. the oldest load.
constexpr char kFifoSource[] =
    "li t0, 0x1000\n"
    "lw a0, 16(t0)\n"
    "halt\n";
// Score by the complement of load_seq_low: the newest load scores lowest.
constexpr char kMruSource[] =
    "li t0, 0x1000\n"
    "lw a0, 16(t0)\n"
    "li t1, -1\n"
    "xor a0, a0, t1\n"
    "halt\n";
static_assert(ck::kPolicyFeatureBase == 0x1000, "the programs address the feature window");

// Load the row's policy program into the sink kernel, if it has one.
void InstallPolicy(PolicySetup setup, CkApi& api) {
  if (setup.source == nullptr) {
    return;
  }
  ckisa::AssembleResult assembled = ckisa::Assemble(setup.source, ck::kPolicyCodeBase);
  if (!assembled.ok) {
    std::fprintf(stderr, "policy program assembly failed: %s\n", assembled.error.c_str());
    std::exit(1);
  }
  const std::vector<uint32_t>& words = assembled.program.words;
  if (api.LoadPolicy(ck::ObjectType::kMapping, words.data(),
                     static_cast<uint32_t>(words.size())) != CkStatus::kOk) {
    std::fprintf(stderr, "LoadPolicy failed\n");
    std::exit(1);
  }
}

struct Totals {
  uint64_t accesses = 0;
  uint64_t hot_accesses = 0;
  uint64_t hot_misses = 0;
  uint64_t writebacks = 0;
  uint64_t reclamations = 0;
  uint64_t scan_steps = 0;
  // PolicyEngine observability, for the self-check gates.
  uint64_t vm_runs = 0;
  uint64_t vm_faults = 0;
  uint64_t fallbacks = 0;
  bool conservation_ok = false;  // loads == unloads + writebacks + loaded
};

void FinishTotals(Totals* totals, CacheKernel& ck) {
  uint32_t t = static_cast<uint32_t>(ck::ObjectType::kMapping);
  totals->writebacks = ck.stats().writebacks[t];
  totals->reclamations = ck.stats().reclamations[t];
  totals->scan_steps = ck.stats().reclaim_scan_steps[t];
  totals->vm_runs = ck.stats().policy_vm_runs;
  totals->vm_faults = ck.stats().policy_vm_faults;
  totals->fallbacks = ck.stats().policy_fallbacks;
  totals->conservation_ok =
      ck.stats().loads[t] ==
      ck.stats().explicit_unloads[t] + ck.stats().writebacks[t] + ck.loaded_count(ck::ObjectType::kMapping);
}

// One full run: fixed capacity, `working_set` distinct pages, kRounds rounds
// of (hot sweep + cold stream segment) under `setup`.
Totals Run(PolicySetup setup, uint32_t working_set) {
  cksim::MachineConfig mc;
  mc.memory_bytes = 8u << 20;
  cksim::Machine machine(mc);
  ck::CacheKernelConfig config;
  config.mapping_slots = kMappingSlots;
  CacheKernel ck(machine, config);
  SinkKernel sink;
  ck::KernelId kid = ck.BootFirstKernel(&sink, 0);
  CkApi api(ck, kid, machine.cpu(0));
  InstallPolicy(setup, api);
  ck::SpaceId space = api.LoadSpace(0, false).value();
  ck::ThreadSpec tspec;
  tspec.space = space;
  tspec.start_blocked = true;
  ck::ThreadId thread = api.LoadThread(tspec).value();
  uint16_t asid = static_cast<uint16_t>(space.id.slot);

  Totals totals;
  // Touch one page: reload the mapping if it was evicted, then access it
  // through the real translation path so the MMU sets the referenced bit.
  auto touch = [&](uint32_t vpage, bool hot) {
    ++totals.accesses;
    if (hot) {
      ++totals.hot_accesses;
    }
    cksim::VirtAddr vaddr = vpage * cksim::kPageSize;
    if (!api.QueryMapping(space, vaddr).ok()) {
      if (hot) {
        ++totals.hot_misses;
      }
      MappingSpec spec;
      spec.space = space;
      spec.vaddr = vaddr;
      spec.paddr = (kFrameBase + (vpage - kVbase)) * cksim::kPageSize;
      if (api.LoadMapping(spec) != CkStatus::kOk) {
        return;  // counted as load_failures by the CK; never happens here
      }
    }
    ck.GuestLoad(kid, machine.cpu(0), thread, vaddr);
  };

  uint32_t cold_pages = working_set - kHotPages;
  uint32_t cold_cursor = 0;
  for (uint32_t round = 0; round < kRounds; ++round) {
    // Referenced-bit harvest: force the next accesses through the table walk.
    machine.cpu(0).mmu().tlb().FlushAsid(asid);
    for (uint32_t h = 0; h < kHotPages; ++h) {
      touch(kVbase + h, /*hot=*/true);
    }
    for (uint32_t c = 0; c < kColdPerRound; ++c) {
      touch(kVbase + kHotPages + (cold_cursor++ % cold_pages), /*hot=*/false);
    }
  }

  FinishTotals(&totals, ck);
  return totals;
}

void BM_WorkingSet(benchmark::State& state, PolicySetup setup) {
  uint32_t working_set = static_cast<uint32_t>(state.range(0));
  Totals totals;
  for (auto _ : state) {
    totals = Run(setup, working_set);
  }
  state.counters["working_set"] = static_cast<double>(working_set);
  state.counters["capacity"] = static_cast<double>(kMappingSlots);
  state.counters["hot_miss_pct"] =
      100.0 * static_cast<double>(totals.hot_misses) / static_cast<double>(totals.hot_accesses);
  state.counters["writebacks_per_1k"] =
      1000.0 * static_cast<double>(totals.writebacks) / static_cast<double>(totals.accesses);
  state.counters["scan_per_reclaim"] =
      totals.reclamations == 0 ? 0.0
                               : static_cast<double>(totals.scan_steps) /
                                     static_cast<double>(totals.reclamations);
}

// ---------------------------------------------------------------------------
// Adversarial traces: access patterns chosen to defeat (or flatter) a
// referenced-bit policy, replayed against the same fixed-capacity mapping
// cache. Where BM_WorkingSet demonstrates the capacity cliff, these pin down
// the policies' known failure modes:
//
//   seq_scan       one pass over 4096 distinct pages, never revisited. Pure
//                  pollution: every access misses under EVERY policy, so the
//                  interesting number is scan_per_reclaim (eviction overhead
//                  with nothing worth keeping).
//   loop_over_cap  cyclic loop over capacity + 8 pages. The classic LRU/clock
//                  adversary: the page about to be reused is always the one
//                  the recency heuristic just evicted, so clock degrades to
//                  ~100% miss exactly like FIFO, while MRU keeps all but a
//                  few pages of the loop resident.
//   zipf           Zipf(s=1.0) popularity over 256 pages. Skew is where
//                  referenced bits earn their keep: clock keeps the popular
//                  head resident while FIFO churns it with the tail.
// ---------------------------------------------------------------------------

enum class TraceKind { kSeqScan, kLoopOverCapacity, kZipf };

const char* TraceName(TraceKind kind) {
  switch (kind) {
    case TraceKind::kSeqScan:
      return "seq_scan";
    case TraceKind::kLoopOverCapacity:
      return "loop_over_cap";
    case TraceKind::kZipf:
      return "zipf";
  }
  return "?";
}

// Build the page-index sequence for one trace (deterministic: fixed seed).
std::vector<uint32_t> BuildTrace(TraceKind kind, uint32_t* distinct_pages) {
  std::vector<uint32_t> trace;
  switch (kind) {
    case TraceKind::kSeqScan: {
      *distinct_pages = 4096;
      trace.reserve(*distinct_pages);
      for (uint32_t i = 0; i < *distinct_pages; ++i) {
        trace.push_back(i);
      }
      break;
    }
    case TraceKind::kLoopOverCapacity: {
      *distinct_pages = kMappingSlots + 8;
      trace.reserve(static_cast<size_t>(*distinct_pages) * 96);
      for (uint32_t pass = 0; pass < 96; ++pass) {
        for (uint32_t i = 0; i < *distinct_pages; ++i) {
          trace.push_back(i);
        }
      }
      break;
    }
    case TraceKind::kZipf: {
      *distinct_pages = 256;
      // Inverse-CDF sampling of Zipf(s=1.0): weight of page r is 1/(r+1).
      std::vector<double> cdf(*distinct_pages);
      double sum = 0.0;
      for (uint32_t r = 0; r < *distinct_pages; ++r) {
        sum += 1.0 / static_cast<double>(r + 1);
        cdf[r] = sum;
      }
      ckbase::Rng rng(0xC0FFEE);
      trace.reserve(8192);
      for (uint32_t i = 0; i < 8192; ++i) {
        double u = rng.NextDouble() * sum;
        uint32_t lo = 0, hi = *distinct_pages - 1;
        while (lo < hi) {
          uint32_t mid = (lo + hi) / 2;
          if (cdf[mid] < u) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
        trace.push_back(lo);
      }
      break;
    }
  }
  return trace;
}

// Replay one trace under `setup`. Every access is counted (there is no
// hot/cold split); the TLB is flushed every kMappingSlots accesses so the
// clock hand keeps seeing fresh referenced bits, as in BM_WorkingSet.
Totals RunAdversarial(PolicySetup setup, TraceKind kind) {
  cksim::MachineConfig mc;
  mc.memory_bytes = 32u << 20;
  cksim::Machine machine(mc);
  ck::CacheKernelConfig config;
  config.mapping_slots = kMappingSlots;
  CacheKernel ck(machine, config);
  SinkKernel sink;
  ck::KernelId kid = ck.BootFirstKernel(&sink, 0);
  CkApi api(ck, kid, machine.cpu(0));
  InstallPolicy(setup, api);
  ck::SpaceId space = api.LoadSpace(0, false).value();
  ck::ThreadSpec tspec;
  tspec.space = space;
  tspec.start_blocked = true;
  ck::ThreadId thread = api.LoadThread(tspec).value();
  uint16_t asid = static_cast<uint16_t>(space.id.slot);

  uint32_t distinct_pages = 0;
  std::vector<uint32_t> trace = BuildTrace(kind, &distinct_pages);

  Totals totals;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (i % kMappingSlots == 0) {
      machine.cpu(0).mmu().tlb().FlushAsid(asid);
    }
    uint32_t vpage = kVbase + trace[i];
    ++totals.accesses;
    ++totals.hot_accesses;  // every access counts toward miss_pct
    cksim::VirtAddr vaddr = vpage * cksim::kPageSize;
    if (!api.QueryMapping(space, vaddr).ok()) {
      ++totals.hot_misses;
      MappingSpec spec;
      spec.space = space;
      spec.vaddr = vaddr;
      spec.paddr = (kFrameBase + (vpage - kVbase) % 1024) * cksim::kPageSize;
      if (api.LoadMapping(spec) != CkStatus::kOk) {
        continue;
      }
    }
    ck.GuestLoad(kid, machine.cpu(0), thread, vaddr);
  }

  FinishTotals(&totals, ck);
  return totals;
}

void BM_AdversarialTrace(benchmark::State& state, PolicySetup setup, TraceKind kind) {
  Totals totals;
  for (auto _ : state) {
    totals = RunAdversarial(setup, kind);
  }
  state.SetLabel(TraceName(kind));
  state.counters["capacity"] = static_cast<double>(kMappingSlots);
  state.counters["miss_pct"] =
      100.0 * static_cast<double>(totals.hot_misses) / static_cast<double>(totals.hot_accesses);
  state.counters["writebacks_per_1k"] =
      1000.0 * static_cast<double>(totals.writebacks) / static_cast<double>(totals.accesses);
  state.counters["scan_per_reclaim"] =
      totals.reclamations == 0 ? 0.0
                               : static_cast<double>(totals.scan_steps) /
                                     static_cast<double>(totals.reclamations);
  state.counters["policy_vm_runs"] = static_cast<double>(totals.vm_runs);
  state.counters["policy_fallbacks"] = static_cast<double>(totals.fallbacks);
}

constexpr PolicySetup kClockSetup{};
constexpr PolicySetup kFifoSetup{kFifoSource};
constexpr PolicySetup kMruSetup{kMruSource};

#define CK_ADVERSARIAL(policy_name, setup)                                            \
  BENCHMARK_CAPTURE(BM_AdversarialTrace, policy_name##_seq_scan, setup,               \
                    TraceKind::kSeqScan)                                              \
      ->Iterations(1)                                                                 \
      ->Unit(benchmark::kMillisecond);                                                \
  BENCHMARK_CAPTURE(BM_AdversarialTrace, policy_name##_loop_over_cap, setup,          \
                    TraceKind::kLoopOverCapacity)                                     \
      ->Iterations(1)                                                                 \
      ->Unit(benchmark::kMillisecond);                                                \
  BENCHMARK_CAPTURE(BM_AdversarialTrace, policy_name##_zipf, setup, TraceKind::kZipf) \
      ->Iterations(1)                                                                 \
      ->Unit(benchmark::kMillisecond)

CK_ADVERSARIAL(clock, kClockSetup);
CK_ADVERSARIAL(fifo, kFifoSetup);
CK_ADVERSARIAL(guest_mru, kMruSetup);

#undef CK_ADVERSARIAL

// Working sets: comfortably under capacity (48 < 64: no reclamation at all),
// just over (96), and 3x over (192). The hot set is 16 pages throughout.
BENCHMARK_CAPTURE(BM_WorkingSet, clock, kClockSetup)
    ->Arg(48)
    ->Arg(96)
    ->Arg(192)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_WorkingSet, fifo, kFifoSetup)
    ->Arg(48)
    ->Arg(96)
    ->Arg(192)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
// Misses of a host-side FIFO queue of kMappingSlots pages replaying `trace`:
// the reference the fifo row's guest program must match.
uint64_t HostFifoMisses(const std::vector<uint32_t>& trace) {
  std::deque<uint32_t> queue;
  uint64_t misses = 0;
  for (uint32_t page : trace) {
    bool hit = false;
    for (uint32_t resident : queue) {
      hit = hit || resident == page;
    }
    if (hit) {
      continue;
    }
    ++misses;
    if (queue.size() == kMappingSlots) {
      queue.pop_front();
    }
    queue.push_back(page);
  }
  return misses;
}

// ---------------------------------------------------------------------------
// --self-check: replay the adversarial traces and enforce the X6 gates
// programmatically. This is what scripts/verify.sh runs under TSan and ASan
// -- the bench numbers are recorded separately by scripts/bench.sh.
// ---------------------------------------------------------------------------

int SelfCheck() {
  ckbench::Gates gates;

  const TraceKind kTraces[] = {TraceKind::kSeqScan, TraceKind::kLoopOverCapacity,
                               TraceKind::kZipf};
  for (TraceKind kind : kTraces) {
    Totals clock = RunAdversarial(kClockSetup, kind);
    Totals fifo = RunAdversarial(kFifoSetup, kind);
    Totals mru = RunAdversarial(kMruSetup, kind);
    uint32_t distinct_pages = 0;
    uint64_t host_fifo = HostFifoMisses(BuildTrace(kind, &distinct_pages));
    const char* name = TraceName(kind);
    char what[160];

    const std::pair<const char*, const Totals*> rows[] = {
        {"clock", &clock}, {"fifo", &fifo}, {"guest_mru", &mru}};
    for (const auto& [row, totals] : rows) {
      std::snprintf(what, sizeof(what), "%s: conservation identity holds for %s", name, row);
      gates.Check(totals->accesses > 0 && totals->conservation_ok, what);
    }

    // The fifo row's guest program must evict exactly what a FIFO queue
    // would: same misses, access for access.
    std::snprintf(what, sizeof(what), "%s: fifo == host FIFO queue (misses %llu/%llu)", name,
                  static_cast<unsigned long long>(fifo.hot_misses),
                  static_cast<unsigned long long>(host_fifo));
    gates.Check(fifo.reclamations > 0 && fifo.hot_misses == host_fifo, what);

    for (const auto& [row, totals] : rows) {
      if (totals == &clock) {
        continue;
      }
      std::snprintf(what, sizeof(what),
                    "%s: %s sandbox ran clean (vm_runs=%llu faults=%llu fallbacks=%llu)", name,
                    row, static_cast<unsigned long long>(totals->vm_runs),
                    static_cast<unsigned long long>(totals->vm_faults),
                    static_cast<unsigned long long>(totals->fallbacks));
      gates.Check(totals->vm_runs > 0 && totals->vm_faults == 0 && totals->fallbacks == 0,
                  what);
    }

    if (kind == TraceKind::kZipf) {
      // Referenced bits pay on skewed popularity: clock keeps the popular
      // head resident while FIFO churns it with the tail.
      std::snprintf(what, sizeof(what), "zipf: clock beats fifo (misses %llu < %llu)",
                    static_cast<unsigned long long>(clock.hot_misses),
                    static_cast<unsigned long long>(fifo.hot_misses));
      gates.Check(clock.hot_misses < fifo.hot_misses, what);
    }
    if (kind == TraceKind::kLoopOverCapacity) {
      // The loop defeats clock; the application kernel's own policy wins.
      std::snprintf(what, sizeof(what), "loop_over_cap: guest_mru beats clock (misses %llu < %llu)",
                    static_cast<unsigned long long>(mru.hot_misses),
                    static_cast<unsigned long long>(clock.hot_misses));
      gates.Check(mru.hot_misses < clock.hot_misses, what);
    }
  }

  return gates.Finish();
}

}  // namespace

int main(int argc, char** argv) {
  if (ckbench::HasFlag(argc, argv, "--self-check")) {
    return SelfCheck();
  }
#ifdef NDEBUG
  benchmark::AddCustomContext("binary_build_type", "release");
#else
  benchmark::AddCustomContext("binary_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
