// Host-side microbenchmarks (google-benchmark) of the hot data structures.
//
// These measure the REPRODUCTION's implementation cost on the host machine
// (nanoseconds), not the simulated 25 MHz machine -- useful for keeping the
// simulator fast, and a sanity check that the kernel's fixed-capacity,
// allocation-free structures behave O(1) as designed.

#include <benchmark/benchmark.h>

#include <array>

#include "bench/bench_util.h"
#include "src/base/fixed_pool.h"
#include "src/base/intrusive_list.h"
#include "src/base/rng.h"
#include "src/ck/physmap.h"
#include "src/ck/policy.h"
#include "src/isa/assembler.h"
#include "src/isa/fastpath.h"
#include "src/isa/interpreter.h"
#include "src/isa/sandbox.h"
#include "src/sim/tlb.h"

namespace {

void BM_PhysMapInsertRemove(benchmark::State& state) {
  ck::PhysicalMemoryMap pmap(static_cast<uint32_t>(state.range(0)));
  uint32_t key = 0;
  for (auto _ : state) {
    uint32_t index = pmap.Insert(key++ % 1024, 0x4000, 1, ck::RecordType::kPhysToVirt);
    benchmark::DoNotOptimize(index);
    pmap.Remove(index);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PhysMapInsertRemove)->Arg(1024)->Arg(65536);

void BM_PhysMapLookupChain(benchmark::State& state) {
  ck::PhysicalMemoryMap pmap(4096);
  // Chains of the given depth on one frame (one-to-many messaging shape).
  for (int64_t i = 0; i < state.range(0); ++i) {
    pmap.Insert(7, 0x4000 + static_cast<uint32_t>(i) * 0x1000, 1,
                ck::RecordType::kPhysToVirt);
  }
  for (auto _ : state) {
    uint32_t count = 0;
    for (uint32_t cur = pmap.FindFirst(7); cur != ck::kNilRecord; cur = pmap.NextWithKey(cur)) {
      ++count;
    }
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_PhysMapLookupChain)->Arg(1)->Arg(8)->Arg(64);

void BM_TlbLookupHit(benchmark::State& state) {
  cksim::Tlb tlb(64, 4);
  for (uint32_t i = 0; i < 32; ++i) {
    tlb.Insert(1, i, 100 + i, 0);
  }
  uint32_t page = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.Lookup(1, page++ % 32));
  }
}
BENCHMARK(BM_TlbLookupHit);

// Runs body(api, thread, page) on a launched kernel with one space, a
// blocked native thread and one resident page mapped at `page`, whose TLB
// entry cpu 0 holds.
template <typename Body>
void WithResidentPage(benchmark::State& state, Body&& body) {
  ckbench::World world;
  ckapp::AppKernelBase app("native", 64);
  world.Launch(app);
  ck::CkApi api = world.ApiFor(app);
  ck::SpaceId space = api.LoadSpace(0, false).value();
  ck::ThreadSpec thread_spec;
  thread_spec.space = space;
  thread_spec.start_blocked = true;
  thread_spec.cpu_hint = 0;
  ck::ThreadId thread = api.LoadThread(thread_spec).value();
  ck::MappingSpec mapping;
  mapping.space = space;
  mapping.vaddr = 0x00400000;
  mapping.paddr = app.frames().Allocate();
  mapping.flags.writable = true;
  if (api.LoadMapping(mapping) != ckbase::CkStatus::kOk) {
    state.SkipWithError("LoadMapping failed");
    return;
  }
  world.ck().GuestLoad(api.self(), world.machine().cpu(0), thread, mapping.vaddr);
  body(api, thread, mapping.vaddr);
}

void BM_NativeLoadHit(benchmark::State& state) {
  // One native load (CacheKernel::GuestLoad, behind NativeCtx::LoadWord) of a
  // resident page: the thread, kernel and space pool lookups, the inline TLB
  // hit, the remote-frame check and the word read. items = loads.
  WithResidentPage(state, [&](ck::CkApi& api, ck::ThreadId thread, cksim::VirtAddr page) {
    ck::CacheKernel& kernel = api.kernel();
    cksim::Cpu& cpu = api.cpu();
    uint32_t word = 0;
    for (auto _ : state) {
      benchmark::DoNotOptimize(
          kernel.GuestLoad(api.self(), cpu, thread, page + (word++ & 1023u) * 4));
    }
    state.SetItemsProcessed(state.iterations());
  });
}
BENCHMARK(BM_NativeLoadHit);

void BM_NativeLoadRun(benchmark::State& state) {
  // One NativeCtx::LoadWords of 64 words at stride 64 on the resident page,
  // with 3 cycles charged after each (the database scan's call): one full
  // native load, then one TLB probe and one batched charge for the other 63.
  // items = words, to compare with BM_NativeLoadHit.
  constexpr uint32_t kWords = 64;
  WithResidentPage(state, [&](ck::CkApi& api, ck::ThreadId thread, cksim::VirtAddr page) {
    ck::NativeCtx ctx(api, thread, 0);
    ckbase::Result<uint32_t> out[kWords];
    for (auto _ : state) {
      ctx.LoadWords(page, 64, kWords, 3, out);
      benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(state.iterations() * kWords);
  });
}
BENCHMARK(BM_NativeLoadRun);

void BM_MicroTlbHit(benchmark::State& state) {
  // The hint check of the trace executor's data translation: direct-mapped
  // hint lookup, two compares, re-validation against the live hardware-TLB
  // entry and the frame's remote bit. The LRU/hit bookkeeping is batched at
  // trace exit, so it is not measured here. Compare against BM_TlbLookupHit
  // (the set scan a bus access makes).
  constexpr uint32_t kFrames = 256;
  cksim::Tlb tlb(64, 4);
  ckisa::MicroTlb mtlb;
  std::array<uint8_t, kFrames> remote{};
  for (uint32_t i = 0; i < 32; ++i) {
    tlb.Insert(1, i, 100 + i, 0);
    mtlb.Fill(cksim::Access::kRead, 1, i, tlb.Probe(1, i));
  }
  uint32_t page = 0;
  for (auto _ : state) {
    uint32_t vpage = page++ % 32;
    ckisa::MicroTlbEntry& e = mtlb.At(cksim::Access::kRead, vpage);
    uint32_t pframe = 0;
    if (e.vpage == vpage && e.asid == 1) {
      const cksim::TlbEntry& t = tlb.EntryAt(e.tlb_index);
      if (t.valid && t.asid == 1 && t.vpage == vpage && t.pframe < kFrames &&
          remote[t.pframe] == 0) {
        pframe = t.pframe;
      }
    }
    benchmark::DoNotOptimize(pframe);
  }
}
BENCHMARK(BM_MicroTlbHit);

void BM_GuestMips(benchmark::State& state) {
  // End-to-end guest execution throughput through the full simulator stack
  // (scheduler turns, MMU, cost model), in guest instructions per host
  // second. The arg is CacheKernelConfig::fastpath: 0 is the slow
  // reference, 1 superblock trace execution.
  ck::CacheKernelConfig cfg;
  cfg.fastpath = state.range(0) != 0;
  // One CPU: every Step is a guest dispatch turn, not an idle-CPU turn, so
  // the measurement is interpreter throughput rather than idle scheduling.
  ckbench::World world(cfg, 16u << 20, /*cpus=*/1);
  ckapp::AppKernelBase app("mips", 64);
  world.Launch(app);
  ck::CkApi api = world.ApiFor(app);

  uint32_t space = app.CreateSpace(api);
  ckisa::AssembleResult assembled = ckisa::Assemble(R"(
      li   t3, 0x00400000
    loop:
      addi t0, t0, 1
      add  t1, t1, t0
      sw   t1, 0(t3)
      lw   t2, 4(t3)
      slt  t4, t2, t1
      bne  t0, r0, loop
      halt
  )", 0x10000);
  app.LoadProgramImage(space, assembled.program, /*writable=*/false);
  app.DefineZeroRegion(space, 0x00400000, 1, /*writable=*/true);
  ckapp::GuestThreadParams params;
  params.space_index = space;
  params.entry = 0x10000;
  app.CreateGuestThread(api, params);

  // Fault the working set in so the measured loop is steady-state execution.
  for (int i = 0; i < 4000; ++i) {
    world.machine().Step();
  }
  uint64_t start = world.ck().stats().guest_instructions;
  for (auto _ : state) {
    world.machine().Step();
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(world.ck().stats().guest_instructions - start));
}
BENCHMARK(BM_GuestMips)->Arg(0)->Arg(1);

void BM_FixedPoolAllocateRelease(benchmark::State& state) {
  struct Item {
    ckbase::ListNode pool_node;
    uint64_t payload[4];
  };
  ckbase::FixedPool<Item> pool(256);
  for (auto _ : state) {
    Item* item = pool.Allocate();
    benchmark::DoNotOptimize(item);
    pool.Release(item);
  }
}
BENCHMARK(BM_FixedPoolAllocateRelease);

void BM_InterpreterDispatch(benchmark::State& state) {
  // Flat-memory bus: measures raw interpreter dispatch throughput.
  class FlatBus : public ckisa::GuestBus {
   public:
    explicit FlatBus(const ckisa::Program& program) : words_(program.words) {}
    MemResult Fetch(uint32_t vaddr) override {
      MemResult r;
      r.ok = true;
      r.value = words_[(vaddr / 4) % words_.size()];
      return r;
    }
    MemResult Load(uint32_t, uint32_t) override { return Ok(); }
    MemResult Store(uint32_t, uint32_t, uint32_t) override { return Ok(); }
    void ChargeInstruction() override {}
    void OnMessageWrite(uint32_t) override {}

   private:
    static MemResult Ok() {
      MemResult r;
      r.ok = true;
      return r;
    }
    std::vector<uint32_t> words_;
  };

  ckisa::AssembleResult assembled = ckisa::Assemble(R"(
    loop:
      addi t0, t0, 1
      add  t1, t1, t0
      slt  t2, t0, t1
      j loop
  )", 0);
  FlatBus bus(assembled.program);
  ckisa::VmContext ctx;
  for (auto _ : state) {
    ckisa::Run(ctx, bus, 1000);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_InterpreterDispatch);

// paging_storm's mapping scorer (score = load_seq_low + (hw_ref << 20)) and
// a rotating set of candidate feature windows.
struct ScorerInputs {
  std::vector<uint32_t> words;
  std::vector<std::array<uint32_t, ck::kPolicyFeatureWords>> windows;
};

ScorerInputs MakeScorerInputs() {
  ckisa::AssembleResult assembled = ckisa::Assemble(R"(
      li   t0, 0x1000
      lw   a0, 16(t0)
      lw   t1, 8(t0)
      addi t2, r0, 20
      sll  t1, t1, t2
      add  a0, a0, t1
      halt
  )", ck::kPolicyCodeBase);
  ScorerInputs in;
  in.words = assembled.program.words;
  ckbase::Rng rng(1);
  in.windows.resize(256);
  for (auto& window : in.windows) {
    for (uint32_t& feature : window) {
      feature = static_cast<uint32_t>(rng.Below(1u << 16));
    }
    window[2] &= 1u;  // hw_ref is a bit
  }
  return in;
}

void BM_PolicyVm(benchmark::State& state) {
  // One sandboxed policy-program run per iteration, so the time per
  // iteration is the host cost of one one-shot RunPolicyProgram.
  const ScorerInputs in = MakeScorerInputs();
  size_t next = 0;
  uint64_t score_sum = 0;
  for (auto _ : state) {
    const auto& window = in.windows[next++ % in.windows.size()];
    ckisa::PolicyVmResult r = ckisa::RunPolicyProgram(
        in.words.data(), static_cast<uint32_t>(in.words.size()), window.data(),
        ck::kPolicyFeatureWords, ck::kPolicyCodeBase, ck::kPolicyFeatureBase,
        ck::CacheKernelConfig().policy_step_budget);
    score_sum += r.score;
  }
  benchmark::DoNotOptimize(score_sum);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PolicyVm);

void BM_PolicyVmScan(benchmark::State& state) {
  // One 96-candidate reclaim scan per iteration (paging_storm's mapping
  // cache holds 96), scored as ReclaimWithPolicy scores it: one PolicyVm per
  // scan, every candidate a lane of one engine pass. Items are candidates, so
  // the rate is what each candidate of a guest-scored scan pays.
  constexpr uint32_t kCandidates = 96;
  constexpr uint32_t kLanes = ckisa::PolicyVm::kLanes;
  const ScorerInputs in = MakeScorerInputs();
  std::vector<uint32_t> window(ck::kPolicyFeatureWords * kLanes);
  for (uint32_t lane = 0; lane < kCandidates; ++lane) {
    for (uint32_t w = 0; w < ck::kPolicyFeatureWords; ++w) {
      window[w * kLanes + lane] = in.windows[lane][w];
    }
  }
  ckisa::PolicyVmResult out[kLanes];
  uint64_t score_sum = 0;
  for (auto _ : state) {
    ckisa::PolicyVm vm(in.words.data(), static_cast<uint32_t>(in.words.size()),
                       ck::kPolicyCodeBase, ck::kPolicyFeatureBase);
    vm.Run(window.data(), ck::kPolicyFeatureWords, kLanes, kCandidates,
           ck::CacheKernelConfig().policy_step_budget, out);
    score_sum += out[kCandidates - 1].score;
  }
  benchmark::DoNotOptimize(score_sum);
  state.SetItemsProcessed(state.iterations() * kCandidates);
}
BENCHMARK(BM_PolicyVmScan);

void BM_AssembleSmallProgram(benchmark::State& state) {
  const char* source = R"(
      li   sp, 0x10000
      addi a0, r0, 20
      call double
      halt
    double:
      add  a0, a0, a0
      ret
  )";
  for (auto _ : state) {
    benchmark::DoNotOptimize(ckisa::Assemble(source, 0x1000));
  }
}
BENCHMARK(BM_AssembleSmallProgram);

}  // namespace

int main(int argc, char** argv) {
  ck::ObsSession obs(argc, argv);
  ckbench::ObsSlot() = &obs;
  // The system libbenchmark may itself be a debug build (its context reports
  // "library_build_type"); what decides whether these numbers are meaningful
  // is the build type of THIS binary, where all measured code and the
  // header-inlined timing loop live. scripts/bench.sh gates recording on it.
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
