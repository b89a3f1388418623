// Checkpoint/restore subsystem (src/ckpt, docs/CHECKPOINT.md):
//   * serializer and image framing round-trips, CRC corruption detection
//     ("never load a partial kernel");
//   * writeback -> serialize -> deserialize -> reload round-trips bit-exact
//     for every object type (kernel grant, spaces, threads, page records of
//     every residency class) on a generic application kernel;
//   * same-MPM checkpoint transparency (differential against an untouched
//     control world, the fastpath_test.cc pattern);
//   * cross-MPM live migration of the UNIX emulator with stable pids;
//   * crash failover from the last stable-store image;
//   * database kernel round-trip (app-extra state: recency list, query
//     engine progress);
//   * page records listed in address order, whatever order the pager's
//     hash map keeps them in.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/ckpt/checkpoint.h"
#include "src/ckpt/image.h"
#include "src/ckpt/serializer.h"
#include "src/db/db_kernel.h"
#include "src/isa/assembler.h"
#include "src/sim/devices.h"
#include "src/unixemu/unix_emulator.h"
#include "tests/test_harness.h"

namespace {

using ckbase::CkStatus;
using ckckpt::AppKernelState;
using ckckpt::CkptImage;
using ckckpt::FrameRemap;
using ckckpt::Reader;
using ckckpt::RecordType;
using ckckpt::RestoreOptions;
using ckckpt::Writer;
using ckunix::Process;
using ckunix::UnixConfig;
using ckunix::UnixEmulator;
using cktest::TestWorld;

ckisa::Program MustAssemble(const char* source, uint32_t base = 0x10000) {
  ckisa::AssembleResult result = ckisa::Assemble(source, base);
  EXPECT_TRUE(result.ok) << result.error;
  return result.program;
}

using Digest = std::vector<std::pair<std::string, uint64_t>>;

void ExpectDigestsEqual(const Digest& a, const Digest& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first) << "digest key order diverges at " << i;
    EXPECT_EQ(a[i].second, b[i].second) << "observable '" << a[i].first << "' differs";
  }
}

// ---------------------------------------------------------------------------
// Serializer.
// ---------------------------------------------------------------------------

TEST(CkptSerializer, RoundTripAllTypes) {
  Writer w;
  w.U8(0xab);
  w.U16(0xbeef);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefull);
  w.Bool(true);
  w.Bool(false);
  w.Str("writeback completeness");
  const uint8_t raw[4] = {1, 2, 3, 4};
  w.Bytes(raw, sizeof(raw));

  Reader r(w.data());
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U16(), 0xbeef);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefull);
  EXPECT_TRUE(r.Bool());
  EXPECT_FALSE(r.Bool());
  EXPECT_EQ(r.Str(), "writeback completeness");
  uint8_t out[4] = {0};
  r.Bytes(out, sizeof(out));
  EXPECT_EQ(std::memcmp(out, raw, sizeof(raw)), 0);
  EXPECT_TRUE(r.Done());
}

TEST(CkptSerializer, CrcMatchesKnownVector) {
  // The standard CRC-32 (IEEE, reflected) check value.
  EXPECT_EQ(ckckpt::Crc32("123456789", 9), 0xcbf43926u);
}

// The byte-at-a-time CRC-32 that the table-driven Crc32 must equal.
uint32_t BitwiseCrc32(const uint8_t* p, size_t len, uint32_t seed) {
  uint32_t c = seed ^ 0xffffffffu;
  for (size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xffffffffu;
}

TEST(CkptSerializer, CrcMatchesBytewiseReference) {
  ckbase::Rng rng(321);
  std::vector<uint8_t> buf(8 + 5000);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 64; ++len) {
    lengths.push_back(len);
  }
  for (size_t len : {1023u, 4096u, 4999u, 5000u}) {
    lengths.push_back(len);
  }
  for (size_t start = 0; start < 8; ++start) {  // every alignment of the 8-byte steps
    for (size_t len : lengths) {
      const uint8_t* p = buf.data() + start;
      const uint32_t seed = static_cast<uint32_t>(rng.Next());
      ASSERT_EQ(ckckpt::Crc32(p, len), BitwiseCrc32(p, len, 0))
          << "start " << start << " len " << len;
      ASSERT_EQ(ckckpt::Crc32(p, len, seed), BitwiseCrc32(p, len, seed))
          << "start " << start << " len " << len << " seed " << seed;
      // Chaining: a split at any point gives the CRC of the whole.
      const size_t cut = len == 0 ? 0 : static_cast<size_t>(rng.Below(len + 1));
      ASSERT_EQ(ckckpt::Crc32(p + cut, len - cut, ckckpt::Crc32(p, cut)), ckckpt::Crc32(p, len))
          << "start " << start << " len " << len << " cut " << cut;
    }
  }
}

TEST(CkptSerializer, ReaderOverrunIsSticky) {
  Writer w;
  w.U16(7);
  Reader r(w.data());
  r.U32();                  // overrun
  EXPECT_EQ(r.U64(), 0u);   // sticky: subsequent reads return zeros
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), "record truncated");
  EXPECT_FALSE(r.Done());
}

// ---------------------------------------------------------------------------
// Image container.
// ---------------------------------------------------------------------------

CkptImage SmallImage() {
  CkptImage image;
  Writer header;
  header.U32(0x1234);
  header.Str("tiny");
  image.Append(RecordType::kHeader, header.Take());
  Writer extra;
  for (uint8_t i = 0; i < 16; ++i) {
    extra.U8(i);
  }
  image.Append(RecordType::kAppExtra, extra.Take());
  image.Append(RecordType::kEnd, {});
  return image;
}

TEST(CkptImage, SerializeParseRoundTrip) {
  CkptImage image = SmallImage();
  std::vector<uint8_t> bytes = image.Serialize();
  EXPECT_EQ(bytes.size(), image.SizeBytes());

  CkptImage out;
  std::string error;
  ASSERT_TRUE(CkptImage::Parse(bytes, &out, &error)) << error;
  ASSERT_EQ(out.records().size(), image.records().size());
  for (size_t i = 0; i < out.records().size(); ++i) {
    EXPECT_EQ(out.records()[i].type, image.records()[i].type);
    EXPECT_EQ(out.records()[i].payload, image.records()[i].payload);
  }
  EXPECT_NE(out.Find(RecordType::kAppExtra), nullptr);
  EXPECT_EQ(out.Find(RecordType::kThread), nullptr);
}

TEST(CkptImage, EveryFlippedByteIsDetected) {
  std::vector<uint8_t> bytes = SmallImage().Serialize();
  {
    CkptImage ok_image;
    std::string error;
    ASSERT_TRUE(CkptImage::Parse(bytes, &ok_image, &error)) << error;
  }
  // One flipped bit anywhere -- magic, version, framing, payload, CRC --
  // must fail Parse and leave the output image untouched.
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (uint8_t bit : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::vector<uint8_t> corrupt = bytes;
      corrupt[i] ^= bit;
      CkptImage out;
      std::string error;
      EXPECT_FALSE(CkptImage::Parse(corrupt, &out, &error))
          << "flip of bit " << int(bit) << " at offset " << i << " went undetected";
      EXPECT_TRUE(out.records().empty()) << "output mutated on failure at offset " << i;
      EXPECT_FALSE(error.empty());
    }
  }
}

// ---------------------------------------------------------------------------
// Bit-exact round trip of a generic kernel exercising every object type.
// ---------------------------------------------------------------------------

constexpr const char* kWorkerSrc = R"(
      li   t0, 0x40000000
  loop:
      lw   t1, 0(t0)
      addi t1, t1, 1
      sw   t1, 0(t0)
      j    loop
)";

constexpr const char* kFinisherSrc = R"(
      addi s0, r0, 7
      halt
)";

TEST(CkptRoundTrip, RichKernelBitExactAcrossMachines) {
  TestWorld a;
  // A fixed device/channel region on A (the SRM controls device placement).
  uint32_t group_a = a.srm().ReserveGroups(1).value();
  cksim::PhysAddr fixed_a = group_a * cksim::kPageGroupBytes;

  ckapp::AppKernelBase app_a("rich", 64);
  cksrm::LaunchParams params;
  params.page_groups = 4;
  params.max_priority = 30;
  ASSERT_TRUE(a.srm().Launch(app_a, params).ok());
  ASSERT_EQ(a.srm().GrantSharedGroups(app_a, group_a, 1, ck::GroupAccess::kReadWrite),
            CkStatus::kOk);
  ck::CkApi api_a(a.ck(), app_a.self(), a.machine().cpu(0));

  uint32_t sp0 = app_a.CreateSpace(api_a);
  uint32_t sp1 = app_a.CreateSpace(api_a);

  // Zero-fill region: touch three pages (resident dirty owned frames).
  app_a.DefineZeroRegion(sp0, 0x40000000, 8, /*writable=*/true);
  for (uint32_t p = 0; p < 3; ++p) {
    uint32_t value = 0xabc00000u + p;
    ASSERT_TRUE(app_a.WriteGuest(api_a, sp0, 0x40000000 + p * cksim::kPageSize, &value, 4));
  }

  // Backing-store region: preload distinctive bytes, fault two pages in.
  uint32_t backed_first = 32;
  for (uint32_t p = 0; p < 4; ++p) {
    std::vector<uint8_t> data(cksim::kPageSize);
    for (uint32_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<uint8_t>(p * 31 + i);
    }
    app_a.backing().WriteBytes(backed_first + p, 0, data.data(),
                               static_cast<uint32_t>(data.size()));
  }
  app_a.DefineBackedRegion(sp0, 0x41000000, 4, backed_first, /*writable=*/true);
  uint32_t probe = 0;
  ASSERT_TRUE(app_a.ReadGuest(api_a, sp0, 0x41000000, &probe, 4));
  ASSERT_TRUE(app_a.ReadGuest(api_a, sp0, 0x41000000 + cksim::kPageSize, &probe, 4));

  // Guest threads: a worker that loops forever and a finisher that halts.
  app_a.DefineZeroRegion(sp0, 0x70000000, 4, /*writable=*/true);  // stacks
  ckisa::Program worker = MustAssemble(kWorkerSrc, 0x10000);
  ckisa::Program finisher = MustAssemble(kFinisherSrc, 0x14000);
  app_a.LoadProgramImage(sp0, worker, /*writable=*/false);
  app_a.LoadProgramImage(sp0, finisher, /*writable=*/false);
  ckapp::GuestThreadParams worker_params;
  worker_params.space_index = sp0;
  worker_params.entry = worker.base;
  worker_params.stack_top = 0x70002000;
  uint32_t worker_index = app_a.CreateGuestThread(api_a, worker_params);
  ckapp::GuestThreadParams fin_params;
  fin_params.space_index = sp0;
  fin_params.entry = finisher.base;
  fin_params.stack_top = 0x70004000;
  uint32_t fin_index = app_a.CreateGuestThread(api_a, fin_params);

  // Message page on the fixed frame, signalling the worker; carries payload.
  app_a.DefineFrameRegion(sp1, 0x50000000, 1, fixed_a, /*writable=*/true,
                          /*message=*/true, /*signal_thread=*/worker_index);
  const char payload[] = "channel payload survives migration";
  ASSERT_EQ(api_a.WritePhys(fixed_a, payload, sizeof(payload)), CkStatus::kOk);

  // Deferred-copy region off a template frame in the fixed region: write one
  // page (forces the copy), leave the other deferred (kSharedFrame record).
  cksim::PhysAddr template_frame = fixed_a + cksim::kPageSize;
  const char template_data[] = "cow template";
  ASSERT_EQ(api_a.WritePhys(template_frame, template_data, sizeof(template_data)),
            CkStatus::kOk);
  app_a.DefineCowRegion(sp0, 0x60000000, 2, template_frame);
  uint32_t cow_touch = 0x5a5a5a5a;
  ASSERT_TRUE(app_a.WriteGuest(api_a, sp0, 0x60000000 + 64, &cow_touch, 4));

  // Run until the finisher halts and the worker has made progress.
  ASSERT_TRUE(a.RunUntil([&] { return app_a.thread(fin_index).finished; }));
  a.RunUntil([] { return false; }, 20000);
  uint32_t counter_at_capture = 0;
  ASSERT_TRUE(app_a.ReadGuest(api_a, sp0, 0x40000000, &counter_at_capture, 4));
  ASSERT_GT(counter_at_capture, 0u);

  // Checkpoint in place; the image is observably bit-exact with the kernel.
  CkptImage image;
  ASSERT_EQ(a.srm().Checkpoint(app_a, &image), CkStatus::kOk);
  ck::CkApi srm_api_a = a.Api();
  Digest digest_a = AppKernelState::Digest(app_a, srm_api_a);

  // Ship through the serialized form (what migration/failover moves).
  std::vector<uint8_t> bytes = image.Serialize();
  CkptImage shipped;
  std::string error;
  ASSERT_TRUE(CkptImage::Parse(bytes, &shipped, &error)) << error;

  // Target machine: the fixed region lives at a different physical base.
  TestWorld b;
  ASSERT_TRUE(b.srm().ReserveGroups(1).ok());
  uint32_t group_b = b.srm().ReserveGroups(1).value();
  cksim::PhysAddr fixed_b = group_b * cksim::kPageGroupBytes;
  ASSERT_NE(fixed_b, fixed_a);

  ckapp::AppKernelBase app_b("rich", 64);
  RestoreOptions options;
  options.frame_remaps.push_back(FrameRemap{fixed_a, fixed_b, 2});
  ASSERT_EQ(b.srm().Restore(app_b, shipped, options, &error), CkStatus::kOk) << error;

  ck::CkApi srm_api_b = b.Api();
  Digest digest_b = AppKernelState::Digest(app_b, srm_api_b);
  ExpectDigestsEqual(digest_a, digest_b);
  EXPECT_TRUE(b.ck().ValidateInvariants().empty());

  // The migrated channel payload is readable at the remapped fixed frame.
  char migrated[sizeof(payload)] = {0};
  ASSERT_EQ(srm_api_b.ReadPhys(fixed_b, migrated, sizeof(migrated)), CkStatus::kOk);
  EXPECT_STREQ(migrated, payload);

  // Execution continues on the target: the worker keeps counting.
  b.RunUntil([] { return false; }, 20000);
  ck::CkApi api_b(b.ck(), app_b.self(), b.machine().cpu(0));
  uint32_t counter_after = 0;
  ASSERT_TRUE(app_b.ReadGuest(api_b, sp0, 0x40000000, &counter_after, 4));
  EXPECT_GT(counter_after, counter_at_capture);
  EXPECT_TRUE(b.ck().ValidateInvariants().empty());
}

// ---------------------------------------------------------------------------
// Tiered physical memory: placement is observable state and must survive
// both restore paths (docs/TIERING.md, docs/CHECKPOINT.md).
// ---------------------------------------------------------------------------

// Capture records only non-zero backing pages; a page whose single non-zero
// byte is its first, or its last, must still be captured and restored.
TEST(CkptRoundTrip, BackingPagesNonZeroOnlyAtOneEdgeRoundTrip) {
  TestWorld a;
  ckapp::AppKernelBase app_a("edges", 16);
  ASSERT_TRUE(a.Launch(app_a).valid());
  const uint8_t mark = 0x5a;
  app_a.backing().WriteBytes(3, 0, &mark, 1);
  app_a.backing().WriteBytes(9, cksim::kPageSize - 1, &mark, 1);

  CkptImage image;
  ASSERT_EQ(a.srm().Checkpoint(app_a, &image), CkStatus::kOk);
  std::vector<uint32_t> captured;
  for (const ckckpt::CkptRecord& record : image.records()) {
    if (record.type == RecordType::kBackingPage) {
      Reader r(record.payload);
      captured.push_back(r.U32());
    }
  }
  EXPECT_EQ(captured, (std::vector<uint32_t>{3, 9}));

  TestWorld b;
  ckapp::AppKernelBase app_b("edges", 16);
  std::string error;
  ASSERT_EQ(b.srm().Restore(app_b, image, RestoreOptions{}, &error), CkStatus::kOk) << error;
  for (uint32_t p = 0; p < app_b.backing().page_count(); ++p) {
    const uint8_t* restored = app_b.backing().PageData(p);
    EXPECT_EQ(std::memcmp(restored, app_a.backing().PageData(p), cksim::kPageSize), 0)
        << "backing page " << p;
  }
  EXPECT_EQ(app_b.backing().PageData(3)[0], mark);
  EXPECT_EQ(app_b.backing().PageData(9)[cksim::kPageSize - 1], mark);
}

// Capture visits only the pages written since the store's block was last
// zeroed. Its records must equal those of a full scan of the store, the
// algorithm before written flags: every page in order, zero pages skipped.
TEST(CkptRoundTrip, BackingRecordsMatchAFullScan) {
  TestWorld a;
  ckapp::AppKernelBase app("scan", 40);
  ASSERT_TRUE(a.Launch(app).valid());
  const std::vector<uint8_t> zeros(cksim::kPageSize, 0);
  const uint8_t mark[3] = {1, 2, 3};
  app.backing().WriteBytes(2, 0, zeros.data(), cksim::kPageSize);  // written with zeros
  app.backing().WriteBytes(5, 100, mark, 3);
  app.backing().WriteBytes(7, cksim::kPageSize - 3, mark, 3);
  app.backing().WriteBytes(30, 0, mark, 1);
  app.backing().WriteBytes(30, 0, zeros.data(), 1);  // back to zeros
  app.backing().WriteBytes(39, 4, mark, 2);

  CkptImage image;
  ASSERT_EQ(a.srm().Checkpoint(app, &image), CkStatus::kOk);
  std::vector<std::vector<uint8_t>> captured;
  for (const ckckpt::CkptRecord& record : image.records()) {
    if (record.type == RecordType::kBackingPage) {
      captured.push_back(record.payload);
    }
  }
  std::vector<std::vector<uint8_t>> reference;
  for (uint32_t p = 0; p < app.backing().page_count(); ++p) {
    const uint8_t* data = app.backing().PageData(p);
    if (std::memcmp(data, zeros.data(), cksim::kPageSize) == 0) {
      continue;
    }
    Writer w;
    w.U32(p);
    w.Bytes(data, cksim::kPageSize);
    reference.push_back(w.Take());
  }
  EXPECT_EQ(captured, reference);
  EXPECT_EQ(captured.size(), 3u);
}

// ---------------------------------------------------------------------------
// Backing stores (src/appkernel/backing_store.h): a destroyed store's block
// goes to the next store of its byte size, which must read as all zeros
// however the pages were written.
// ---------------------------------------------------------------------------

constexpr uint32_t kReusePages = 37;  // a store size no other test or kernel uses
// The first page, the last page (the first one swap hands out) and a swap
// page below it.
constexpr uint32_t kMarkedPages[] = {0, kReusePages - 1, kReusePages - 2};
constexpr uint32_t kMark = 0xa5c3e1f7;

void ExpectMarked(const ckapp::BackingStore& store) {
  for (uint32_t p : kMarkedPages) {
    uint32_t word = 0;
    std::memcpy(&word, store.PageData(p) + 12, 4);
    EXPECT_EQ(word, kMark) << "page " << p;
  }
}

// The next store of the destroyed one's size takes `block` and reads as
// all zeros, with nothing written.
void ExpectReusedBlockReadsAsZeros(const uint8_t* block, const char* writer) {
  ckapp::BackingStore store(kReusePages);
  ASSERT_EQ(store.PageData(0), block) << writer << ": the new store must take the old block";
  for (uint32_t p = 0; p < kReusePages; ++p) {
    const uint8_t* data = store.PageData(p);
    for (uint32_t i = 0; i < cksim::kPageSize; ++i) {
      ASSERT_EQ(data[i], 0u) << writer << ": stale byte " << i << " of page " << p;
    }
  }
  uint32_t visited = 0;
  store.ForEachWritten([&visited](uint32_t, const uint8_t*) { ++visited; });
  EXPECT_EQ(visited, 0u) << writer;
}

TEST(BackingStoreTest, ReusedStoreReadsAsZeros) {
  const uint8_t* block = nullptr;
  {
    TestWorld world;
    ckapp::AppKernelBase app("reuse", kReusePages);
    ASSERT_TRUE(world.Launch(app).valid());
    ck::CkApi api(world.ck(), app.self(), world.machine().cpu(0));
    cksim::PhysAddr frame = app.frames().Allocate();
    ASSERT_EQ(api.WritePhys(frame + 12, &kMark, 4), CkStatus::kOk);
    for (uint32_t p : kMarkedPages) {
      app.backing().WritePage(api, frame, p, /*charge_latency=*/false);
    }
    ExpectMarked(app.backing());
    block = app.backing().PageData(0);
  }
  ExpectReusedBlockReadsAsZeros(block, "WritePage");

  {
    ckapp::BackingStore store(kReusePages);
    for (uint32_t p : kMarkedPages) {
      store.WriteBytes(p, 12, &kMark, 4);
    }
    ExpectMarked(store);
    block = store.PageData(0);
  }
  ExpectReusedBlockReadsAsZeros(block, "WriteBytes");

  CkptImage image;
  {
    TestWorld a;
    ckapp::AppKernelBase source("reuse", kReusePages);
    ASSERT_TRUE(a.Launch(source).valid());
    for (uint32_t p : kMarkedPages) {
      source.backing().WriteBytes(p, 12, &kMark, 4);
    }
    ASSERT_EQ(a.srm().Checkpoint(source, &image), CkStatus::kOk);
  }
  {
    TestWorld b;
    ckapp::AppKernelBase target("reuse", kReusePages);
    std::string error;
    ASSERT_EQ(b.srm().Restore(target, image, RestoreOptions{}, &error), CkStatus::kOk) << error;
    ExpectMarked(target.backing());
    block = target.backing().PageData(0);
  }
  ExpectReusedBlockReadsAsZeros(block, "checkpoint restore");
}

// A block waits poisoned, so a stale pointer into a destroyed store is an
// AddressSanitizer report, not a silent read.
TEST(BackingStoreTest, StalePointerIntoASpareIsAnAsanReport) {
#if defined(__SANITIZE_ADDRESS__)
  EXPECT_DEATH(
      {
        auto* store = new ckapp::BackingStore(kReusePages + 2);
        const volatile uint8_t* stale = store->PageData(1) + 7;
        delete store;
        (void)*stale;
      },
      "use-after-poison");
#else
  GTEST_SKIP() << "needs an AddressSanitizer build";
#endif
}

TEST(CkptRoundTrip, TierPlacementSurvivesRestoreAndMigrate) {
  cktest::WorldOptions tiered;
  tiered.ck.tier_dram_frames = 12;  // below the app's resident set
  TestWorld a(tiered);

  ckapp::AppKernelBase app_a("tiered", 64);
  a.Launch(app_a, /*page_groups=*/2);
  ck::CkApi api_a(a.ck(), app_a.self(), a.machine().cpu(0));

  // Touch well past the DRAM budget so the maintenance scan demotes the
  // overshoot; the resident set then straddles both tiers.
  uint32_t sp = app_a.CreateSpace(api_a);
  app_a.DefineZeroRegion(sp, 0x40000000, 32, /*writable=*/true);
  for (uint32_t p = 0; p < 32; ++p) {
    uint32_t value = 0x7e500000u + p;
    ASSERT_TRUE(app_a.WriteGuest(api_a, sp, 0x40000000 + p * cksim::kPageSize, &value, 4));
  }
  a.RunUntil([] { return false; }, 30000);
  ASSERT_GT(a.machine().memory().tier_count(cksim::MemTier::kSlow), 0u)
      << "DRAM squeeze demoted nothing; the round trip would not cover slow frames";

  // Leg 1: checkpoint, ship the serialized bytes, restore on a tiered peer.
  CkptImage image;
  ASSERT_EQ(a.srm().Checkpoint(app_a, &image), CkStatus::kOk);
  ck::CkApi srm_api_a = a.Api();
  Digest digest_a = AppKernelState::Digest(app_a, srm_api_a);
  uint64_t slow_pages_in_digest = 0;
  for (const auto& [key, value] : digest_a) {
    if (key.size() > 5 && key.compare(key.size() - 5, 5, ".tier") == 0 &&
        value == static_cast<uint64_t>(cksim::MemTier::kSlow)) {
      ++slow_pages_in_digest;
    }
  }
  EXPECT_GT(slow_pages_in_digest, 0u);

  std::vector<uint8_t> bytes = image.Serialize();
  CkptImage shipped;
  std::string error;
  ASSERT_TRUE(CkptImage::Parse(bytes, &shipped, &error)) << error;

  TestWorld b(tiered);
  ckapp::AppKernelBase app_b("tiered", 64);
  ASSERT_EQ(b.srm().Restore(app_b, shipped, RestoreOptions{}, &error), CkStatus::kOk) << error;
  ck::CkApi srm_api_b = b.Api();
  Digest digest_b = AppKernelState::Digest(app_b, srm_api_b);
  ExpectDigestsEqual(digest_a, digest_b);
  EXPECT_TRUE(b.ck().ValidateInvariants().empty());

  // Leg 2: live migration over the fiber channel moves the same placement.
  TestWorld c(tiered);
  uint32_t group_a = a.srm().ReserveGroups(1).value();
  uint32_t group_c = c.srm().ReserveGroups(1).value();
  cksim::FiberChannelDevice fc_a(a.machine().memory(), &a.ck(),
                                 group_a * cksim::kPageGroupBytes, 4, 4, 2500);
  cksim::FiberChannelDevice fc_c(c.machine().memory(), &c.ck(),
                                 group_c * cksim::kPageGroupBytes, 4, 4, 2500);
  cksim::FiberChannelDevice::Connect(fc_a, fc_c);
  a.machine().AttachDevice(&fc_a);
  c.machine().AttachDevice(&fc_c);

  ASSERT_EQ(a.srm().Migrate(app_a, fc_a), CkStatus::kOk);
  Digest digest_at_migrate = AppKernelState::Digest(app_a, srm_api_a);

  ckapp::AppKernelBase app_c("tiered", 64);
  CkStatus accepted = CkStatus::kRetry;
  for (uint64_t i = 0; i < 200000 && accepted == CkStatus::kRetry; ++i) {
    c.machine().Step();
    accepted = c.srm().AcceptMigration(fc_c, app_c, RestoreOptions{}, &error);
  }
  ASSERT_EQ(accepted, CkStatus::kOk) << error;
  ck::CkApi srm_api_c = c.Api();
  Digest digest_c = AppKernelState::Digest(app_c, srm_api_c);
  ExpectDigestsEqual(digest_at_migrate, digest_c);
  EXPECT_TRUE(c.ck().ValidateInvariants().empty());
}

// ---------------------------------------------------------------------------
// Corruption and mismatch: a bad image never loads a partial kernel.
// ---------------------------------------------------------------------------

TEST(CkptCorruption, CorruptStoreImageRestoresNothing) {
  TestWorld a;
  ckapp::AppKernelBase app_a("victim", 16);
  ASSERT_TRUE(a.srm().Launch(app_a, cksrm::LaunchParams{}).ok());
  ck::CkApi api_a(a.ck(), app_a.self(), a.machine().cpu(0));
  uint32_t sp = app_a.CreateSpace(api_a);
  app_a.DefineZeroRegion(sp, 0x40000000, 2, true);
  uint32_t v = 0x11223344;
  ASSERT_TRUE(app_a.WriteGuest(api_a, sp, 0x40000000, &v, 4));

  CkptImage image;
  ASSERT_EQ(a.srm().Checkpoint(app_a, &image), CkStatus::kOk);
  std::vector<uint8_t> bytes = image.Serialize();
  bytes[bytes.size() / 2] ^= 0x40;  // one flipped bit, mid-payload

  cksim::StableStore store;
  store.Put("victim", bytes);

  TestWorld b;
  ckapp::AppKernelBase app_b("victim", 16);
  std::string error;
  EXPECT_EQ(b.srm().RestoreFromStore(app_b, store, "victim", RestoreOptions{}, &error),
            CkStatus::kInvalidArgument);
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;
  // Clean failure: nothing of the kernel was created, let alone loaded.
  EXPECT_EQ(app_b.space_count(), 0u);
  EXPECT_EQ(app_b.thread_count(), 0u);
  EXPECT_TRUE(b.ck().ValidateInvariants().empty());

  std::string missing_error;
  EXPECT_EQ(b.srm().RestoreFromStore(app_b, store, "absent", RestoreOptions{}, &missing_error),
            CkStatus::kNotFound);
}

TEST(CkptCorruption, MismatchedTargetLoadsNoObjects) {
  TestWorld a;
  UnixEmulator emu_a(a.ck());
  cksrm::LaunchParams params;
  params.page_groups = 8;
  params.max_priority = 31;
  params.locked_kernel_object = true;
  ASSERT_TRUE(a.srm().Launch(emu_a, params).ok());
  ck::CkApi api_a(a.ck(), emu_a.self(), a.machine().cpu(0));
  emu_a.Start(api_a);
  int pid = emu_a.Exec(api_a, MustAssemble(R"(
      addi a0, r0, 3
      trap 17
  )"));
  ASSERT_TRUE(a.RunUntil(
      [&] { return emu_a.process(pid).state == Process::State::kZombie; }));

  CkptImage image;
  ASSERT_EQ(a.srm().Checkpoint(emu_a, &image), CkStatus::kOk);

  // A target instance configured differently is rejected by the emulator's
  // RestoreExtra; the Cache Kernel ends up with no objects for it.
  TestWorld b;
  UnixConfig other;
  other.default_priority = 5;  // != default fingerprint
  UnixEmulator emu_b(b.ck(), other);
  std::string error;
  EXPECT_EQ(b.srm().Restore(emu_b, image, RestoreOptions{}, &error),
            CkStatus::kInvalidArgument);
  EXPECT_NE(error.find("config mismatch"), std::string::npos) << error;
  for (uint32_t i = 0; i < emu_b.thread_count(); ++i) {
    EXPECT_FALSE(emu_b.thread(i).loaded) << "thread " << i << " loaded on failed restore";
  }
  EXPECT_TRUE(b.ck().ValidateInvariants().empty());
}

// ---------------------------------------------------------------------------
// UNIX emulator: checkpoint transparency, migration, failover.
// ---------------------------------------------------------------------------

// Deterministic per-process workload (console output and exit codes do not
// depend on cross-process timing, so a checkpoint-induced delay is invisible).
constexpr const char* kTickerSrc = R"(
      addi s0, r0, 3
  loop:
      la   a0, msg
      addi a1, r0, 4
      trap 18         ; write "tik."
      li   a0, 12000
      trap 20         ; sleep 12ms (crosses the thread-unload threshold)
      addi s0, s0, -1
      beq  s0, r0, done
      j    loop
  done:
      addi a0, r0, 7
      trap 17
  msg:
      .word 0x2e6b6974  ; "tik."
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
      trap 24         ; spawn(registered program 0)
      trap 25         ; waitpid(child) -> exit code
      addi a0, a0, 1
      trap 17         ; exit(child code + 1)
)";

constexpr const char* kReceiverSrc = R"(
      addi a0, r0, 1
      trap 19         ; sbrk(1 page) -> buffer
      mv   s1, a0
      mv   a0, s1
      addi a1, r0, 16
      trap 27         ; recv -> len
      mv   a1, a0
      mv   a0, s1
      trap 18         ; echo the received bytes to the console
      addi a0, r0, 0
      trap 17
)";

constexpr const char* kSenderSrc = R"(
      li   a0, 4000
      trap 20         ; let the receiver block first
      addi a0, r0, 3  ; receiver pid (third exec)
      la   a1, msg
      addi a2, r0, 4
      trap 26         ; send "ping"
      addi a0, r0, 0
      trap 17
  msg:
      .word 0x676e6970
)";

// One world running the full workload. pids: ticker=1, spawner=2,
// receiver=3, sender=4, spawned child=5.
struct UnixWorld {
  explicit UnixWorld(const UnixConfig& config = UnixConfig()) : emu(world.ck(), config) {
    cksrm::LaunchParams params;
    params.page_groups = 8;
    params.max_priority = 31;
    params.locked_kernel_object = true;
    EXPECT_TRUE(world.srm().Launch(emu, params).ok());
    ck::CkApi api = Api();
    emu.Start(api);
  }

  ck::CkApi Api() { return ck::CkApi(world.ck(), emu.self(), world.machine().cpu(0)); }

  void ExecWorkload() {
    ck::CkApi api = Api();
    emu.RegisterProgram(MustAssemble(kChildSrc));
    EXPECT_EQ(emu.Exec(api, MustAssemble(kTickerSrc)), 1);
    EXPECT_EQ(emu.Exec(api, MustAssemble(kSpawnerSrc)), 2);
    EXPECT_EQ(emu.Exec(api, MustAssemble(kReceiverSrc)), 3);
    EXPECT_EQ(emu.Exec(api, MustAssemble(kSenderSrc)), 4);
  }

  TestWorld world;
  UnixEmulator emu;
};

void ExpectWorkloadComplete(UnixEmulator& emu) {
  ASSERT_EQ(emu.process_count(), 5u);
  EXPECT_EQ(emu.process(1).console, "tik.tik.tik.");
  EXPECT_EQ(emu.process(1).exit_code, 7);
  EXPECT_EQ(emu.process(2).exit_code, 10);  // child's 9 + 1, via waitpid
  EXPECT_EQ(emu.process(3).console, "ping");
  EXPECT_EQ(emu.process(3).exit_code, 0);
  EXPECT_EQ(emu.process(4).exit_code, 0);
  EXPECT_EQ(emu.process(5).console, "c!\n");
  EXPECT_EQ(emu.process(5).exit_code, 9);
  for (uint32_t p = 1; p <= emu.process_count(); ++p) {
    EXPECT_EQ(emu.process(p).pid, static_cast<int>(p)) << "pid not stable";
    EXPECT_EQ(emu.process(p).state, Process::State::kZombie);
  }
}

TEST(CkptUnix, SameMpmCheckpointIsTransparent) {
  UnixWorld control;
  UnixWorld probed;
  control.ExecWorkload();
  probed.ExecWorkload();

  // Checkpoint the probed world mid-run (the ticker is mid-sequence, the
  // spawner/receiver are blocked in syscalls).
  ASSERT_TRUE(probed.world.RunUntil([&] { return probed.emu.process(1).console.size() >= 8; }));
  CkptImage image;
  ASSERT_EQ(probed.world.srm().Checkpoint(probed.emu, &image), CkStatus::kOk);
  EXPECT_GT(image.SizeBytes(), 0u);

  ASSERT_TRUE(control.world.RunUntil([&] { return control.emu.AllExited(); }));
  ASSERT_TRUE(probed.world.RunUntil([&] { return probed.emu.AllExited(); }));

  // Differential: every process observable matches the untouched control.
  ExpectWorkloadComplete(control.emu);
  ExpectWorkloadComplete(probed.emu);
  ASSERT_EQ(control.emu.process_count(), probed.emu.process_count());
  for (uint32_t p = 1; p <= control.emu.process_count(); ++p) {
    EXPECT_EQ(control.emu.process(p).console, probed.emu.process(p).console);
    EXPECT_EQ(control.emu.process(p).exit_code, probed.emu.process(p).exit_code);
  }
  EXPECT_TRUE(probed.world.ck().ValidateInvariants().empty());
}

TEST(CkptUnix, SleeperWakesAfterSameMpmCheckpoint) {
  // Checkpoint swaps the emulator out and back in under a new kernel id, so
  // a wakeup armed before it is stale. A process asleep across the
  // checkpoint must still wake up and finish.
  UnixWorld w;
  w.ExecWorkload();
  Process& ticker = w.emu.process(1);
  ASSERT_TRUE(w.world.RunUntil([&] {
    return ticker.console.size() >= 8 && ticker.state == Process::State::kSleeping;
  }));
  CkptImage image;
  ASSERT_EQ(w.world.srm().Checkpoint(w.emu, &image), CkStatus::kOk);
  ASSERT_EQ(ticker.state, Process::State::kSleeping);
  ASSERT_TRUE(w.world.RunUntil([&] { return w.emu.AllExited(); }));
  ExpectWorkloadComplete(w.emu);
  EXPECT_TRUE(w.world.ck().ValidateInvariants().empty());
}

TEST(CkptUnix, CrossMpmMigrationPreservesPids) {
  UnixWorld a;
  TestWorld b;

  // Fiber channel between the MPMs (device regions placed by each SRM).
  uint32_t group_a = a.world.srm().ReserveGroups(1).value();
  uint32_t group_b = b.srm().ReserveGroups(1).value();
  cksim::FiberChannelDevice fc_a(a.world.machine().memory(), &a.world.ck(),
                                 group_a * cksim::kPageGroupBytes, 4, 4, 2500);
  cksim::FiberChannelDevice fc_b(b.machine().memory(), &b.ck(),
                                 group_b * cksim::kPageGroupBytes, 4, 4, 2500);
  cksim::FiberChannelDevice::Connect(fc_a, fc_b);
  a.world.machine().AttachDevice(&fc_a);
  b.machine().AttachDevice(&fc_b);

  a.ExecWorkload();
  ASSERT_TRUE(a.world.RunUntil([&] { return a.emu.process(1).console.size() >= 8; }));

  // Quiesce, capture and ship. The source instance stays swapped out.
  ASSERT_EQ(a.world.srm().Migrate(a.emu, fc_a), CkStatus::kOk);
  EXPECT_TRUE(a.world.srm().IsSwappedOut(a.emu));
  EXPECT_EQ(fc_a.bulk_sent(), 1u);

  // Target emulator: fresh instance, same configuration; its schedulers and
  // process table come from the image (Start is NOT called).
  UnixEmulator emu_b(b.ck());
  std::string error;
  CkStatus accepted = CkStatus::kRetry;
  for (uint64_t i = 0; i < 200000 && accepted == CkStatus::kRetry; ++i) {
    b.machine().Step();
    accepted = b.srm().AcceptMigration(fc_b, emu_b, RestoreOptions{}, &error);
  }
  ASSERT_EQ(accepted, CkStatus::kOk) << error;
  EXPECT_EQ(fc_b.bulk_received(), 1u);

  // All guest processes resume on B and run to completion with stable pids.
  ASSERT_TRUE(b.RunUntil([&] { return emu_b.AllExited(); }));
  ExpectWorkloadComplete(emu_b);
  // Pre-migration output was preserved, not replayed from scratch: the part
  // the source had already produced is a prefix of the final console.
  EXPECT_EQ(emu_b.process(1).console.compare(0, 8, a.emu.process(1).console, 0, 8), 0);
  EXPECT_TRUE(b.ck().ValidateInvariants().empty());
}

TEST(CkptUnix, FailoverRestartsFromLastCheckpoint) {
  cksim::StableStore store;
  UnixWorld a;
  a.ExecWorkload();

  // Periodic checkpoints to stable store while A runs.
  ASSERT_TRUE(a.world.RunUntil([&] { return a.emu.process(1).console.size() >= 4; }));
  ASSERT_EQ(a.world.srm().CheckpointToStore(a.emu, store, "unix"), CkStatus::kOk);
  ASSERT_TRUE(a.world.RunUntil([&] { return a.emu.process(1).console.size() >= 8; }));
  ASSERT_EQ(a.world.srm().CheckpointToStore(a.emu, store, "unix"), CkStatus::kOk);
  EXPECT_EQ(store.puts(), 2u);
  std::string console_at_last_checkpoint = a.emu.process(1).console;

  // Post-checkpoint progress, then the MPM fails.
  a.world.RunUntil([] { return false; }, 5000);
  a.world.machine().Halt();

  // The surviving SRM restarts the lost kernel from the last image; only
  // work since that checkpoint is lost (and is deterministically redone).
  TestWorld b;
  UnixEmulator emu_b(b.ck());
  std::string error;
  ASSERT_EQ(b.srm().RestoreFromStore(emu_b, store, "unix", RestoreOptions{}, &error),
            CkStatus::kOk) << error;
  EXPECT_GE(emu_b.process(1).console.size(), console_at_last_checkpoint.size());

  ASSERT_TRUE(b.RunUntil([&] { return emu_b.AllExited(); }));
  ExpectWorkloadComplete(emu_b);
  EXPECT_TRUE(b.ck().ValidateInvariants().empty());
}

// ---------------------------------------------------------------------------
// Database kernel: app-extra state (recency list, engine progress, stats).
// ---------------------------------------------------------------------------

TEST(CkptDb, RoundTripPreservesEngineState) {
  TestWorld a;
  ckdb::DbConfig config;
  config.table_pages = 48;
  config.buffer_pages = 16;
  ckdb::DbKernel db_a(a.ck(), config);
  a.Launch(db_a, /*page_groups=*/2);
  ck::CkApi api_a(a.ck(), db_a.self(), a.machine().cpu(0));
  db_a.Setup(api_a);
  uint64_t sum = db_a.RunScan();
  db_a.RunPointLookups(32);  // builds up recency + stats state

  CkptImage image;
  ASSERT_EQ(a.srm().Checkpoint(db_a, &image), CkStatus::kOk);
  ck::CkApi srm_api_a = a.Api();
  Digest digest_a = AppKernelState::Digest(db_a, srm_api_a);

  TestWorld b;
  ckdb::DbKernel db_b(b.ck(), config);
  std::string error;
  ASSERT_EQ(b.srm().Restore(db_b, image, RestoreOptions{}, &error), CkStatus::kOk) << error;
  ck::CkApi srm_api_b = b.Api();
  Digest digest_b = AppKernelState::Digest(db_b, srm_api_b);
  ExpectDigestsEqual(digest_a, digest_b);

  // Query history carried over; the restored engine still answers correctly.
  EXPECT_EQ(db_b.query_stats().queries, db_a.query_stats().queries);
  EXPECT_EQ(db_b.query_stats().rows_read, db_a.query_stats().rows_read);
  EXPECT_EQ(db_b.RunScan(), sum);
  EXPECT_TRUE(b.ck().ValidateInvariants().empty());
}

// ---------------------------------------------------------------------------
// Hostile images past the CRC: well-framed images whose records lie. The
// restore preflight must refuse each one before any Cache Kernel object of
// the target loads.
// ---------------------------------------------------------------------------

uint32_t GetU32(const std::vector<uint8_t>& bytes, size_t at) {
  uint32_t v = 0;
  EXPECT_LE(at + 4, bytes.size());
  if (at + 4 <= bytes.size()) {
    std::memcpy(&v, bytes.data() + at, 4);  // the serializer is little-endian
  }
  return v;
}

void PutU32(std::vector<uint8_t>& bytes, size_t at, uint32_t v) {
  ASSERT_LE(at + 4, bytes.size());
  std::memcpy(bytes.data() + at, &v, 4);
}

// A kSpace payload: locked flag, page count, the page records, then the
// resident list (count, vaddrs). Field offsets within one page record:
constexpr size_t kFirstPageRecord = 5;
constexpr size_t kPageRecordBytes = 31;
constexpr size_t kWhereAt = 4;
constexpr size_t kDirtyAt = 8;
constexpr size_t kBackingAt = 11;

size_t PageRecordAt(uint32_t index) { return kFirstPageRecord + index * kPageRecordBytes; }

// The first page record of `payload` in residency class `where` (and dirty,
// if asked), or SIZE_MAX.
size_t FindPageRecord(const std::vector<uint8_t>& payload, ckapp::PageRecord::Where where,
                      bool dirty = false) {
  uint32_t pages = GetU32(payload, 1);
  for (uint32_t i = 0; i < pages; ++i) {
    size_t at = PageRecordAt(i);
    if (payload[at + kWhereAt] == static_cast<uint8_t>(where) &&
        (!dirty || payload[at + kDirtyAt] != 0)) {
      return at;
    }
  }
  return SIZE_MAX;
}

// Rewrite the first record of `type` that `pick` accepts with `edit`, then
// serialize and parse: every CRC is valid again, as in an image a hostile
// source framed itself.
CkptImage Reframed(
    const CkptImage& image, RecordType type,
    const std::function<void(std::vector<uint8_t>&)>& edit,
    const std::function<bool(const std::vector<uint8_t>&)>& pick = [](const auto&) {
      return true;
    }) {
  CkptImage edited;
  bool done = false;
  for (const ckckpt::CkptRecord& rec : image.records()) {
    std::vector<uint8_t> payload = rec.payload;
    if (rec.type == type && !done && pick(payload)) {
      edit(payload);
      done = true;
    }
    edited.Append(rec.type, std::move(payload));
  }
  EXPECT_TRUE(done);
  CkptImage parsed;
  std::string error;
  EXPECT_TRUE(CkptImage::Parse(edited.Serialize(), &parsed, &error)) << error;
  return parsed;
}

// A clean refusal: the restore fails with `why` and the target's spaces,
// threads and mappings never reached the Cache Kernel.
template <typename Kernel>
void ExpectRefused(TestWorld& world, Kernel& target, const CkptImage& image, const char* why) {
  std::string error;
  EXPECT_EQ(world.srm().Restore(target, image, RestoreOptions{}, &error),
            CkStatus::kInvalidArgument);
  EXPECT_NE(error.find(why), std::string::npos) << error;
  auto loaded = world.ck().LoadedCountsFor(target.self());
  EXPECT_EQ(loaded[static_cast<uint32_t>(ck::ObjectType::kSpace)], 0u);
  EXPECT_EQ(loaded[static_cast<uint32_t>(ck::ObjectType::kThread)], 0u);
  EXPECT_EQ(loaded[static_cast<uint32_t>(ck::ObjectType::kMapping)], 0u);
  EXPECT_TRUE(world.ck().ValidateInvariants().empty());
}

// A generic kernel with every residency class: dirty resident zero-fill
// pages, resident and non-resident backed pages, untouched zero-fill pages.
CkptImage GenericImage() {
  TestWorld a;
  ckapp::AppKernelBase app("hostile", 32);
  EXPECT_TRUE(a.srm().Launch(app, cksrm::LaunchParams{}).ok());
  ck::CkApi api(a.ck(), app.self(), a.machine().cpu(0));
  uint32_t sp = app.CreateSpace(api);
  app.DefineZeroRegion(sp, 0x40000000, 4, /*writable=*/true);
  app.DefineBackedRegion(sp, 0x41000000, 4, /*first_backing_page=*/2, /*writable=*/true);
  uint32_t v = 0x5a5a5a5a;
  EXPECT_TRUE(app.WriteGuest(api, sp, 0x40000000, &v, 4));
  EXPECT_TRUE(app.WriteGuest(api, sp, 0x40001000, &v, 4));
  EXPECT_TRUE(app.ReadGuest(api, sp, 0x41000000, &v, 4));
  CkptImage image;
  EXPECT_EQ(a.srm().Checkpoint(app, &image), CkStatus::kOk);
  return image;
}

void ExpectGenericRefused(const CkptImage& image, const char* why) {
  TestWorld b;
  ckapp::AppKernelBase target("hostile", 32);
  ExpectRefused(b, target, image, why);
  EXPECT_EQ(target.space_count(), 0u);
}

TEST(CkptHostile, GenericImageRestoresUnedited) {
  CkptImage image = GenericImage();
  TestWorld b;
  ckapp::AppKernelBase target("hostile", 32);
  std::string error;
  EXPECT_EQ(b.srm().Restore(target, Reframed(image, RecordType::kEnd, [](auto&) {}),
                            RestoreOptions{}, &error),
            CkStatus::kOk)
      << error;
}

// The reproduction: a UNIX emulator image whose first page record names
// backing page 0x7fffffff. Restore used to succeed and the first page-in
// read 4 KiB outside the backing store. (The first kSpace record, the
// emulator's own space, has no pages.)
TEST(CkptHostile, WildBackingPageInFirstSpaceIsRefused) {
  UnixWorld a;
  a.ExecWorkload();
  ASSERT_TRUE(a.world.RunUntil([&] { return a.emu.process(1).console.size() >= 4; }));
  CkptImage image;
  ASSERT_EQ(a.world.srm().Checkpoint(a.emu, &image), CkStatus::kOk);
  CkptImage hostile = Reframed(
      image, RecordType::kSpace,
      [](std::vector<uint8_t>& payload) {
        PutU32(payload, 16, 0x7fffffffu);  // the first page record's backing_page
      },
      [](const std::vector<uint8_t>& payload) { return GetU32(payload, 1) != 0; });
  TestWorld b;
  UnixEmulator target(b.ck());
  ExpectRefused(b, target, hostile, "backing page does not fit its residency");
  EXPECT_EQ(target.space_count(), 0u);
}

TEST(CkptHostile, BackedPageWithoutBackingPageIsRefused) {
  ExpectGenericRefused(
      Reframed(GenericImage(), RecordType::kSpace,
               [](std::vector<uint8_t>& payload) {
                 size_t at = FindPageRecord(payload, ckapp::PageRecord::Where::kBacking);
                 ASSERT_NE(at, SIZE_MAX);
                 PutU32(payload, at + kBackingAt, ckapp::kNoBackingPage);
               }),
      "backing page does not fit its residency");
}

TEST(CkptHostile, DirtyResidentPageWithBackingPagePastTheStoreIsRefused) {
  ExpectGenericRefused(
      Reframed(GenericImage(), RecordType::kSpace,
               [](std::vector<uint8_t>& payload) {
                 size_t at = FindPageRecord(payload, ckapp::PageRecord::Where::kResident,
                                            /*dirty=*/true);
                 ASSERT_NE(at, SIZE_MAX);
                 PutU32(payload, at + kBackingAt, 32);  // one past the 32-page store
               }),
      "backing page does not fit its residency");
}

// Image version 2 dropped a 3,240-byte learned-policy block per descriptor
// type from the base kAppExtra layout. A version-1 image -- that block in
// place, every record CRC valid -- is refused at parse, before any CK object
// loads.
TEST(CkptHostile, VersionOneImageIsRefused) {
  Writer extra;
  for (uint32_t t = 0; t < ck::kObjectTypeCount; ++t) {
    extra.Bool(false);  // no guest program
    extra.U32(0);
    for (int32_t weight : {0, 256, 128, -16}) {
      extra.U32(static_cast<uint32_t>(weight));
    }
    extra.U32(128);  // ghost entries: key, four features, valid
    for (int g = 0; g < 128; ++g) {
      extra.U64(0);
      for (int i = 0; i < 4; ++i) {
        extra.U32(0);
      }
      extra.U8(0);
    }
    extra.U64(0);  // ghost hits
    extra.U64(0);  // trains
    extra.U32(0);  // harvest hand
  }
  std::vector<uint8_t> v1_extra = extra.Take();
  ASSERT_EQ(v1_extra.size(), 4u * 5u + 12960u);
  std::vector<uint8_t> bytes =
      Reframed(GenericImage(), RecordType::kAppExtra,
               [&](std::vector<uint8_t>& payload) { payload = v1_extra; })
          .Serialize();
  ASSERT_EQ(GetU32(bytes, 4), CkptImage::kVersion);
  PutU32(bytes, 4, 1);
  cksim::StableStore store;
  store.Put("v1", bytes);

  TestWorld b;
  ckapp::AppKernelBase target("hostile", 32);
  std::string error;
  EXPECT_EQ(b.srm().RestoreFromStore(target, store, "v1", RestoreOptions{}, &error),
            CkStatus::kInvalidArgument);
  EXPECT_NE(error.find("unsupported image version 1"), std::string::npos) << error;
  EXPECT_EQ(target.space_count(), 0u);
  EXPECT_EQ(target.thread_count(), 0u);
  auto loaded = b.ck().LoadedCountsFor(target.self());
  EXPECT_EQ(loaded[static_cast<uint32_t>(ck::ObjectType::kSpace)], 0u);
  EXPECT_EQ(loaded[static_cast<uint32_t>(ck::ObjectType::kThread)], 0u);
  EXPECT_EQ(loaded[static_cast<uint32_t>(ck::ObjectType::kMapping)], 0u);
  EXPECT_TRUE(b.ck().ValidateInvariants().empty());
}

TEST(CkptHostile, SwapAllocatorPastTheStoreIsRefused) {
  // kBackingMeta: page count, latency (u64), image_next, swap_next.
  ExpectGenericRefused(Reframed(GenericImage(), RecordType::kBackingMeta,
                                [](std::vector<uint8_t>& payload) { PutU32(payload, 16, 33); }),
                       "backing allocators");
  ExpectGenericRefused(Reframed(GenericImage(), RecordType::kBackingMeta,
                                [](std::vector<uint8_t>& payload) {
                                  PutU32(payload, 12, 20);  // image_next above swap_next
                                  PutU32(payload, 16, 10);
                                }),
                       "backing allocators");
}

TEST(CkptHostile, BadResidentListEntriesAreRefused) {
  auto edit_list = [](const std::function<void(std::vector<uint8_t>&, size_t)>& edit) {
    return Reframed(GenericImage(), RecordType::kSpace, [&](std::vector<uint8_t>& payload) {
      size_t list = PageRecordAt(GetU32(payload, 1));
      ASSERT_GE(GetU32(payload, list), 2u);
      edit(payload, list);
    });
  };
  // A repeated entry: the second names the first's page.
  ExpectGenericRefused(edit_list([](std::vector<uint8_t>& payload, size_t list) {
                         PutU32(payload, list + 8, GetU32(payload, list + 4));
                       }),
                       "resident-list entry");
  // An entry naming no page record.
  ExpectGenericRefused(edit_list([](std::vector<uint8_t>& payload, size_t list) {
                         PutU32(payload, list + 4, 0x7ff00000u);
                       }),
                       "resident-list entry");
  // An entry naming a page that is not resident.
  ExpectGenericRefused(edit_list([](std::vector<uint8_t>& payload, size_t list) {
                         PutU32(payload, list + 4, 0x40003000u);
                       }),
                       "resident-list entry");
}

TEST(CkptHostile, BadDbRecencyEntriesAreRefused) {
  TestWorld a;
  ckdb::DbConfig config;
  config.table_pages = 24;
  ckdb::DbKernel db(a.ck(), config);
  a.Launch(db, /*page_groups=*/2);
  ck::CkApi api(a.ck(), db.self(), a.machine().cpu(0));
  db.Setup(api);
  db.RunScan();  // touches all 24 table pages
  CkptImage image;
  ASSERT_EQ(a.srm().Checkpoint(db, &image), CkStatus::kOk);
  // kAppExtra ends with the recency list (count, vaddrs) and four u64 stats.
  auto edit_recency = [&](uint32_t entry, uint32_t vaddr) {
    return Reframed(image, RecordType::kAppExtra, [&](std::vector<uint8_t>& payload) {
      size_t count_at = payload.size() - 32 - 4 * 24 - 4;
      ASSERT_EQ(GetU32(payload, count_at), 24u);
      PutU32(payload, count_at + 4 + 4 * entry, vaddr);
    });
  };
  const struct {
    uint32_t entry;
    uint32_t vaddr;
  } cases[] = {
      {3, config.table_base + 5 * cksim::kPageSize},       // repeats another entry
      {0, config.table_base + 24 * cksim::kPageSize},      // past the table
      {7, config.table_base + 2 * cksim::kPageSize + 64},  // not a page address
  };
  for (const auto& c : cases) {
    TestWorld b;
    ckdb::DbKernel target(b.ck(), config);
    ExpectRefused(b, target, edit_recency(c.entry, c.vaddr), "db recency entry");
  }
}

// ---------------------------------------------------------------------------
// Record order.
// ---------------------------------------------------------------------------

// Images list page records in address order (a std::map walk, as when the
// pager kept its records in one) although the pager's hash map walks them in
// another: the kSpace records are byte for byte a reference encoding of that
// walk, the page contents come in the same order, and so do the digest's
// page keys.
TEST(CkptOrder, PageRecordsAreWrittenInAddressOrder) {
  TestWorld a;
  ckapp::AppKernelBase app("order", 64);
  a.Launch(app);
  ck::CkApi api(a.ck(), app.self(), a.machine().cpu(0));
  uint32_t sp = app.CreateSpace(api);
  // Regions defined high to low and interleaved, some pages made resident.
  const cksim::VirtAddr kRegions[] = {0x48000000, 0x40000000, 0x44000000, 0x40010000};
  for (cksim::VirtAddr base : kRegions) {
    app.DefineZeroRegion(sp, base, 5, /*writable=*/true);
    for (uint32_t p = 4; p > 0; p -= 2) {
      uint32_t value = base + p;
      ASSERT_TRUE(app.WriteGuest(api, sp, base + p * cksim::kPageSize, &value, 4));
    }
  }
  app.DefineBackedRegion(sp, 0x42000000, 3, /*first_backing_page=*/0, /*writable=*/false);
  uint32_t probe = 0;
  ASSERT_TRUE(app.ReadGuest(api, sp, 0x42001000, &probe, 4));
  std::vector<cksim::VirtAddr> walked;
  for (const auto& entry : app.space(sp).pages) {
    walked.push_back(entry.first);
  }
  ASSERT_FALSE(std::is_sorted(walked.begin(), walked.end()))
      << "the hash map walks these pages in address order: the test shows nothing";

  CkptImage image;
  ASSERT_EQ(a.srm().Checkpoint(app, &image), CkStatus::kOk);
  std::map<cksim::VirtAddr, const ckapp::PageRecord*> ordered;
  for (const auto& [vaddr, page] : app.space(sp).pages) {
    ordered[vaddr] = &page;
  }
  Writer want;
  want.Bool(app.space(sp).locked);
  want.U32(static_cast<uint32_t>(ordered.size()));
  std::vector<cksim::VirtAddr> resident;
  for (const auto& [vaddr, page] : ordered) {
    want.U32(vaddr);
    want.U8(static_cast<uint8_t>(page->where));
    for (bool flag : {page->writable, page->message, page->locked, page->dirty,
                      page->frame_owned, page->mapping_loaded}) {
      want.Bool(flag);
    }
    for (uint32_t word : {page->backing_page, page->frame, page->fixed_frame,
                          page->signal_thread, page->cow_source}) {
      want.U32(word);
    }
    if (page->where == ckapp::PageRecord::Where::kResident && page->frame != 0) {
      resident.push_back(vaddr);
    }
  }
  want.U32(static_cast<uint32_t>(app.space(sp).resident.Size()));
  for (const ckapp::PageRecord* page : app.space(sp).resident) {
    want.U32(page->vaddr);
  }
  std::vector<std::vector<uint8_t>> spaces;
  std::vector<cksim::VirtAddr> contents;
  for (const ckckpt::CkptRecord& rec : image.records()) {
    if (rec.type == RecordType::kSpace) {
      spaces.push_back(rec.payload);
    } else if (rec.type == RecordType::kPageContents && GetU32(rec.payload, 0) == sp) {
      contents.push_back(GetU32(rec.payload, 4));
    }
  }
  ASSERT_GT(spaces.size(), sp);
  EXPECT_TRUE(spaces[sp] == want.data()) << "the kSpace record is not the address-order walk";
  EXPECT_EQ(contents, resident);
  EXPECT_GE(resident.size(), 9u);

  ck::CkApi srm_api = a.Api();
  std::vector<cksim::VirtAddr> listed;
  const std::string prefix = "space" + std::to_string(sp) + ".page";
  for (const auto& [key, value] : AppKernelState::Digest(app, srm_api)) {
    if (key.rfind(prefix, 0) == 0 && key.ends_with(".where")) {
      listed.push_back(
          static_cast<cksim::VirtAddr>(std::stoul(key.substr(prefix.size()), nullptr, 16)));
    }
  }
  std::vector<cksim::VirtAddr> keys;
  for (const auto& entry : ordered) {
    keys.push_back(entry.first);
  }
  EXPECT_EQ(listed, keys);
}

}  // namespace
