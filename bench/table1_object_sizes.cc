// Table 1 reproduction: Cache Kernel object sizes and cache capacities.
//
// Paper (Table 1):
//   Object       Size(bytes)  Cache Size
//   Kernel           2160          16
//   AddrSpace          60          64
//   Thread            532         256
//   MemMapEntry        16       65536
//
// Our descriptor sizes are the simulated ones: the thread descriptor's is
// declared (CacheKernel::kThreadDescriptorBytes, the size its loads and
// writebacks charge), the others are their structs' sizes. The host sizeof
// is printed beside them. MemMapEntry is asserted to be exactly 16 bytes
// (the paper's space argument depends on it); the others differ by host
// padding and by the 132-byte CKVM register file vs. the 68040 frame, but
// stay in the same band. The section 5.2 space arithmetic (share of 2 MiB
// local RAM) is recomputed from our numbers.

#include "bench/bench_util.h"

namespace {

struct Row {
  const char* name;
  uint32_t paper_size;
  uint32_t paper_count;
  uint32_t our_size;
  uint32_t our_count;
  uint32_t host_size;  // sizeof the host struct
};

}  // namespace

int main(int argc, char** argv) {
  ck::ObsSession obs(argc, argv);
  ckbench::ObsSlot() = &obs;
  ckbench::World world;
  ck::CacheKernel& ck = world.ck();

  Row rows[] = {
      {"Kernel", 2160, 16, ck::CacheKernel::kKernelObjectBytes,
       ck.capacity(ck::ObjectType::kKernel), ck::CacheKernel::kKernelObjectBytes},
      {"AddrSpace", 60, 64, ck::CacheKernel::kSpaceObjectBytes,
       ck.capacity(ck::ObjectType::kSpace), ck::CacheKernel::kSpaceObjectBytes},
      {"Thread", 532, 256, ck::CacheKernel::kThreadDescriptorBytes,
       ck.capacity(ck::ObjectType::kThread), ck::CacheKernel::kThreadObjectBytes},
      {"MemMapEntry", 16, 65536, ck::CacheKernel::kMappingEntryBytes,
       ck.capacity(ck::ObjectType::kMapping), ck::CacheKernel::kMappingEntryBytes},
  };

  ckbench::Title("Table 1: Cache Kernel object sizes (bytes) and cache capacities");
  std::printf("%-14s %12s %12s | %12s %12s %12s\n", "Object", "paper size", "paper count",
              "our size", "our count", "host sizeof");
  ckbench::Rule();
  uint64_t paper_total = 0, our_total = 0;
  for (const Row& row : rows) {
    std::printf("%-14s %12u %12u | %12u %12u %12u\n", row.name, row.paper_size, row.paper_count,
                row.our_size, row.our_count, row.host_size);
    paper_total += static_cast<uint64_t>(row.paper_size) * row.paper_count;
    our_total += static_cast<uint64_t>(row.our_size) * row.our_count;
  }
  ckbench::Rule();
  std::printf("%-14s %25llu | %25llu  (descriptor bytes)\n", "total",
              static_cast<unsigned long long>(paper_total),
              static_cast<unsigned long long>(our_total));

  // Section 5.2's arithmetic: 256 thread descriptors ~= 128 KiB; thread +
  // space + kernel descriptors ~= 10% of the 2 MiB local RAM; MemMapEntries
  // ~= 50%.
  double thread_kib = rows[2].our_size * rows[2].our_count / 1024.0;
  uint64_t small_descriptors = static_cast<uint64_t>(rows[0].our_size) * rows[0].our_count +
                               static_cast<uint64_t>(rows[1].our_size) * rows[1].our_count +
                               static_cast<uint64_t>(rows[2].our_size) * rows[2].our_count;
  double mme_mib = static_cast<double>(rows[3].our_size) * rows[3].our_count / (1024.0 * 1024.0);
  std::printf("\nsection 5.2 cross-checks (2 MiB local RAM):\n");
  std::printf("  256 thread descriptors: %.0f KiB (paper: ~128 KiB)\n", thread_kib);
  std::printf("  kernel+space+thread descriptors: %.1f%% of 2 MiB (paper: ~10%%)\n",
              100.0 * static_cast<double>(small_descriptors) / (2.0 * 1024 * 1024));
  std::printf("  65536 MemMapEntries: %.2f MiB = %.0f%% of 2 MiB (paper: ~50%%)\n", mme_mib,
              100.0 * mme_mib / 2.0);
  std::printf("  mapping descriptor overhead on mapped space: %.2f%% (paper: ~0.4%%)\n",
              100.0 * 16.0 / 4096.0);

  // Page-table space (section 5.2): 512-byte L1 per space, 512-byte L2s,
  // 256-byte L3s mapping 64 pages each.
  std::printf("\npage-table geometry (matches the paper exactly):\n");
  std::printf("  L1 %u B, L2 %u B, L3 %u B; one L3 maps %u pages\n", cksim::kL1TableBytes,
              cksim::kL2TableBytes, cksim::kL3TableBytes, cksim::kL3Entries);
  // "Assuming the table is at least half-full, at least two times as much
  // space is used for mapping descriptors as for third-level page tables."
  double half_full_descriptor_bytes = (cksim::kL3Entries / 2) * 16.0;
  std::printf("  descriptor bytes per half-full L3 table: %.0f vs table %u B -> ratio %.1fx "
              "(paper: >= 2x)\n",
              half_full_descriptor_bytes, cksim::kL3TableBytes,
              half_full_descriptor_bytes / cksim::kL3TableBytes);
  obs.Finish();
  return 0;
}
