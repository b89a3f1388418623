// Diskless workstation cluster: N clients netboot from one file server
// (section 4's Figure-4 configuration: diskless nodes paging their boot
// image and file tree from a server node over the interconnect).
//
//   $ ./netboot_workstation [--clients=N] [--rounds=N] [--serial]
//
// Machine 0 runs a FileServerKernel over an in-memory versioned file tree.
// Machines 1..N each run an application kernel embedding a ClientFileCache
// (src/fs, docs/FILESERVICE.md). Every client cold-boots by discovering the
// tree with readdir and scanning every file page by page -- demand misses
// plus pipelined read-ahead over the fiber-channel link -- then re-scans
// warm (every page from the local cache, zero wire traffic), and finally
// observes a server-side write: the version push invalidates the stale
// pages everywhere and the next scan re-fetches them.
//
// The whole world runs under cksim::Cluster; by default the host-parallel
// driver is used (pass --serial for the reference interleaving -- both
// produce bit-identical results, see tests/fs_test.cc).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/ck/observability.h"
#include "src/obs/metrics.h"
#include "src/fs/fs_cluster.h"

int main(int argc, char** argv) {
  ck::ObsSession obs(argc, argv, {"--clients=", "--rounds=", "--serial"});

  ckfs::FsClusterConfig config;
  config.clients = 3;
  config.files = 6;
  config.file_pages = 8;
  config.scan_rounds = 1;
  config.parallel = true;
  uint32_t rounds = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--clients=", 10) == 0) {
      config.clients = static_cast<uint32_t>(std::atoi(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--rounds=", 9) == 0) {
      rounds = static_cast<uint32_t>(std::atoi(argv[i] + 9));
    } else if (std::strcmp(argv[i], "--serial") == 0) {
      config.parallel = false;
    }
  }
  config.scan_rounds = rounds;

  ckfs::FsCluster world(config);
  // Client 0 first: the metrics registry binds to the first attach.
  obs.Attach(world.client_machine(0), &world.client_ck(0));
  obs.Attach(world.server_machine(), &world.server_ck());
  // The file-cache counters live in each client's cache (fs.client<i>.*).
  for (uint32_t c = 0; c < config.clients; ++c) {
    const ckfs::FsClientStats* s = &world.cache(c).stats();
    std::string prefix = "fs.client" + std::to_string(c) + ".";
    obs.registry().AddCounter(prefix + "hits", [s] { return s->hits; });
    obs.registry().AddCounter(prefix + "misses", [s] { return s->misses; });
    obs.registry().AddCounter(prefix + "readahead_issued", [s] { return s->readahead_issued; });
    obs.registry().AddCounter(prefix + "readahead_useful", [s] { return s->readahead_useful; });
    obs.registry().AddCounter(prefix + "invalidations", [s] { return s->invalidations; });
  }

  std::printf("netboot: %u diskless clients booting from 1 file server (%s cluster driver)\n",
              config.clients, config.parallel ? "parallel" : "serial");

  // --- cold boot: every client pages the whole tree in over the wire ---
  if (!world.Run()) {
    std::printf("cold boot timed out\n");
    return 1;
  }
  bool ok = true;
  for (uint32_t c = 0; c < config.clients; ++c) {
    const ckfs::FsClientStats& s = world.cache(c).stats();
    ok = ok && world.workload(c).done() && !world.workload(c).failed();
    std::printf(
        "  client %u: %llu pages read, %llu demand misses, %llu read-ahead (%llu useful), "
        "%llu wire msgs\n",
        c, static_cast<unsigned long long>(world.workload(c).pages_read()),
        static_cast<unsigned long long>(s.misses),
        static_cast<unsigned long long>(s.readahead_issued),
        static_cast<unsigned long long>(s.readahead_useful),
        static_cast<unsigned long long>(world.WireTraffic(c)));
  }
  if (!ok) {
    std::printf("cold boot failed verification\n");
    return 1;
  }

  // --- the tree as the clients see it ---
  ckfs::ClientFileCache::DirListing listing;
  ckfs::ClientFileCache::Status status = ckfs::ClientFileCache::Status::kPending;
  world.RunUntil(
      [&] {
        ck::CkApi api = world.ClientApi(0);
        status = world.cache(0).Readdir(api, &listing);
        return status != ckfs::ClientFileCache::Status::kPending;
      },
      5000000);
  std::printf("readdir: %zu files in the tree\n", listing.entries.size());
  for (size_t i = 0; i < listing.names.size(); ++i) {
    std::printf("  %-16s fileid=%u version=%u size=%u\n", listing.names[i].c_str(),
                listing.entries[i].fileid, listing.entries[i].version,
                listing.entries[i].size);
  }

  // --- warm re-scan: all hits, not one packet on any link ---
  std::vector<uint64_t> cold_traffic;
  for (uint32_t c = 0; c < config.clients; ++c) {
    cold_traffic.push_back(world.WireTraffic(c));
    world.workload(c).Resume(1);
  }
  if (!world.Run()) {
    std::printf("warm scan timed out\n");
    return 1;
  }
  for (uint32_t c = 0; c < config.clients; ++c) {
    uint64_t delta = world.WireTraffic(c) - cold_traffic[c];
    ok = ok && !world.workload(c).failed() && delta == 0;
    std::printf("  client %u warm: %llu cache hits, wire delta %llu\n", c,
                static_cast<unsigned long long>(world.cache(c).stats().hits),
                static_cast<unsigned long long>(delta));
  }
  if (!ok) {
    std::printf("warm scan was not free\n");
    return 1;
  }

  // --- a write moves file 1's version; the push invalidates every cache ---
  uint32_t file_len = config.file_pages * cksim::kPageSize - cksim::kPageSize / 2;
  {
    ck::CkApi api = world.ServerApi();
    uint32_t version = world.server().file_version(1) + 1;
    std::vector<uint8_t> fresh = ckfs::FileBytes(1, version, file_len);
    world.server().WriteLocal(1, 0, fresh.data(), file_len, &api);
  }
  bool invalidated = world.RunUntil(
      [&] {
        for (uint32_t c = 0; c < config.clients; ++c) {
          if (world.cache(c).CachedVersion(1) != 2) {
            return false;
          }
        }
        return true;
      },
      5000000);
  if (!invalidated) {
    std::printf("invalidation push never arrived\n");
    return 1;
  }
  std::printf("server write: file 1 -> version 2, all %u caches dropped their stale pages\n",
              config.clients);

  // --- re-scan: only the invalidated file goes back to the wire ---
  for (uint32_t c = 0; c < config.clients; ++c) {
    world.workload(c).Resume(1);
  }
  if (!world.Run()) {
    std::printf("re-scan timed out\n");
    return 1;
  }
  for (uint32_t c = 0; c < config.clients; ++c) {
    ok = ok && world.workload(c).done() && !world.workload(c).failed();
    std::printf("  client %u re-scan: %llu invalidations observed, %llu total misses\n", c,
                static_cast<unsigned long long>(world.cache(c).stats().invalidations),
                static_cast<unsigned long long>(world.cache(c).stats().misses));
  }

  const ckfs::FsServerStats& fs = world.server().fs_stats();
  std::printf("server totals: %llu reads, %llu pages shipped, %llu invalidations pushed\n",
              static_cast<unsigned long long>(fs.reads),
              static_cast<unsigned long long>(fs.pages_shipped),
              static_cast<unsigned long long>(fs.invalidations_sent));
  std::printf("netboot workstation %s\n", ok ? "OK" : "FAILED");
  obs.Finish();
  return ok ? 0 : 1;
}
