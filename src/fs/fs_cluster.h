// A multi-MPM file-service world: one server machine, N client machines,
// star-linked by fiber channel over the conservative cluster driver.
//
// This is the netboot-workstation configuration of the paper's Figure 4 --
// diskless nodes booting and paging from a file-server node over the
// interconnect -- packaged for reuse by tests/fs_test.cc,
// bench/file_service.cc and examples/netboot_workstation.cc. Machine 0 runs
// a FileServerKernel; machines 1..N each run an application kernel
// embedding a ClientFileCache plus a FileScanWorkload that opens every file
// by name and reads it page by page through the cache, verifying contents
// against the deterministic generator and folding them into a checksum.
//
// The whole world runs under cksim::Cluster, so the serial reference driver
// and the host-parallel driver must produce bit-identical results -- final
// clocks, cache stats, checksums (the fs differential of tests/fs_test.cc).

#ifndef SRC_FS_FS_CLUSTER_H_
#define SRC_FS_FS_CLUSTER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/fs/client_cache.h"
#include "src/fs/file_server.h"
#include "src/sim/cluster.h"
#include "src/srm/srm.h"

namespace ckfs {

// Deterministic file contents: byte `index` of (fileid, version). Tests and
// workloads regenerate expected pages from the same function.
inline uint8_t FileByte(uint32_t fileid, uint32_t version, uint32_t index) {
  return static_cast<uint8_t>(fileid * 31 + (index / cksim::kPageSize) * 7 + version * 13 +
                              index);
}

std::vector<uint8_t> FileBytes(uint32_t fileid, uint32_t version, uint32_t len);

// The flat namespace the cluster populates: "tree/file<k>".
std::string FileName(uint32_t index);

// Scans the namespace through the cache: open file 0..files-1, read each
// sequentially to EOF, repeat for `rounds`. Contents are verified against
// FileByte under the version the cache holds at read time.
class FileScanWorkload : public ck::NativeProgram {
 public:
  FileScanWorkload(ClientFileCache& cache, uint32_t files, uint32_t rounds)
      : cache_(cache), files_(files), rounds_(rounds) {}

  ck::NativeOutcome Step(ck::NativeCtx& ctx) override;

  // Pause after the current round completes (warm-phase orchestration):
  // Resume() arms another `rounds` of scanning.
  void Resume(uint32_t rounds) {
    rounds_ = rounds;
    round_ = 0;
    done_ = false;
  }

  bool done() const { return done_; }
  bool failed() const { return failed_; }
  uint64_t checksum() const { return checksum_; }
  uint64_t bytes_read() const { return bytes_read_; }
  uint64_t pages_read() const { return pages_read_; }

 private:
  enum class Phase { kOpen, kRead };

  ClientFileCache& cache_;
  uint32_t files_;
  uint32_t rounds_;
  Phase phase_ = Phase::kOpen;
  uint32_t file_index_ = 0;
  uint32_t fileid_ = 0;
  uint32_t page_ = 0;
  uint32_t round_ = 0;
  bool done_ = false;
  bool failed_ = false;
  uint64_t checksum_ = 0xcbf29ce484222325ull;
  uint64_t bytes_read_ = 0;
  uint64_t pages_read_ = 0;
  uint8_t buffer_[cksim::kPageSize] = {};
};

struct FsClusterConfig {
  uint32_t clients = 2;
  uint32_t files = 4;
  uint32_t file_pages = 8;  // pages per file (tail page is partial)
  uint32_t scan_rounds = 1;
  ClientFileCache::Config cache;
  bool parallel = false;            // host-parallel cluster driver
  uint32_t client_page_groups = 4;  // frame-pool grant per client kernel
  // Tiered physical memory on every client kernel (docs/TIERING.md): DRAM
  // budget in frames (0 = tiering off), in demote mode. The SRM's frame-pool
  // hook tier-tags file-cache pages, so the client cache's pages demote to
  // the slow tier under DRAM pressure instead of pinning it.
  uint32_t tier_dram_frames = 0;
};

class FsCluster {
 public:
  explicit FsCluster(const FsClusterConfig& config);
  ~FsCluster();

  // Run until every client's workload is done (checked at barriers).
  bool Run(cksim::Cycles max_cycles = 100000000);
  bool RunUntil(const std::function<bool()>& done, cksim::Cycles max_cycles);
  bool AllDone() const;

  uint32_t clients() const { return static_cast<uint32_t>(clients_.size()); }
  FileServerKernel& server() { return *server_; }
  ClientFileCache& cache(uint32_t client) { return *clients_[client]->cache; }
  FileScanWorkload& workload(uint32_t client) { return *clients_[client]->workload; }
  cksim::FiberChannelDevice& client_device(uint32_t client) { return *clients_[client]->fc; }
  cksim::FiberChannelDevice& server_device(uint32_t client) { return *server_fcs_[client]; }
  cksim::Machine& server_machine() { return server_node_->machine; }
  ck::CacheKernel& server_ck() { return server_node_->ck; }
  cksim::Machine& client_machine(uint32_t client) { return clients_[client]->machine; }
  ck::CacheKernel& client_ck(uint32_t client) { return clients_[client]->ck; }
  cksim::Cluster& cluster() { return cluster_; }
  const FsClusterConfig& config() const { return config_; }

  // APIs bound to the server/client kernel on its machine's CPU 0. Only
  // valid at barriers (inside done predicates) or before/after running.
  ck::CkApi ServerApi();
  ck::CkApi ClientApi(uint32_t client);

  // Packets + bulk payloads that crossed a client's link, both directions
  // (the "zero wire traffic on warm hits" measurement).
  uint64_t WireTraffic(uint32_t client) const;

  std::vector<cksim::Cycles> FinalClocks() const;

 private:
  struct Node {
    Node()
        : machine(cksim::MachineConfig()), ck(machine, ck::CacheKernelConfig()), srm(ck) {
      srm.Boot();
    }
    cksim::Machine machine;
    ck::CacheKernel ck;
    cksrm::Srm srm;
  };

  struct ClientNode : Node {
    ckapp::AppKernelBase app{"fs-client", 64};
    std::unique_ptr<cksim::FiberChannelDevice> fc;
    std::unique_ptr<ClientFileCache> cache;
    std::unique_ptr<FileScanWorkload> workload;
    uint32_t space = 0;
  };

  FsClusterConfig config_;
  std::unique_ptr<Node> server_node_;
  std::unique_ptr<FileServerKernel> server_;
  std::vector<std::unique_ptr<cksim::FiberChannelDevice>> server_fcs_;
  std::vector<std::unique_ptr<ClientNode>> clients_;
  cksim::Cluster cluster_;
};

}  // namespace ckfs

#endif  // SRC_FS_FS_CLUSTER_H_
