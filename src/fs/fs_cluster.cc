#include "src/fs/fs_cluster.h"

#include <algorithm>
#include <cstdio>

namespace ckfs {

using ck::CkApi;
using cksim::kPageSize;

std::vector<uint8_t> FileBytes(uint32_t fileid, uint32_t version, uint32_t len) {
  std::vector<uint8_t> bytes(len);
  // Within a page FileByte rises by one per byte (mod 256), so each page is
  // a ramp from its first byte.
  for (uint32_t base = 0; base < len; base += kPageSize) {
    const uint8_t first = FileByte(fileid, version, base);
    uint8_t* page = bytes.data() + base;
    const uint32_t n = std::min(len - base, kPageSize);
    for (uint32_t i = 0; i < n; ++i) {
      page[i] = static_cast<uint8_t>(first + i);
    }
  }
  return bytes;
}

std::string FileName(uint32_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "tree/file%u", index);
  return name;
}

ck::NativeOutcome FileScanWorkload::Step(ck::NativeCtx& ctx) {
  ck::NativeOutcome outcome;
  outcome.action = ck::NativeOutcome::Action::kYield;
  if (done_ || failed_) {
    ctx.Charge(500);  // idle spin between orchestration phases
    return outcome;
  }
  CkApi& api = ctx.api();
  // Drain as much as the cache can serve in this quantum: a real thread
  // keeps running until it blocks, so back-to-back cache hits cost only
  // their own simulated work, not a reschedule each. kPending (page on the
  // wire) yields the CPU.
  for (uint32_t ops = 0; ops < 64; ++ops) {
    if (done_ || failed_) {
      return outcome;
    }
    ctx.Charge(200);
    if (phase_ == Phase::kOpen) {
      ClientFileCache::Status status = cache_.Open(api, FileName(file_index_), &fileid_);
      if (status == ClientFileCache::Status::kHit) {
        phase_ = Phase::kRead;
        page_ = 0;
      } else if (status == ClientFileCache::Status::kError) {
        failed_ = true;
      } else {
        return outcome;
      }
      continue;
    }
    uint32_t len = 0;
    ClientFileCache::Status status = cache_.Read(api, fileid_, page_, buffer_, &len);
    if (status == ClientFileCache::Status::kError) {
      failed_ = true;
      return outcome;
    }
    if (status == ClientFileCache::Status::kPending) {
      return outcome;
    }
    if (len > 0) {
      // Verify against the generator under the version the cache holds:
      // every valid page carries its entry's current version by
      // construction.
      uint32_t version = cache_.CachedVersion(fileid_);
      uint32_t base = page_ * kPageSize;
      for (uint32_t i = 0; i < len; ++i) {
        if (buffer_[i] != FileByte(fileid_, version, base + i)) {
          failed_ = true;
          return outcome;
        }
        checksum_ = (checksum_ ^ buffer_[i]) * 0x100000001b3ull;
      }
      bytes_read_ += len;
      ++pages_read_;
      ++page_;
      continue;
    }
    // EOF: next file, next round.
    phase_ = Phase::kOpen;
    if (++file_index_ >= files_) {
      file_index_ = 0;
      if (++round_ >= rounds_) {
        done_ = true;
      }
    }
  }
  return outcome;
}

FsCluster::FsCluster(const FsClusterConfig& config) : config_(config) {
  server_node_ = std::make_unique<Node>();
  server_ = std::make_unique<FileServerKernel>(server_node_->ck);
  cluster_.AddMachine(&server_node_->machine);

  // Populate the tree. The tail page is a half page so partial-page reads
  // are always exercised.
  uint32_t file_len = config_.file_pages * kPageSize - kPageSize / 2;
  for (uint32_t i = 0; i < config_.files; ++i) {
    server_->AddFile(FileName(i), FileBytes(i + 1, 1, file_len));
  }

  cksrm::LaunchParams server_params;
  server_params.page_groups = 2;
  server_params.max_priority = 30;  // the link endpoint threads run at 26
  server_node_->srm.Launch(*server_, server_params);
  CkApi server_api = ServerApi();
  server_->Setup(server_api);

  for (uint32_t i = 0; i < config_.clients; ++i) {
    clients_.push_back(std::make_unique<ClientNode>());
    ClientNode& client = *clients_.back();
    cluster_.AddMachine(&client.machine);
    if (config_.tier_dram_frames != 0) {
      // Before Launch, so every frame the client kernel ever touches is
      // tier-tracked from its first allocation.
      client.ck.set_tiers(config_.tier_dram_frames, /*demote=*/true);
    }

    uint32_t server_group = server_node_->srm.ReserveGroups(1).value();
    uint32_t client_group = client.srm.ReserveGroups(1).value();
    server_fcs_.push_back(std::make_unique<cksim::FiberChannelDevice>(
        server_node_->machine.memory(), &server_node_->ck,
        server_group * cksim::kPageGroupBytes, 8, 8,
        server_node_->machine.cost().wire_latency));
    client.fc = std::make_unique<cksim::FiberChannelDevice>(
        client.machine.memory(), &client.ck, client_group * cksim::kPageGroupBytes, 8, 8,
        client.machine.cost().wire_latency);
    cluster_.Link(*server_fcs_.back(), *client.fc);
    server_node_->machine.AttachDevice(server_fcs_.back().get());
    client.machine.AttachDevice(client.fc.get());

    server_node_->srm.GrantSharedGroups(*server_, server_group, 1,
                                        ck::GroupAccess::kReadWrite);
    server_->AttachClient(server_api, server_fcs_.back().get());

    cksrm::LaunchParams client_params;
    client_params.page_groups = config_.client_page_groups;
    client_params.max_priority = 30;  // the cache pump thread runs at 26
    client.srm.Launch(client.app, client_params);
    client.srm.GrantSharedGroups(client.app, client_group, 1, ck::GroupAccess::kReadWrite);

    CkApi client_api(client.ck, client.app.self(), client.machine.cpu(0));
    client.space = client.app.CreateSpace(client_api, /*locked=*/true);
    client.cache = std::make_unique<ClientFileCache>(client.app, client.ck, config_.cache);
    client.cache->Bind(client_api, client.space, client.fc.get());
    client.workload =
        std::make_unique<FileScanWorkload>(*client.cache, config_.files, config_.scan_rounds);
    client.app.CreateNativeThread(client_api, client.space, client.workload.get(),
                                  /*priority=*/16);
  }
  cluster_.set_parallel(config_.parallel);
}

FsCluster::~FsCluster() = default;

ck::CkApi FsCluster::ServerApi() {
  return ck::CkApi(server_node_->ck, server_->self(), server_node_->machine.cpu(0));
}

ck::CkApi FsCluster::ClientApi(uint32_t client) {
  ClientNode& node = *clients_[client];
  return ck::CkApi(node.ck, node.app.self(), node.machine.cpu(0));
}

bool FsCluster::AllDone() const {
  for (const auto& client : clients_) {
    if (!client->workload->done() && !client->workload->failed()) {
      return false;
    }
  }
  return true;
}

bool FsCluster::Run(cksim::Cycles max_cycles) {
  return RunUntil([this] { return AllDone(); }, max_cycles);
}

bool FsCluster::RunUntil(const std::function<bool()>& done, cksim::Cycles max_cycles) {
  return cluster_.RunUntilDone(done, max_cycles);
}

uint64_t FsCluster::WireTraffic(uint32_t client) const {
  const cksim::FiberChannelDevice& fc = *clients_[client]->fc;
  return fc.packets_sent() + fc.packets_received() + fc.bulk_received();
}

std::vector<cksim::Cycles> FsCluster::FinalClocks() const {
  std::vector<cksim::Cycles> clocks;
  clocks.push_back(server_node_->machine.Now());
  for (const auto& client : clients_) {
    clocks.push_back(client->machine.Now());
  }
  return clocks;
}

}  // namespace ckfs
