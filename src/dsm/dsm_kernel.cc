#include "src/dsm/dsm_kernel.h"

#include <cstring>

namespace ckdsm {

using ck::CkApi;
using ck::HandlerAction;
using ckbase::CkStatus;
using cksim::PhysAddr;
using cksim::VirtAddr;

DsmKernel::DsmKernel(ck::CacheKernel& ck, const DsmConfig& config)
    : ckapp::AppKernelBase("dsm", /*backing_pages=*/64), ck_(ck), config_(config) {}

DsmKernel::~DsmKernel() = default;

void DsmKernel::Setup(CkApi& api, ckapp::MessageChannel& requests_out,
                      ckapp::MessageChannel& replies_in) {
  space_index_ = CreateSpace(api, /*locked=*/true);
  owned_.assign(config_.pages, config_.initially_owner);
  fetching_.assign(config_.pages, false);
  fragments_pending_.assign(config_.pages, 0);
  waiters_.assign(config_.pages, {});

  // One local frame per shared page, mapped at the region address. A page
  // this node does not own starts marked remote, so the first access raises
  // a consistency fault instead of reading stale bytes.
  for (uint32_t page = 0; page < config_.pages; ++page) {
    PhysAddr frame = frames().Allocate();
    frames_.push_back(frame);
    api.ZeroPage(frame);
    DefineFrameRegion(space_index_, PageVaddr(page), 1, frame, /*writable=*/true,
                      /*message=*/false);
    EnsureMappingLoaded(api, space_index_, PageVaddr(page));
    if (!config_.initially_owner) {
      ck_.MarkFrameRemote(frame >> cksim::kPageShift, true);
    }
  }

  // One symmetric RPC endpoint: it serves the peer's fetches AND completes
  // our own, demultiplexing the interleaved reception ring by the reply bit.
  endpoint_ = std::make_unique<ckapp::RpcEndpoint>(
      requests_out, replies_in,
      [this](uint32_t op, const std::vector<uint8_t>& request, CkApi& server_api) {
        return Serve(op, request, server_api);
      });
  endpoint_thread_ = CreateNativeThread(api, space_index_, endpoint_.get(), /*priority=*/26,
                                        /*locked=*/true);
}

std::vector<uint8_t> DsmKernel::Serve(uint32_t op, const std::vector<uint8_t>& request,
                                      CkApi& api) {
  // A 4 KiB page plus headers does not fit one 4 KiB message slot, so a
  // fetch ships the page in two half-page fragments: request = {page, half}.
  // Ownership transfers on the first fragment: the local copy is invalidated
  // BEFORE the bytes leave, so a racing local access faults rather than
  // reading soon-to-be-stale data.
  if (op != kOpFetchPage || request.size() < 8) {
    return {};
  }
  uint32_t page, half;
  std::memcpy(&page, request.data(), 4);
  std::memcpy(&half, request.data() + 4, 4);
  if (page >= config_.pages || half > 1) {
    return {};
  }
  if (half == 0) {
    ck_.MarkFrameRemote(frames_[page] >> cksim::kPageShift, true);
    owned_[page] = false;
    stats_.invalidations++;
  }
  std::vector<uint8_t> bytes(kHalfPage);
  api.ReadPhys(frames_[page] + half * kHalfPage, bytes.data(), kHalfPage);
  return bytes;
}

void DsmKernel::InstallFragment(CkApi& api, uint32_t page, uint32_t half,
                                const std::vector<uint8_t>& bytes) {
  api.WritePhys(frames_[page] + half * kHalfPage, bytes.data(),
                static_cast<uint32_t>(std::min<size_t>(bytes.size(), kHalfPage)));
  fragments_pending_[page] &= ~(1u << half);
  if (fragments_pending_[page] != 0) {
    return;  // the other half is still in flight
  }
  ck_.MarkFrameRemote(frames_[page] >> cksim::kPageShift, false);
  owned_[page] = true;
  fetching_[page] = false;
  stats_.fetches_sent++;
  for (ck::ThreadId waiter : waiters_[page]) {
    api.ResumeThread(waiter);
  }
  waiters_[page].clear();
}

HandlerAction DsmKernel::OnConsistencyFault(const ck::FaultForward& fault, CkApi& api) {
  stats_.consistency_faults++;
  VirtAddr addr = fault.fault.address;
  if (addr < kDsmRegionBase || addr >= kDsmRegionBase + config_.pages * cksim::kPageSize) {
    return OnIllegalAccess(fault, api);  // a genuinely failed module
  }
  uint32_t page = (addr - kDsmRegionBase) / cksim::kPageSize;

  waiters_[page].push_back(fault.thread);
  if (!fetching_[page]) {
    fetching_[page] = true;
    fragments_pending_[page] = 0b11;
    for (uint32_t half = 0; half < 2; ++half) {
      std::vector<uint8_t> request(8);
      std::memcpy(request.data(), &page, 4);
      std::memcpy(request.data() + 4, &half, 4);
      uint32_t page_copy = page, half_copy = half;
      CkStatus status = endpoint_->Call(
          api, kOpFetchPage, request,
          [this, page_copy, half_copy](const std::vector<uint8_t>& reply, CkApi& later) {
            InstallFragment(later, page_copy, half_copy, reply);
          });
      if (status != CkStatus::kOk) {
        fetching_[page] = false;
        waiters_[page].clear();
        return OnIllegalAccess(fault, api);
      }
    }
  }
  // The thread re-executes the faulting access once the page arrives.
  return HandlerAction::kBlock;
}

}  // namespace ckdsm
