// Distributed shared memory over consistency faults (section 2.1, footnote 1).
//
// "The consistency fault mechanism is used to implement a consistency
// protocol on a cache-line basis for distributed shared memory." The paper
// leaves the protocol to higher-level software ("explicit coordination
// between kernels ... is provided by higher-level software", section 3);
// this module is that software: a page-granular, single-writer *migratory*
// protocol between two application kernels on separate machines.
//
// Mechanism per node:
//   * the shared region's pages are backed by local frames;
//   * a page the node does NOT currently own has its frame marked remote, so
//     any access raises a consistency fault, which the Cache Kernel forwards
//     to this kernel's handler (the normal Figure 2 path);
//   * the handler blocks the faulting thread and issues a fetch RPC over the
//     fiber channel; the current owner invalidates its copy (marks its frame
//     remote) and replies with the page contents; the requester installs the
//     bytes, clears the remote mark, becomes owner and resumes the thread.
//
// The protocol is deliberately the simplest one that exercises the
// consistency-fault machinery end to end: exclusive ownership, migration on
// demand, no read sharing. tests/dsm_test.cc drives sequential ownership
// migration and ping-pong between two machines.

#ifndef SRC_DSM_DSM_KERNEL_H_
#define SRC_DSM_DSM_KERNEL_H_

#include <memory>
#include <vector>

#include "src/appkernel/channel.h"

namespace ckdsm {

inline constexpr uint32_t kOpFetchPage = 0x0d50;  // request: u32 page, u32 half
inline constexpr uint32_t kHalfPage = cksim::kPageSize / 2;
// Where the shared region starts in each node's space.
inline constexpr cksim::VirtAddr kDsmRegionBase = 0x48000000;

struct DsmConfig {
  uint32_t pages = 4;
  bool initially_owner = false;  // exactly one node starts owning every page
};

struct DsmStats {
  uint64_t fetches_sent = 0;      // pages pulled from the peer
  uint64_t invalidations = 0;     // pages surrendered to the peer
  uint64_t consistency_faults = 0;
};

class DsmKernel : public ckapp::AppKernelBase {
 public:
  DsmKernel(ck::CacheKernel& ck, const DsmConfig& config);
  ~DsmKernel() override;

  // Allocates the region's frames, creates the RPC service threads, and
  // wires the two channels (already configured over the fiber-channel slots
  // by the caller, which knows the device layout).
  void Setup(ck::CkApi& api, ckapp::MessageChannel& requests_out,
             ckapp::MessageChannel& replies_in);

  // The endpoint thread that must receive signals for the inbound channel
  // (index into this kernel's thread table).
  uint32_t endpoint_thread() const { return endpoint_thread_; }
  ckapp::RpcEndpoint& endpoint() { return *endpoint_; }

  uint32_t space_index() const { return space_index_; }
  cksim::VirtAddr PageVaddr(uint32_t page) const {
    return kDsmRegionBase + page * cksim::kPageSize;
  }
  bool OwnsPage(uint32_t page) const { return owned_[page]; }
  const DsmStats& dsm_stats() const { return stats_; }

  // Convenience for native worker threads of OTHER kernels is not supported:
  // DSM accesses must come from this kernel's threads so faults route here.
  // Workers are created via CreateNativeThread on this kernel as usual.

 protected:
  ck::HandlerAction OnConsistencyFault(const ck::FaultForward& fault, ck::CkApi& api) override;

 private:
  // The RPC service function: the peer asks for a page; surrender it.
  std::vector<uint8_t> Serve(uint32_t op, const std::vector<uint8_t>& request, ck::CkApi& api);

  void InstallFragment(ck::CkApi& api, uint32_t page, uint32_t half,
                       const std::vector<uint8_t>& bytes);

  ck::CacheKernel& ck_;
  DsmConfig config_;
  uint32_t space_index_ = 0;
  std::vector<cksim::PhysAddr> frames_;   // local frame per page
  std::vector<bool> owned_;
  std::vector<bool> fetching_;
  std::vector<uint8_t> fragments_pending_;  // bitmask of halves in flight
  std::vector<std::vector<ck::ThreadId>> waiters_;  // blocked on fetch

  std::unique_ptr<ckapp::RpcEndpoint> endpoint_;
  uint32_t endpoint_thread_ = 0;
  DsmStats stats_;
};

}  // namespace ckdsm

#endif  // SRC_DSM_DSM_KERNEL_H_
