// The System Resource Manager (SRM), the first application kernel (section 3).
//
// "A special application kernel called the system resource manager,
// replicated one per Cache Kernel/MPM, manages the resource sharing between
// other application kernels." The SRM:
//   * boots as the first kernel, locked, with full permissions on all
//     physical resources;
//   * owns the page-group allocator and grants groups, processor
//     percentages, priority caps and lock limits to the kernels it launches;
//   * acts as the owning kernel for other kernels' kernel objects, handling
//     their writeback (swap-out/swap-in of whole application kernels);
//   * coordinates with SRM replicas on other MPMs over the fiber-channel RPC
//     facility.

#ifndef SRC_SRM_SRM_H_
#define SRC_SRM_SRM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/appkernel/app_kernel_base.h"
#include "src/appkernel/channel.h"
#include "src/ckpt/checkpoint.h"
#include "src/ckpt/image.h"
#include "src/sim/devices.h"

namespace cksrm {

// SRM lifecycle operations, traced as obs::EventType::kSrmOp spans (arg16 is
// this code, arg32 the span id). Stable wire values: the trace exporter and
// the flight recorder both name events by these.
enum class SrmOpCode : uint16_t {
  kLaunch = 0,
  kSwapOut = 1,
  kSwapIn = 2,
  kCheckpoint = 3,
  kRestore = 4,
  kMigrate = 5,
  kAcceptMigration = 6,
  kCheckpointToStore = 7,
  kRestoreFromStore = 8,
};

// Resource grant for one application kernel.
struct LaunchParams {
  uint32_t page_groups = 2;                 // 512 KiB units of physical memory
  uint8_t cpu_percent[ck::kMaxCpus] = {100, 100, 100, 100};
  uint8_t max_priority = 24;
  uint8_t lock_limits[ck::kObjectTypeCount] = {2, 4, 8, 64};
  bool locked_kernel_object = false;        // pin the kernel descriptor itself
};

class Srm : public ckapp::AppKernelBase {
 public:
  explicit Srm(ck::CacheKernel& ck);

  // Create the first kernel object and take ownership of all allocatable
  // page groups. Call once, before the machine runs.
  void Boot();

  ck::CacheKernel& ck() { return ck_; }
  // SRM work runs on CPU 0 unless an event hands it another CPU.
  ck::CkApi Api() { return ck::CkApi(ck_, self(), ck_.machine().cpu(0)); }

  // ---- application-kernel lifecycle ----
  ckbase::Result<ck::KernelId> Launch(ckapp::AppKernelBase& app, const LaunchParams& params);
  // Swap a kernel out: unloads its kernel object (cascading writeback of all
  // its spaces, threads and mappings) but keeps its grants reserved.
  ckbase::CkStatus SwapOut(ckapp::AppKernelBase& app);
  // Reload a swapped kernel object and re-apply its grants. The application
  // kernel's own records reload spaces/threads on demand.
  ckbase::CkStatus SwapIn(ckapp::AppKernelBase& app);
  bool IsSwappedOut(const ckapp::AppKernelBase& app) const;

  // ---- physical memory ----
  // Allocate `count` contiguous page groups to `app` (read-write) and add
  // their frames to the app's pool. Returns the first group or kNoResources.
  ckbase::Result<uint32_t> GrantGroups(ckapp::AppKernelBase& app, uint32_t count);
  // Grant access to specific groups (shared channels, device regions)
  // without transferring frames into the app's pool.
  ckbase::CkStatus GrantSharedGroups(ckapp::AppKernelBase& app, uint32_t first_group,
                                     uint32_t count, ck::GroupAccess access);
  // Reserve groups for the SRM itself (device placement, channel frames).
  ckbase::Result<uint32_t> ReserveGroups(uint32_t count);

  uint32_t free_groups() const;

  // ---- checkpoint / migration / failover (docs/CHECKPOINT.md) ----
  // Quiesce `app` (kernel-object unload cascades the dependency-ordered
  // writeback of every space, thread and mapping), capture its complete
  // written-back state into `image` -- including the launch grant a peer SRM
  // needs to recreate it -- then swap it back in and let it continue. The
  // captured image is observably bit-exact with the running kernel.
  ckbase::CkStatus Checkpoint(ckapp::AppKernelBase& app, ckckpt::CkptImage* image);

  // Launch a fresh `app` instance from `image` on this SRM's machine (using
  // the grant recorded at capture) and resume its threads. `options`
  // translates fixed frames -- device regions, message-channel pages -- to
  // their placement on this machine. On failure nothing of `app` has been
  // loaded into the Cache Kernel and the instance must be discarded.
  ckbase::CkStatus Restore(ckapp::AppKernelBase& app, const ckckpt::CkptImage& image,
                           const ckckpt::RestoreOptions& options, std::string* error);

  // Live migration: quiesce + capture `app`, then ship the image to the peer
  // SRM over the fiber channel's bulk-transfer path. The source instance is
  // left swapped out (its grants stay reserved until the registry entry is
  // torn down); the kernel continues on the target after AcceptMigration.
  ckbase::CkStatus Migrate(ckapp::AppKernelBase& app, cksim::FiberChannelDevice& fc);

  // Poll `fc` for a migrated image; if one has been delivered, launch `app`
  // from it. Returns kRetry while the image is still in flight.
  ckbase::CkStatus AcceptMigration(cksim::FiberChannelDevice& fc, ckapp::AppKernelBase& app,
                                   const ckckpt::RestoreOptions& options, std::string* error);

  // Crash failover, capture side: checkpoint `app` to the stable store under
  // `key`, charging the simulated transfer cost to this SRM's CPU. Called
  // periodically; each call overwrites the previous image.
  ckbase::CkStatus CheckpointToStore(ckapp::AppKernelBase& app, cksim::StableStore& store,
                                     const std::string& key);

  // Crash failover, recovery side: restart a kernel lost with its MPM from
  // the last image under `key`. Work done after that checkpoint is lost.
  ckbase::CkStatus RestoreFromStore(ckapp::AppKernelBase& app, const cksim::StableStore& store,
                                    const std::string& key,
                                    const ckckpt::RestoreOptions& options, std::string* error);

  // ---- kernel-object writeback (we are the managing kernel) ----
  void OnKernelWriteback(const ck::KernelWriteback& record, ck::CkApi& api) override;

  // ---- I/O usage control (section 4.3): the channel manager disconnects
  // kernels that exceed their network quota. Packet counts are polled from
  // devices by the example/bench harnesses via RecordIo. ----
  void SetIoQuota(ckapp::AppKernelBase& app, uint64_t packets_per_window);
  bool RecordIo(ckapp::AppKernelBase& app, uint64_t packets);  // false = disconnected
  bool IsIoDisconnected(const ckapp::AppKernelBase& app) const;
  void ResetIoWindow();

  // ---- observability ----
  // Called on events worth a flight record: "restore-preflight: <error>" when
  // a restore fails before (or while) rebuilding state, "failover" when a
  // kernel is restarted from the stable store. ObsSession wires this to the
  // flight recorder.
  void set_event_hook(std::function<void(const std::string&)> hook) {
    event_hook_ = std::move(hook);
  }

 private:
  struct Registered {
    ckapp::AppKernelBase* app = nullptr;
    ck::KernelId id;
    bool loaded = false;
    LaunchParams params;
    std::vector<std::pair<uint32_t, uint32_t>> owned_groups;   // (first, count)
    std::vector<std::pair<uint32_t, uint32_t>> shared_groups;  // (first, count)
    uint64_t io_quota = ~uint64_t{0};
    uint64_t io_used = 0;
    bool io_disconnected = false;
  };

  // Wire the kernel's FramePool into the tiered-memory layer (docs/TIERING.md)
  // so pool-held frames (file cache, paging backing store) are DRAM-tracked
  // and demotable. Rebound on every Attach -- SwapIn issues a fresh KernelId.
  void BindTierHook(ckapp::AppKernelBase& app, ck::KernelId id);

  Registered* FindRegistration(const ckapp::AppKernelBase& app);
  const Registered* FindRegistration(const ckapp::AppKernelBase& app) const;
  ckbase::CkStatus ApplyGrants(Registered& reg);
  // Swap out + verify quiescence + capture + record the launch grant. The
  // kernel is left swapped out; callers SwapIn (Checkpoint) or not (Migrate).
  ckbase::CkStatus CaptureQuiesced(Registered& reg, ckapp::AppKernelBase& app,
                                   ckckpt::CkptImage* image);
  // Allocate a span (deterministic, machine-local) and trace the operation.
  // Span allocation is unconditional so enabling tracing never perturbs the
  // machine's deterministic state. Returns the span id for propagation.
  uint32_t EmitOp(SrmOpCode op);
  void NotifyEvent(const std::string& what) {
    if (event_hook_) {
      event_hook_(what);
    }
  }

  ck::CacheKernel& ck_;
  std::vector<std::unique_ptr<Registered>> registry_;
  std::vector<int32_t> group_owner_;  // -1 free, -2 reserved/SRM, else registry index
  std::function<void(const std::string&)> event_hook_;
};

}  // namespace cksrm

#endif  // SRC_SRM_SRM_H_
