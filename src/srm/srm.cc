#include "src/srm/srm.h"

#include <cstdio>

#include "src/obs/trace.h"

namespace cksrm {

using ck::CkApi;
using ck::GroupAccess;
using ck::KernelId;
using ckbase::CkStatus;
using ckbase::Result;

Srm::Srm(ck::CacheKernel& ck) : ckapp::AppKernelBase("srm", /*backing_pages=*/512), ck_(ck) {}

uint32_t Srm::EmitOp(SrmOpCode op) {
  cksim::Machine& m = ck_.machine();
  uint32_t span = m.AllocSpanId();
  // SRM work runs on CPU 0; its trace events land there too.
  CK_TRACE(m.trace_ring(0), obs::EventType::kSrmOp, m.Now(), static_cast<uint16_t>(op), span);
  return span;
}

void Srm::Boot() {
  KernelId id = ck_.BootFirstKernel(this, /*cookie=*/0);
  Attach(id);

  // Claim the allocatable physical memory (everything below the Cache
  // Kernel's page-table arena).
  uint32_t usable = (ck_.machine().memory().size() - ck_.config().page_table_arena_bytes) /
                    cksim::kPageGroupBytes;
  group_owner_.assign(usable, -1);
  // Group 0 stays with the SRM: frame 0 doubles as the "no frame" sentinel
  // and early boot structures live low.
  group_owner_[0] = -2;
  frames_.AddPageGroup(0);

  // The SRM needs its own address space for its internal (RPC) threads.
  CkApi api = Api();
  CreateSpace(api, /*locked=*/true);
}

Srm::Registered* Srm::FindRegistration(const ckapp::AppKernelBase& app) {
  // Newest first: a dead kernel's AppKernelBase may have been destroyed and
  // a fresh one allocated at the same address; the most recent registration
  // is the live one.
  for (auto it = registry_.rbegin(); it != registry_.rend(); ++it) {
    if ((*it)->app == &app) {
      return it->get();
    }
  }
  return nullptr;
}

const Srm::Registered* Srm::FindRegistration(const ckapp::AppKernelBase& app) const {
  for (auto it = registry_.rbegin(); it != registry_.rend(); ++it) {
    if ((*it)->app == &app) {
      return it->get();
    }
  }
  return nullptr;
}

uint32_t Srm::free_groups() const {
  uint32_t n = 0;
  for (int32_t owner : group_owner_) {
    if (owner == -1) {
      ++n;
    }
  }
  return n;
}

Result<uint32_t> Srm::ReserveGroups(uint32_t count) {
  // First-fit contiguous scan.
  for (uint32_t start = 0; start + count <= group_owner_.size(); ++start) {
    bool ok = true;
    for (uint32_t i = 0; i < count; ++i) {
      if (group_owner_[start + i] != -1) {
        ok = false;
        break;
      }
    }
    if (ok) {
      for (uint32_t i = 0; i < count; ++i) {
        group_owner_[start + i] = -2;
      }
      return start;
    }
  }
  return CkStatus::kNoResources;
}

Result<KernelId> Srm::Launch(ckapp::AppKernelBase& app, const LaunchParams& params) {
  EmitOp(SrmOpCode::kLaunch);
  CkApi api = Api();
  auto reg = std::make_unique<Registered>();
  reg->app = &app;
  reg->params = params;

  Result<KernelId> loaded =
      api.LoadKernel(&app, /*cookie=*/registry_.size(), params.locked_kernel_object);
  if (!loaded.ok()) {
    return loaded.status();
  }
  reg->id = loaded.value();
  reg->loaded = true;
  app.Attach(reg->id);
  BindTierHook(app, reg->id);

  registry_.push_back(std::move(reg));
  Registered& r = *registry_.back();

  // Initial memory allocation ("resources are allocated in large units that
  // the application kernel can then suballocate internally").
  if (params.page_groups > 0) {
    Result<uint32_t> groups = GrantGroups(app, params.page_groups);
    if (!groups.ok()) {
      return groups.status();
    }
  }

  CkStatus status = ApplyGrants(r);
  if (status != CkStatus::kOk) {
    return status;
  }
  return r.id;
}

void Srm::BindTierHook(ckapp::AppKernelBase& app, ck::KernelId id) {
  ck::CacheKernel* ck = &ck_;
  app.frames().BindTierHook([ck, id](cksim::PhysAddr frame, bool allocated) {
    ck->TierFramePoolEvent(id, frame, allocated);
  });
}

CkStatus Srm::ApplyGrants(Registered& reg) {
  CkApi api = Api();
  CkStatus status = api.SetCpuQuota(reg.id, reg.params.cpu_percent, reg.params.max_priority);
  if (status != CkStatus::kOk) {
    return status;
  }
  status = api.SetLockLimits(reg.id, reg.params.lock_limits);
  if (status != CkStatus::kOk) {
    return status;
  }
  for (auto [first, count] : reg.owned_groups) {
    status = api.GrantPageGroups(reg.id, first, count, GroupAccess::kReadWrite);
    if (status != CkStatus::kOk) {
      return status;
    }
  }
  for (auto [first, count] : reg.shared_groups) {
    status = api.GrantPageGroups(reg.id, first, count, GroupAccess::kReadWrite);
    if (status != CkStatus::kOk) {
      return status;
    }
  }
  return CkStatus::kOk;
}

Result<uint32_t> Srm::GrantGroups(ckapp::AppKernelBase& app, uint32_t count) {
  Registered* reg = FindRegistration(app);
  if (reg == nullptr) {
    return CkStatus::kNotFound;
  }
  int32_t index = -1;
  for (size_t i = 0; i < registry_.size(); ++i) {
    if (registry_[i].get() == reg) {
      index = static_cast<int32_t>(i);
    }
  }
  for (uint32_t start = 0; start + count <= group_owner_.size(); ++start) {
    bool ok = true;
    for (uint32_t i = 0; i < count; ++i) {
      if (group_owner_[start + i] != -1) {
        ok = false;
        break;
      }
    }
    if (!ok) {
      continue;
    }
    for (uint32_t i = 0; i < count; ++i) {
      group_owner_[start + i] = index;
      app.frames().AddPageGroup(start + i);
    }
    reg->owned_groups.emplace_back(start, count);
    if (reg->loaded) {
      CkApi api = Api();
      CkStatus status = api.GrantPageGroups(reg->id, start, count, GroupAccess::kReadWrite);
      if (status != CkStatus::kOk) {
        return status;
      }
    }
    return start;
  }
  return CkStatus::kNoResources;
}

CkStatus Srm::GrantSharedGroups(ckapp::AppKernelBase& app, uint32_t first_group, uint32_t count,
                                GroupAccess access) {
  Registered* reg = FindRegistration(app);
  if (reg == nullptr) {
    return CkStatus::kNotFound;
  }
  reg->shared_groups.emplace_back(first_group, count);
  if (reg->loaded) {
    CkApi api = Api();
    return api.GrantPageGroups(reg->id, first_group, count, access);
  }
  return CkStatus::kOk;
}

CkStatus Srm::SwapOut(ckapp::AppKernelBase& app) {
  EmitOp(SrmOpCode::kSwapOut);
  Registered* reg = FindRegistration(app);
  if (reg == nullptr) {
    return CkStatus::kNotFound;
  }
  if (!reg->loaded) {
    return CkStatus::kOk;
  }
  CkApi api = Api();
  CkStatus status = api.UnloadKernel(reg->id);
  // OnKernelWriteback marks the registration unloaded.
  return status;
}

CkStatus Srm::SwapIn(ckapp::AppKernelBase& app) {
  EmitOp(SrmOpCode::kSwapIn);
  Registered* reg = FindRegistration(app);
  if (reg == nullptr) {
    return CkStatus::kNotFound;
  }
  if (reg->loaded) {
    return CkStatus::kOk;
  }
  CkApi api = Api();
  uint64_t cookie = 0;
  for (size_t i = 0; i < registry_.size(); ++i) {
    if (registry_[i].get() == reg) {
      cookie = i;
    }
  }
  Result<KernelId> loaded = api.LoadKernel(&app, cookie, reg->params.locked_kernel_object);
  if (!loaded.ok()) {
    return loaded.status();
  }
  reg->id = loaded.value();
  reg->loaded = true;
  app.Attach(reg->id);
  BindTierHook(app, reg->id);
  CkStatus status = ApplyGrants(*reg);
  if (status != CkStatus::kOk) {
    return status;
  }
  // Let the kernel reload whatever must run without waiting for a fault or
  // wakeup (scheduler threads whose pre-swap wakeups are now stale, etc.).
  CkApi app_api(ck_, app.self(), ck_.machine().cpu(0));
  app.OnSwappedIn(app_api);
  return CkStatus::kOk;
}

bool Srm::IsSwappedOut(const ckapp::AppKernelBase& app) const {
  const Registered* reg = FindRegistration(app);
  return reg != nullptr && !reg->loaded;
}

CkStatus Srm::CaptureQuiesced(Registered& reg, ckapp::AppKernelBase& app,
                              ckckpt::CkptImage* image) {
  // Quiesce. After UnloadKernel the id is stale and every count must read
  // zero: nothing loaded in the Cache Kernel belongs to this kernel any more,
  // so the application kernel's records are the complete state ("writeback
  // completeness", docs/CHECKPOINT.md).
  CkStatus status = SwapOut(app);
  if (status != CkStatus::kOk) {
    return status;
  }
  auto after = ck_.LoadedCountsFor(reg.id);
  for (uint32_t count : after) {
    if (count != 0) {
      std::fprintf(stderr, "srm: kernel '%s' not quiesced after unload\n", app.name().c_str());
      return CkStatus::kBusy;
    }
  }

  CkApi api = Api();
  ckckpt::AppKernelState::Capture(app, api, image);

  // Record the resource grant so a peer SRM can recreate the kernel with
  // fresh page-group and CPU grants on its own machine.
  ckckpt::Writer w;
  w.U32(reg.params.page_groups);
  for (uint32_t c = 0; c < ck::kMaxCpus; ++c) {
    w.U8(reg.params.cpu_percent[c]);
  }
  w.U8(reg.params.max_priority);
  for (uint32_t t = 0; t < ck::kObjectTypeCount; ++t) {
    w.U8(reg.params.lock_limits[t]);
  }
  w.Bool(reg.params.locked_kernel_object);
  image->Append(ckckpt::RecordType::kLaunchParams, w.Take());
  return CkStatus::kOk;
}

CkStatus Srm::Checkpoint(ckapp::AppKernelBase& app, ckckpt::CkptImage* image) {
  EmitOp(SrmOpCode::kCheckpoint);
  Registered* reg = FindRegistration(app);
  if (reg == nullptr) {
    return CkStatus::kNotFound;
  }
  CkStatus status = CaptureQuiesced(*reg, app, image);
  if (status != CkStatus::kOk) {
    return status;
  }
  // Reload in place: the kernel resumes from exactly the captured state.
  return SwapIn(app);
}

CkStatus Srm::Restore(ckapp::AppKernelBase& app, const ckckpt::CkptImage& image,
                      const ckckpt::RestoreOptions& options, std::string* error) {
  EmitOp(SrmOpCode::kRestore);
  const ckckpt::CkptRecord* lp = image.Find(ckckpt::RecordType::kLaunchParams);
  if (lp == nullptr) {
    *error = "image has no launch-params record";
    NotifyEvent("restore-preflight: " + *error);
    return CkStatus::kInvalidArgument;
  }
  ckckpt::Reader r(lp->payload);
  LaunchParams params;
  params.page_groups = r.U32();
  for (uint32_t c = 0; c < ck::kMaxCpus; ++c) {
    params.cpu_percent[c] = r.U8();
  }
  params.max_priority = r.U8();
  for (uint32_t t = 0; t < ck::kObjectTypeCount; ++t) {
    params.lock_limits[t] = r.U8();
  }
  params.locked_kernel_object = r.Bool();
  if (!r.Done()) {
    *error = "malformed launch-params record";
    NotifyEvent("restore-preflight: " + *error);
    return CkStatus::kInvalidArgument;
  }

  Result<KernelId> launched = Launch(app, params);
  if (!launched.ok()) {
    *error = "relaunch failed";
    NotifyEvent("restore-preflight: " + *error);
    return launched.status();
  }
  // Each remap target names a fixed region on this machine (device registers,
  // message-channel pages). Grant the restored kernel shared access to those
  // groups, as the source SRM did at original setup, so the record rebuild
  // can carry the captured channel payloads across.
  for (const ckckpt::FrameRemap& remap : options.frame_remaps) {
    if (remap.pages == 0) {
      continue;
    }
    uint32_t first = cksim::PageGroupOf(remap.new_base);
    uint32_t last = cksim::PageGroupOf(remap.new_base + remap.pages * cksim::kPageSize - 1);
    CkStatus granted = GrantSharedGroups(app, first, last - first + 1, ck::GroupAccess::kReadWrite);
    if (granted != CkStatus::kOk) {
      *error = "cannot grant restored kernel access to remapped frame region";
      return granted;
    }
  }
  // Record rebuild and thread reload run with the app's own authority: the
  // restored kernel may only touch frames it has been granted.
  CkApi app_api(ck_, app.self(), ck_.machine().cpu(0));
  if (!ckckpt::AppKernelState::Restore(app, app_api, image, options, error)) {
    return CkStatus::kInvalidArgument;
  }
  if (!ckckpt::AppKernelState::Resume(app, app_api, error)) {
    return CkStatus::kInvalidArgument;
  }
  return CkStatus::kOk;
}

CkStatus Srm::Migrate(ckapp::AppKernelBase& app, cksim::FiberChannelDevice& fc) {
  Registered* reg = FindRegistration(app);
  if (reg == nullptr) {
    return CkStatus::kNotFound;
  }
  ckckpt::CkptImage image;
  CkStatus status = CaptureQuiesced(*reg, app, &image);
  if (status != CkStatus::kOk) {
    return status;
  }
  std::vector<uint8_t> bytes = image.Serialize();
  // The migration span rides the bulk transfer out of band, so the target's
  // bulk.recv (and the Chrome flow arrow) is causally bound to this operation.
  uint32_t span = EmitOp(SrmOpCode::kMigrate);
  fc.SendBulk(std::move(bytes), ck_.machine().Now(), span);
  // The source stays swapped out; the kernel's next instruction executes on
  // the target machine.
  return CkStatus::kOk;
}

CkStatus Srm::AcceptMigration(cksim::FiberChannelDevice& fc, ckapp::AppKernelBase& app,
                              const ckckpt::RestoreOptions& options, std::string* error) {
  std::vector<uint8_t> bytes;
  if (!fc.PollBulk(&bytes, ck_.machine().Now())) {
    return CkStatus::kRetry;  // still on the wire
  }
  // Emitted only once the image has landed (polling while in flight is not an
  // operation). PollBulk traced bulk.recv under the sender's migration span;
  // this op span marks where the target picks the kernel up.
  EmitOp(SrmOpCode::kAcceptMigration);
  ckckpt::CkptImage image;
  if (!ckckpt::CkptImage::Parse(bytes, &image, error)) {
    NotifyEvent("restore-preflight: " + *error);
    return CkStatus::kInvalidArgument;
  }
  return Restore(app, image, options, error);
}

CkStatus Srm::CheckpointToStore(ckapp::AppKernelBase& app, cksim::StableStore& store,
                                const std::string& key) {
  EmitOp(SrmOpCode::kCheckpointToStore);
  ckckpt::CkptImage image;
  CkStatus status = Checkpoint(app, &image);
  if (status != CkStatus::kOk) {
    return status;
  }
  CkApi api = Api();
  api.Charge(store.Put(key, image.Serialize()));
  return CkStatus::kOk;
}

CkStatus Srm::RestoreFromStore(ckapp::AppKernelBase& app, const cksim::StableStore& store,
                               const std::string& key, const ckckpt::RestoreOptions& options,
                               std::string* error) {
  EmitOp(SrmOpCode::kRestoreFromStore);
  // Crash failover: the machine that ran this kernel is gone; snapshot the
  // survivor's state before we rebuild on it.
  NotifyEvent("failover");
  std::vector<uint8_t> bytes;
  cksim::Cycles cost = 0;
  if (!store.Get(key, &bytes, &cost)) {
    *error = "no checkpoint in stable store under key '" + key + "'";
    NotifyEvent("restore-preflight: " + *error);
    return CkStatus::kNotFound;
  }
  CkApi api = Api();
  api.Charge(cost);
  ckckpt::CkptImage image;
  if (!ckckpt::CkptImage::Parse(bytes, &image, error)) {
    NotifyEvent("restore-preflight: " + *error);
    return CkStatus::kInvalidArgument;
  }
  return Restore(app, image, options, error);
}

void Srm::OnKernelWriteback(const ck::KernelWriteback& record, CkApi& api) {
  (void)api;
  if (record.cookie < registry_.size()) {
    registry_[record.cookie]->loaded = false;
  }
}

void Srm::SetIoQuota(ckapp::AppKernelBase& app, uint64_t packets_per_window) {
  Registered* reg = FindRegistration(app);
  if (reg != nullptr) {
    reg->io_quota = packets_per_window;
  }
}

bool Srm::RecordIo(ckapp::AppKernelBase& app, uint64_t packets) {
  Registered* reg = FindRegistration(app);
  if (reg == nullptr) {
    return true;
  }
  reg->io_used += packets;
  if (reg->io_used > reg->io_quota) {
    // "temporarily disconnects application kernels that exceed their quota,
    // exploiting the connection-oriented nature of this networking facility"
    reg->io_disconnected = true;
  }
  return !reg->io_disconnected;
}

bool Srm::IsIoDisconnected(const ckapp::AppKernelBase& app) const {
  const Registered* reg = FindRegistration(app);
  return reg != nullptr && reg->io_disconnected;
}

void Srm::ResetIoWindow() {
  for (auto& reg : registry_) {
    reg->io_used = 0;
    reg->io_disconnected = false;
  }
}

}  // namespace cksrm
