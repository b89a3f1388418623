#include "src/appkernel/channel.h"

#include <cstring>

namespace ckapp {

using ck::CkApi;
using ckbase::CkStatus;
using cksim::PhysAddr;
using cksim::VirtAddr;

void MessageChannel::ConfigureSender(AppKernelBase& kernel, uint32_t space_index, VirtAddr vbase,
                                     PhysAddr frame_base, uint32_t slots) {
  sender_ = End{&kernel, space_index, vbase, frame_base, slots};
  kernel.DefineFrameRegion(space_index, vbase, slots, frame_base, /*writable=*/true,
                           /*message=*/true);
}

void MessageChannel::ConfigureReceiver(AppKernelBase& kernel, uint32_t space_index,
                                       VirtAddr vbase, PhysAddr frame_base, uint32_t slots,
                                       uint32_t signal_thread, bool locked) {
  receiver_ = End{&kernel, space_index, vbase, frame_base, slots};
  kernel.DefineFrameRegion(space_index, vbase, slots, frame_base, /*writable=*/false,
                           /*message=*/true, signal_thread, locked);
}

CkStatus MessageChannel::PrimeReceiver(CkApi& api) {
  for (uint32_t i = 0; i < receiver_.slots; ++i) {
    CkStatus status = receiver_.kernel->EnsureMappingLoaded(
        api, receiver_.space_index, receiver_.vbase + i * cksim::kPageSize);
    if (status != CkStatus::kOk) {
      return status;
    }
  }
  return CkStatus::kOk;
}

CkStatus MessageChannel::Send(CkApi& api, const void* data, uint32_t len) {
  if (len > kMaxMessage || sender_.kernel == nullptr) {
    return CkStatus::kInvalidArgument;
  }
  uint32_t slot = static_cast<uint32_t>(sent_ % sender_.slots);
  PhysAddr frame = sender_.frame_base + slot * cksim::kPageSize;
  VirtAddr slot_vaddr = sender_.vbase + slot * cksim::kPageSize;

  // The data transfer goes directly through the memory system.
  api.WritePhys(frame, &len, 4);
  if (len > 0) {
    api.WritePhys(frame + 4, data, len);
  }

  // The sender's mapping must be loaded for the signal's address translation
  // (a guest sender would take a mapping fault here instead).
  CkStatus status = sender_.kernel->EnsureMappingLoaded(api, sender_.space_index, slot_vaddr);
  if (status != CkStatus::kOk) {
    return status;
  }
  status = api.Signal(sender_.kernel->space(sender_.space_index).ck_id, slot_vaddr);
  if (status == CkStatus::kOk) {
    ++sent_;
  }
  return status;
}

uint32_t MessageChannel::Read(CkApi& api, VirtAddr signal_addr, void* out, uint32_t max_len) {
  if (receiver_.kernel == nullptr || signal_addr < receiver_.vbase) {
    return 0;
  }
  uint32_t slot = (signal_addr - receiver_.vbase) / cksim::kPageSize;
  if (slot >= receiver_.slots) {
    return 0;
  }
  PhysAddr frame = receiver_.frame_base + slot * cksim::kPageSize;
  uint32_t len = 0;
  api.ReadPhys(frame, &len, 4);
  if (len > kMaxMessage) {
    return 0;  // corrupt slot
  }
  uint32_t take = len < max_len ? len : max_len;
  if (take > 0) {
    api.ReadPhys(frame + 4, out, take);
  }
  return take;
}

// ---------------------------------------------------------------------------
// RPC
// ---------------------------------------------------------------------------

CkStatus RpcEndpoint::Send(CkApi& api, uint32_t seq, uint32_t op,
                           const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> wire(sizeof(RpcHeader) + payload.size());
  RpcHeader header{seq, op, static_cast<uint32_t>(payload.size())};
  std::memcpy(wire.data(), &header, sizeof(header));
  if (!payload.empty()) {
    std::memcpy(wire.data() + sizeof(RpcHeader), payload.data(), payload.size());
  }
  return out_.Send(api, wire.data(), static_cast<uint32_t>(wire.size()));
}

CkStatus RpcEndpoint::Call(CkApi& api, uint32_t op, const std::vector<uint8_t>& payload,
                           Completion done) {
  uint32_t seq = next_seq_++;
  CkStatus status = Send(api, seq, op & ~kRpcReplyFlag, payload);
  if (status == CkStatus::kOk) {
    pending_[seq] = std::move(done);
  }
  return status;
}

void RpcEndpoint::OnSignal(VirtAddr message_addr, ck::NativeCtx& ctx) {
  uint8_t buffer[MessageChannel::kMaxMessage];
  uint32_t got = in_.Read(ctx.api(), message_addr, buffer, sizeof(buffer));
  if (got < sizeof(RpcHeader)) {
    return;
  }
  RpcHeader header;
  std::memcpy(&header, buffer, sizeof(header));
  if (sizeof(RpcHeader) + header.len > got) {
    return;
  }
  std::vector<uint8_t> body(buffer + sizeof(RpcHeader), buffer + sizeof(RpcHeader) + header.len);
  if ((header.op & kRpcReplyFlag) != 0) {
    // A reply to one of our calls.
    auto it = pending_.find(header.seq);
    if (it == pending_.end()) {
      return;
    }
    Completion done = std::move(it->second);
    pending_.erase(it);
    ++replies_in_;
    done(body, ctx.api());
    return;
  }
  if (!serve_) {
    return;  // a call-only endpoint serves nothing
  }
  std::vector<uint8_t> reply = serve_(header.op, body, ctx.api());
  ++served_;
  Send(ctx.api(), header.seq, header.op | kRpcReplyFlag, reply);
}

}  // namespace ckapp
