// Communication library: channels and object-oriented RPC over memory-based
// messaging (sections 2.2 and 3).
//
// A MessageChannel is a one-way stream of fixed-slot messages. The sender
// maps the slot pages writable + message-mode; each receiver maps the same
// physical pages (or, for a device-bridged channel, its device's reception
// slots) with a signal thread registered. Send = write the message into the
// next slot, then deliver the slot's address as an address-valued signal.
// "The performance-critical data transfer aspect of interprocess
// communication is performed directly through the memory system."
//
// The same channel works unchanged across machines: configure the sender
// over the local fiber-channel/Ethernet transmit slots and the receiver over
// the remote device's reception slots -- the doorbell signal makes the
// device move the bytes. This is the unification the paper's device model is
// about.
//
// The RPC facility ("an object-oriented RPC facility implemented on top of
// the memory-based messaging as a user-space communication library") is one
// endpoint class over a channel pair: endpoints are native threads woken by
// signals; callers issue asynchronous calls with completion callbacks.

#ifndef SRC_APPKERNEL_CHANNEL_H_
#define SRC_APPKERNEL_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/appkernel/app_kernel_base.h"

namespace ckapp {

class MessageChannel {
 public:
  // Maximum payload per message (slot page minus the length word).
  static constexpr uint32_t kMaxMessage = cksim::kPageSize - 8;

  // Sender-side setup: map `slots` pages starting at physical `frame_base`
  // into the sender kernel's space at `vbase`, writable + message mode.
  void ConfigureSender(AppKernelBase& kernel, uint32_t space_index, cksim::VirtAddr vbase,
                       cksim::PhysAddr frame_base, uint32_t slots);

  // Receiver-side setup: same pages (or the bridged device's reception
  // pages), read-only + message mode, signals to `signal_thread` (an
  // app-kernel thread index). Mappings are locked by default so a waiting
  // server never misses a signal to an unmapped page.
  void ConfigureReceiver(AppKernelBase& kernel, uint32_t space_index, cksim::VirtAddr vbase,
                         cksim::PhysAddr frame_base, uint32_t slots, uint32_t signal_thread,
                         bool locked = true);

  // Prefault all receiver-side slot mappings (multi-mapping rule).
  ckbase::CkStatus PrimeReceiver(ck::CkApi& api);

  // Write one message into the next slot and signal it. Native-sender path.
  ckbase::CkStatus Send(ck::CkApi& api, const void* data, uint32_t len);

  // Receiver: read the message at the signaled address.
  uint32_t Read(ck::CkApi& api, cksim::VirtAddr signal_addr, void* out, uint32_t max_len);

  uint64_t messages_sent() const { return sent_; }

 private:
  struct End {
    AppKernelBase* kernel = nullptr;
    uint32_t space_index = 0;
    cksim::VirtAddr vbase = 0;
    cksim::PhysAddr frame_base = 0;
    uint32_t slots = 0;
  };

  End sender_;
  End receiver_;
  uint64_t sent_ = 0;
};

// Wire header of one RPC message.
struct RpcHeader {
  uint32_t seq = 0;
  uint32_t op = 0;
  uint32_t len = 0;
};

using RpcServeFn = std::function<std::vector<uint8_t>(
    uint32_t op, const std::vector<uint8_t>& request, ck::CkApi& api)>;

// The RPC engine. Calls go out on `out` and complete when the matching reply
// arrives on `in`; requests arriving on `in` run the service function and
// their replies go out on `out`. Replies carry kRpcReplyFlag in the op word
// and the endpoint thread demultiplexes by it -- the per-stream dispatch the
// paper assigns to the receiving thread (section 2.2) -- so one channel pair
// can carry both directions, as the DSM kernel and the file service need.
// An endpoint without a service function only calls: it drops requests.
inline constexpr uint32_t kRpcReplyFlag = 0x80000000u;

class RpcEndpoint : public ck::NativeProgram {
 public:
  using Completion = std::function<void(const std::vector<uint8_t>& reply, ck::CkApi& api)>;

  RpcEndpoint(MessageChannel& out, MessageChannel& in, RpcServeFn serve)
      : out_(out), in_(in), serve_(std::move(serve)) {}

  // Send asynchronously; `done` runs on this endpoint's thread.
  ckbase::CkStatus Call(ck::CkApi& api, uint32_t op, const std::vector<uint8_t>& payload,
                        Completion done);

  ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
    (void)ctx;
    ck::NativeOutcome outcome;
    outcome.action = ck::NativeOutcome::Action::kBlock;  // signal-driven
    return outcome;
  }

  void OnSignal(cksim::VirtAddr message_addr, ck::NativeCtx& ctx) override;

  uint32_t outstanding() const { return static_cast<uint32_t>(pending_.size()); }
  uint64_t requests_served() const { return served_; }
  uint64_t replies_received() const { return replies_in_; }

 private:
  ckbase::CkStatus Send(ck::CkApi& api, uint32_t seq, uint32_t op,
                        const std::vector<uint8_t>& payload);

  MessageChannel& out_;
  MessageChannel& in_;
  RpcServeFn serve_;
  std::map<uint32_t, Completion> pending_;
  uint32_t next_seq_ = 1;
  uint64_t served_ = 0;
  uint64_t replies_in_ = 0;
};

// The two ends of a request channel and a reply channel: the server receives
// requests and sends replies, the client the reverse.
class RpcServer : public RpcEndpoint {
 public:
  RpcServer(MessageChannel& requests, MessageChannel& replies, RpcServeFn serve)
      : RpcEndpoint(replies, requests, std::move(serve)) {}
};

class RpcClient : public RpcEndpoint {
 public:
  RpcClient(MessageChannel& requests, MessageChannel& replies)
      : RpcEndpoint(requests, replies, {}) {}
};

}  // namespace ckapp

#endif  // SRC_APPKERNEL_CHANNEL_H_
