// Memory-based messaging: address-valued signals, reverse-TLB fast path,
// multi-mapping consistency, channels and RPC (sections 2.2, 4.1, 4.2).

#include <gtest/gtest.h>

#include "src/appkernel/channel.h"
#include "src/isa/assembler.h"
#include "tests/test_harness.h"

namespace {

using ckbase::CkStatus;
using cktest::TestWorld;

ckisa::Program MustAssemble(const char* source, uint32_t base) {
  ckisa::AssembleResult result = ckisa::Assemble(source, base);
  EXPECT_TRUE(result.ok) << result.error;
  return result.program;
}

// Native receiver that records signal addresses.
class SignalRecorder : public ck::NativeProgram {
 public:
  ck::NativeOutcome Step(ck::NativeCtx&) override {
    ck::NativeOutcome outcome;
    outcome.action = ck::NativeOutcome::Action::kBlock;
    return outcome;
  }
  void OnSignal(cksim::VirtAddr addr, ck::NativeCtx&) override { signals.push_back(addr); }
  std::vector<cksim::VirtAddr> signals;
};

class MessagingTest : public ::testing::Test {
 protected:
  MessagingTest() : app_("msg-app", 256) {
    world_ = std::make_unique<TestWorld>();
    world_->Launch(app_);
  }

  ck::CkApi AppApi() { return ck::CkApi(world_->ck(), app_.self(), world_->machine().cpu(0)); }

  std::unique_ptr<TestWorld> world_;
  ckapp::AppKernelBase app_;
};

TEST_F(MessagingTest, NativeToNativeSignalDelivery) {
  ck::CkApi api = AppApi();
  uint32_t space = app_.CreateSpace(api);

  // Shared message page: one frame, mapped writable+message for the sender
  // view and read+signal for the receiver view.
  cksim::PhysAddr frame = app_.frames().Allocate();
  ASSERT_NE(frame, 0u);

  SignalRecorder receiver;
  uint32_t receiver_thread = app_.CreateNativeThread(api, space, &receiver, /*priority=*/12);

  app_.DefineFrameRegion(space, 0x00800000, 1, frame, /*writable=*/true, /*message=*/true);
  app_.DefineFrameRegion(space, 0x00900000, 1, frame, /*writable=*/false, /*message=*/true,
                         receiver_thread);
  ASSERT_EQ(app_.EnsureMappingLoaded(api, space, 0x00800000), CkStatus::kOk);
  ASSERT_EQ(app_.EnsureMappingLoaded(api, space, 0x00900000), CkStatus::kOk);

  // Write a message and signal offset 0x40 in the sender view.
  uint32_t payload = 0x5555aaaa;
  ASSERT_EQ(api.WritePhys(frame + 0x40, &payload, 4), CkStatus::kOk);
  ASSERT_EQ(api.Signal(app_.space(space).ck_id, 0x00800040), CkStatus::kOk);

  ASSERT_TRUE(world_->RunUntil([&] { return !receiver.signals.empty(); }, 100000));
  // The receiver gets the address translated into ITS view of the page.
  EXPECT_EQ(receiver.signals[0], 0x00900040u);
  EXPECT_GE(world_->ck().stats().signals_delivered_slow +
                world_->ck().stats().signals_delivered_fast,
            1u);
}

TEST_F(MessagingTest, SignalOnUnmappedSenderPageFails) {
  ck::CkApi api = AppApi();
  uint32_t space = app_.CreateSpace(api);
  EXPECT_EQ(api.Signal(app_.space(space).ck_id, 0x00800000), CkStatus::kNotFound);
}

TEST_F(MessagingTest, SignalOnNonMessagePageRejected) {
  ck::CkApi api = AppApi();
  uint32_t space = app_.CreateSpace(api);
  app_.DefineZeroRegion(space, 0x00800000, 1, /*writable=*/true);
  ASSERT_EQ(app_.EnsureMappingLoaded(api, space, 0x00800000), CkStatus::kOk);
  EXPECT_EQ(api.Signal(app_.space(space).ck_id, 0x00800000), CkStatus::kInvalidArgument);
}

TEST_F(MessagingTest, ReverseTlbFastPathAfterFirstDelivery) {
  ck::CkApi api = AppApi();
  uint32_t space = app_.CreateSpace(api);
  cksim::PhysAddr frame = app_.frames().Allocate();

  SignalRecorder receiver;
  // Pin receiver to cpu 0 = sender cpu, so delivery is same-CPU immediate.
  uint32_t receiver_thread =
      app_.CreateNativeThread(api, space, &receiver, /*priority=*/12, false, /*cpu=*/0);
  app_.DefineFrameRegion(space, 0x00800000, 1, frame, true, true);
  app_.DefineFrameRegion(space, 0x00900000, 1, frame, false, true, receiver_thread);
  ASSERT_EQ(app_.EnsureMappingLoaded(api, space, 0x00800000), CkStatus::kOk);
  ASSERT_EQ(app_.EnsureMappingLoaded(api, space, 0x00900000), CkStatus::kOk);

  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(api.Signal(app_.space(space).ck_id, 0x00800000), CkStatus::kOk);
  }
  const ck::CkStats& stats = world_->ck().stats();
  // First delivery misses the reverse TLB (two-stage lookup), later ones hit.
  EXPECT_EQ(stats.signals_delivered_slow, 1u);
  EXPECT_EQ(stats.signals_delivered_fast, 4u);
}

TEST_F(MessagingTest, ReverseTlbDisabledAlwaysSlow) {
  cktest::WorldOptions options;
  options.ck.reverse_tlb_enabled = false;
  TestWorld world(options);
  ckapp::AppKernelBase app("no-rtlb", 64);
  world.Launch(app);
  ck::CkApi api(world.ck(), app.self(), world.machine().cpu(0));

  uint32_t space = app.CreateSpace(api);
  cksim::PhysAddr frame = app.frames().Allocate();
  SignalRecorder receiver;
  uint32_t receiver_thread = app.CreateNativeThread(api, space, &receiver, 12, false, 0);
  app.DefineFrameRegion(space, 0x00800000, 1, frame, true, true);
  app.DefineFrameRegion(space, 0x00900000, 1, frame, false, true, receiver_thread);
  ASSERT_EQ(app.EnsureMappingLoaded(api, space, 0x00800000), CkStatus::kOk);
  ASSERT_EQ(app.EnsureMappingLoaded(api, space, 0x00900000), CkStatus::kOk);

  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(api.Signal(app.space(space).ck_id, 0x00800000), CkStatus::kOk);
  }
  EXPECT_EQ(world.ck().stats().signals_delivered_slow, 5u);
  EXPECT_EQ(world.ck().stats().signals_delivered_fast, 0u);
}

TEST_F(MessagingTest, OneToManyFanOut) {
  ck::CkApi api = AppApi();
  uint32_t space = app_.CreateSpace(api);
  cksim::PhysAddr frame = app_.frames().Allocate();
  app_.DefineFrameRegion(space, 0x00800000, 1, frame, true, true);
  ASSERT_EQ(app_.EnsureMappingLoaded(api, space, 0x00800000), CkStatus::kOk);

  // Three receivers, each with its own view of the page (Figure 3).
  std::vector<std::unique_ptr<SignalRecorder>> receivers;
  for (uint32_t r = 0; r < 3; ++r) {
    auto recorder = std::make_unique<SignalRecorder>();
    uint32_t thread = app_.CreateNativeThread(api, space, recorder.get(), 12);
    cksim::VirtAddr view = 0x00900000 + r * 0x10000;
    app_.DefineFrameRegion(space, view, 1, frame, false, true, thread);
    ASSERT_EQ(app_.EnsureMappingLoaded(api, space, view), CkStatus::kOk);
    receivers.push_back(std::move(recorder));
  }

  ASSERT_EQ(api.Signal(app_.space(space).ck_id, 0x00800010), CkStatus::kOk);
  ASSERT_TRUE(world_->RunUntil(
      [&] {
        for (auto& r : receivers) {
          if (r->signals.empty()) {
            return false;
          }
        }
        return true;
      },
      200000));
  EXPECT_EQ(receivers[0]->signals[0], 0x00900010u);
  EXPECT_EQ(receivers[1]->signals[0], 0x00910010u);
  EXPECT_EQ(receivers[2]->signals[0], 0x00920010u);
}

TEST_F(MessagingTest, MultiMappingConsistencyFlushesWritablePeers) {
  ck::CkApi api = AppApi();
  uint32_t space = app_.CreateSpace(api);
  cksim::PhysAddr frame = app_.frames().Allocate();
  SignalRecorder receiver;
  uint32_t receiver_thread = app_.CreateNativeThread(api, space, &receiver, 12);
  app_.DefineFrameRegion(space, 0x00800000, 1, frame, true, true);
  app_.DefineFrameRegion(space, 0x00900000, 1, frame, false, true, receiver_thread);
  ASSERT_EQ(app_.EnsureMappingLoaded(api, space, 0x00800000), CkStatus::kOk);
  ASSERT_EQ(app_.EnsureMappingLoaded(api, space, 0x00900000), CkStatus::kOk);

  // Unload the RECEIVER (signal) mapping: the sender's writable mapping must
  // be flushed too, so the sender re-faults rather than signaling into the
  // void (section 4.2).
  ASSERT_EQ(api.UnloadMapping(app_.space(space).ck_id, 0x00900000), CkStatus::kOk);
  ckbase::Result<ck::MappingInfo> sender_info =
      api.QueryMapping(app_.space(space).ck_id, 0x00800000);
  EXPECT_FALSE(sender_info.ok()) << "writable peer mapping must be gone";

  // Unloading a writable NON-signal mapping must NOT cascade.
  ASSERT_EQ(app_.EnsureMappingLoaded(api, space, 0x00800000), CkStatus::kOk);
  ASSERT_EQ(app_.EnsureMappingLoaded(api, space, 0x00900000), CkStatus::kOk);
  ASSERT_EQ(api.UnloadMapping(app_.space(space).ck_id, 0x00800000), CkStatus::kOk);
  EXPECT_TRUE(api.QueryMapping(app_.space(space).ck_id, 0x00900000).ok())
      << "receiver mapping survives a plain writable flush";
}

TEST_F(MessagingTest, GuestSenderSignalTrap) {
  ck::CkApi api = AppApi();
  uint32_t space = app_.CreateSpace(api);
  cksim::PhysAddr frame = app_.frames().Allocate();

  SignalRecorder receiver;
  uint32_t receiver_thread = app_.CreateNativeThread(api, space, &receiver, 20);
  app_.DefineFrameRegion(space, 0x00800000, 1, frame, true, true);
  app_.DefineFrameRegion(space, 0x00900000, 1, frame, false, true, receiver_thread);
  ASSERT_EQ(app_.EnsureMappingLoaded(api, space, 0x00900000), CkStatus::kOk);

  // Guest writes the message then issues the signal trap (trap 2, a0=addr).
  // Its own message-page mapping is NOT preloaded: the signal trap first
  // takes a mapping fault, the app kernel loads the mapping, and the trap
  // re-executes -- the multi-mapping flow of section 4.2.
  ckisa::Program program = MustAssemble(R"(
      li   t0, 0x00800000
      li   t1, 0xc0ffee
      sw   t1, 64(t0)
      addi a0, t0, 64
      trap 2            ; ck signal
      halt
  )", 0x10000);
  app_.LoadProgramImage(space, program, /*writable=*/false);
  ckapp::GuestThreadParams params;
  params.space_index = space;
  params.entry = 0x10000;
  uint32_t guest = app_.CreateGuestThread(api, params);

  ASSERT_TRUE(world_->RunUntil([&] { return app_.thread(guest).finished; }, 500000));
  ASSERT_TRUE(world_->RunUntil([&] { return !receiver.signals.empty(); }, 200000));
  EXPECT_EQ(receiver.signals[0], 0x00900040u);
  // And the payload is visible through physical memory.
  uint32_t payload = 0;
  ASSERT_EQ(api.ReadPhys(frame + 64, &payload, 4), CkStatus::kOk);
  EXPECT_EQ(payload, 0xc0ffeeu);
}

TEST_F(MessagingTest, GuestReceiverSignalHandler) {
  ck::CkApi api = AppApi();
  uint32_t space = app_.CreateSpace(api);
  cksim::PhysAddr frame = app_.frames().Allocate();

  // Guest receiver: waits for signals; its handler stores the signal address
  // to a mailbox and returns via the signal-return trap.
  ckisa::Program program = MustAssemble(R"(
      ; main: spin until the mailbox fills
      li   t0, 0x00a00000
    wait:
      trap 3            ; await signal (enters handler when one arrives)
      lw   t1, 0(t0)
      beq  t1, r0, wait
      halt

    handler:
      li   t2, 0x00a00000
      sw   a0, 0(t2)    ; record the translated message address
      trap 1            ; signal return
  )", 0x10000);
  app_.LoadProgramImage(space, program, /*writable=*/false);
  app_.DefineZeroRegion(space, 0x00a00000, 1, /*writable=*/true);  // mailbox
  app_.DefineFrameRegion(space, 0x00900000, 1, frame, false, true, /*signal thread set below*/
                         ckapp::kNoThread);

  ckapp::GuestThreadParams params;
  params.space_index = space;
  params.entry = 0x10000;
  params.signal_handler = program.labels.at("handler");
  uint32_t guest = app_.CreateGuestThread(api, params);
  // Route the message page's signals to the guest thread.
  app_.space(space).FindPage(0x00900000)->signal_thread = guest;
  ASSERT_EQ(app_.EnsureMappingLoaded(api, space, 0x00900000), CkStatus::kOk);

  // Let the guest start and actually block in await (a signal sent before
  // its first await would interrupt it at the entry point, and the program
  // would re-await after the handler with nothing pending).
  app_.DefineFrameRegion(space, 0x00800000, 1, frame, true, true);
  ASSERT_EQ(app_.EnsureMappingLoaded(api, space, 0x00800000), CkStatus::kOk);
  ASSERT_TRUE(world_->RunUntil([&] {
    ckbase::Result<ck::ThreadState> state = world_->ck().GetThreadState(app_.thread(guest).ck_id);
    return state.ok() && state.value() == ck::ThreadState::kBlocked;
  }));
  ASSERT_EQ(api.Signal(app_.space(space).ck_id, 0x00800020), CkStatus::kOk);

  ASSERT_TRUE(world_->RunUntil([&] { return app_.thread(guest).finished; }, 500000));
  // The mailbox holds the receiver-side address of the message.
  ckapp::PageRecord* mailbox = app_.space(space).FindPage(0x00a00000);
  ASSERT_NE(mailbox, nullptr);
  uint32_t recorded = 0;
  ASSERT_EQ(api.ReadPhys(mailbox->frame, &recorded, 4), CkStatus::kOk);
  EXPECT_EQ(recorded, 0x00900020u);
}

TEST_F(MessagingTest, ChannelSendReceive) {
  ck::CkApi api = AppApi();
  uint32_t space = app_.CreateSpace(api);

  // 2-slot channel over frames from the app's pool.
  cksim::PhysAddr slot0 = app_.frames().Allocate();
  cksim::PhysAddr slot1 = app_.frames().Allocate();
  ASSERT_EQ(slot1, slot0 + cksim::kPageSize) << "pool frames are contiguous here";

  class ChannelReceiver : public ck::NativeProgram {
   public:
    explicit ChannelReceiver(ckapp::MessageChannel& channel) : channel_(channel) {}
    ck::NativeOutcome Step(ck::NativeCtx&) override {
      ck::NativeOutcome outcome;
      outcome.action = ck::NativeOutcome::Action::kBlock;
      return outcome;
    }
    void OnSignal(cksim::VirtAddr addr, ck::NativeCtx& ctx) override {
      char buffer[64] = {0};
      uint32_t n = channel_.Read(ctx.api(), addr, buffer, sizeof(buffer));
      messages.emplace_back(buffer, n);
    }
    ckapp::MessageChannel& channel_;
    std::vector<std::string> messages;
  };

  ckapp::MessageChannel channel;
  ChannelReceiver receiver(channel);
  uint32_t receiver_thread = app_.CreateNativeThread(api, space, &receiver, 15);
  channel.ConfigureSender(app_, space, 0x00800000, slot0, 2);
  channel.ConfigureReceiver(app_, space, 0x00900000, slot0, 2, receiver_thread);
  ASSERT_EQ(channel.PrimeReceiver(api), CkStatus::kOk);

  ASSERT_EQ(channel.Send(api, "hello", 5), CkStatus::kOk);
  ASSERT_EQ(channel.Send(api, "world!", 6), CkStatus::kOk);
  ASSERT_TRUE(world_->RunUntil([&] { return receiver.messages.size() >= 2; }, 200000));
  EXPECT_EQ(receiver.messages[0], "hello");
  EXPECT_EQ(receiver.messages[1], "world!");
}

TEST_F(MessagingTest, RpcRoundTrip) {
  ck::CkApi api = AppApi();
  uint32_t space = app_.CreateSpace(api);

  // Request + reply channels (2 slots each) over four contiguous frames.
  cksim::PhysAddr frames[4];
  for (auto& f : frames) {
    f = app_.frames().Allocate();
  }

  ckapp::MessageChannel requests, replies;
  ckapp::RpcServer server(requests, replies,
                          [](uint32_t op, const std::vector<uint8_t>& in, ck::CkApi&) {
    // Service: op 1 doubles each byte.
    std::vector<uint8_t> out = in;
    if (op == 1) {
      for (uint8_t& b : out) {
        b = static_cast<uint8_t>(b * 2);
      }
    }
    return out;
  });
  ckapp::RpcClient client(requests, replies);

  uint32_t server_thread = app_.CreateNativeThread(api, space, &server, 16);
  uint32_t client_thread = app_.CreateNativeThread(api, space, &client, 16);

  requests.ConfigureSender(app_, space, 0x00800000, frames[0], 2);
  requests.ConfigureReceiver(app_, space, 0x00900000, frames[0], 2, server_thread);
  replies.ConfigureSender(app_, space, 0x00a00000, frames[2], 2);
  replies.ConfigureReceiver(app_, space, 0x00b00000, frames[2], 2, client_thread);
  ASSERT_EQ(requests.PrimeReceiver(api), CkStatus::kOk);
  ASSERT_EQ(replies.PrimeReceiver(api), CkStatus::kOk);

  std::vector<uint8_t> reply_data;
  ASSERT_EQ(client.Call(api, 1, {10, 20, 30},
                        [&](const std::vector<uint8_t>& reply, ck::CkApi&) {
                          reply_data = reply;
                        }),
            CkStatus::kOk);

  ASSERT_TRUE(world_->RunUntil([&] { return !reply_data.empty(); }, 500000));
  ASSERT_EQ(reply_data.size(), 3u);
  EXPECT_EQ(reply_data[0], 20);
  EXPECT_EQ(reply_data[1], 40);
  EXPECT_EQ(reply_data[2], 60);
  EXPECT_EQ(server.requests_served(), 1u);
  EXPECT_EQ(client.replies_received(), 1u);
  EXPECT_EQ(client.outstanding(), 0u);
}

// A client endpoint has no service function: a message on its reply channel
// without the reply flag is a request it cannot serve, and it drops it.
TEST_F(MessagingTest, RpcClientDropsRequests) {
  ck::CkApi api = AppApi();
  uint32_t space = app_.CreateSpace(api);
  cksim::PhysAddr frames[4];
  for (auto& f : frames) {
    f = app_.frames().Allocate();
  }

  ckapp::MessageChannel requests, replies;
  ckapp::RpcClient client(requests, replies);
  uint32_t client_thread = app_.CreateNativeThread(api, space, &client, 16);
  requests.ConfigureSender(app_, space, 0x00800000, frames[0], 2);
  replies.ConfigureSender(app_, space, 0x00a00000, frames[2], 2);
  replies.ConfigureReceiver(app_, space, 0x00b00000, frames[2], 2, client_thread);
  ASSERT_EQ(replies.PrimeReceiver(api), CkStatus::kOk);

  uint32_t completions = 0;
  ASSERT_EQ(client.Call(api, 1, {7},
                        [&](const std::vector<uint8_t>&, ck::CkApi&) { ++completions; }),
            CkStatus::kOk);
  ASSERT_EQ(client.outstanding(), 1u);

  // Same sequence number as the pending call, but no reply flag.
  ckapp::RpcHeader request{1, 1, 0};
  ASSERT_EQ(replies.Send(api, &request, sizeof(request)), CkStatus::kOk);
  world_->RunUntil([] { return false; }, 20000);
  EXPECT_EQ(completions, 0u);
  EXPECT_EQ(client.outstanding(), 1u);
  EXPECT_EQ(client.requests_served(), 0u);
  EXPECT_EQ(client.replies_received(), 0u);

  // The flagged reply still completes the call.
  ckapp::RpcHeader reply{1, 1 | ckapp::kRpcReplyFlag, 0};
  ASSERT_EQ(replies.Send(api, &reply, sizeof(reply)), CkStatus::kOk);
  ASSERT_TRUE(world_->RunUntil([&] { return completions == 1; }, 200000));
  EXPECT_EQ(client.outstanding(), 0u);
  EXPECT_EQ(client.replies_received(), 1u);
}

TEST_F(MessagingTest, ChannelRejectsOversizeAndUnconfigured) {
  ck::CkApi api = AppApi();
  ckapp::MessageChannel unconfigured;
  EXPECT_EQ(unconfigured.Send(api, "x", 1), CkStatus::kInvalidArgument);

  uint32_t space = app_.CreateSpace(api);
  cksim::PhysAddr frame = app_.frames().Allocate();
  ckapp::MessageChannel channel;
  channel.ConfigureSender(app_, space, 0x00800000, frame, 1);
  std::vector<uint8_t> huge(ckapp::MessageChannel::kMaxMessage + 1);
  EXPECT_EQ(channel.Send(api, huge.data(), static_cast<uint32_t>(huge.size())),
            CkStatus::kInvalidArgument);

  // Read with a bogus signal address returns nothing.
  char buffer[8];
  EXPECT_EQ(channel.Read(api, 0x12345678, buffer, sizeof(buffer)), 0u);
}

TEST_F(MessagingTest, ChannelSlotsRotate) {
  ck::CkApi api = AppApi();
  uint32_t space = app_.CreateSpace(api);
  cksim::PhysAddr slot0 = app_.frames().Allocate();
  cksim::PhysAddr slot1 = app_.frames().Allocate();
  ASSERT_EQ(slot1, slot0 + cksim::kPageSize);

  class Collector : public ck::NativeProgram {
   public:
    explicit Collector(ckapp::MessageChannel& channel) : channel_(channel) {}
    ck::NativeOutcome Step(ck::NativeCtx&) override {
      ck::NativeOutcome outcome;
      outcome.action = ck::NativeOutcome::Action::kBlock;
      return outcome;
    }
    void OnSignal(cksim::VirtAddr addr, ck::NativeCtx& ctx) override {
      char buffer[32] = {0};
      uint32_t n = channel_.Read(ctx.api(), addr, buffer, sizeof(buffer));
      messages.emplace_back(buffer, n);
      slots.push_back(addr);
    }
    ckapp::MessageChannel& channel_;
    std::vector<std::string> messages;
    std::vector<cksim::VirtAddr> slots;
  };

  ckapp::MessageChannel channel;
  Collector collector(channel);
  uint32_t thread = app_.CreateNativeThread(api, space, &collector, 15);
  channel.ConfigureSender(app_, space, 0x00800000, slot0, 2);
  channel.ConfigureReceiver(app_, space, 0x00900000, slot0, 2, thread);
  ASSERT_EQ(channel.PrimeReceiver(api), CkStatus::kOk);

  // Three sends over two slots: slot sequence 0,1,0. Wait for each delivery
  // before reusing slots (a 2-slot ring has no flow control of its own).
  size_t sent = 0;
  for (const char* m : {"one", "two", "three"}) {
    ASSERT_EQ(channel.Send(api, m, static_cast<uint32_t>(strlen(m))), CkStatus::kOk);
    ++sent;
    ASSERT_TRUE(
        world_->RunUntil([&] { return collector.messages.size() >= sent; }, 200000));
  }
  EXPECT_EQ(collector.messages[0], "one");
  EXPECT_EQ(collector.messages[1], "two");
  EXPECT_EQ(collector.messages[2], "three");
  EXPECT_EQ(collector.slots[0], 0x00900000u);
  EXPECT_EQ(collector.slots[1], 0x00901000u);
  EXPECT_EQ(collector.slots[2], 0x00900000u) << "slot ring wraps";
}

TEST_F(MessagingTest, SignalQueueOverflowDropsAndCounts) {
  ck::CkApi api = AppApi();
  uint32_t space = app_.CreateSpace(api);
  cksim::PhysAddr frame = app_.frames().Allocate();

  // Receiver pinned to the sender's CPU: deliveries are synchronous, and the
  // receiver never gets a turn between them, so the burst lands in one go.
  SignalRecorder receiver;
  uint32_t receiver_thread = app_.CreateNativeThread(api, space, &receiver, 1, false, 0);
  app_.DefineFrameRegion(space, 0x00800000, 1, frame, true, true);
  app_.DefineFrameRegion(space, 0x00900000, 1, frame, false, true, receiver_thread);
  ASSERT_EQ(app_.EnsureMappingLoaded(api, space, 0x00800000), CkStatus::kOk);
  ASSERT_EQ(app_.EnsureMappingLoaded(api, space, 0x00900000), CkStatus::kOk);

  // Fire more signals than the per-thread queue depth before the receiver
  // can drain (they all land in one drain batch).
  for (int i = 0; i < 20; ++i) {
    ASSERT_EQ(api.Signal(app_.space(space).ck_id, 0x00800000), CkStatus::kOk);
  }
  world_->machine().RunFor(200000);
  const ck::CkStats& stats = world_->ck().stats();
  EXPECT_GT(stats.signals_dropped, 0u);
  EXPECT_LE(receiver.signals.size(), 20u);
  EXPECT_GE(receiver.signals.size(), 1u);
}

}  // namespace
