// Simulated devices, all speaking memory-based messaging (section 2.2).
//
// Devices expose memory regions in physical memory. To transmit, a client
// thread writes a packet into a transmit slot and signals the slot's address
// (the doorbell). On reception the device copies the packet into a receive
// slot and generates a signal on that physical address, which the Cache
// Kernel routes to whichever thread registered a signal mapping for it --
// "data transfer and signaling is then handled using the general Cache Kernel
// memory-based messaging mechanism".
//
//   * ClockDevice        -- periodic timer signal on its tick page.
//   * FiberChannelDevice -- the 266 Mb point-to-point interconnect; the
//                           paper's driver was 276 lines because the device
//                           fits the messaging model directly.
//   * EthernetDevice     -- a hub-connected NIC with one-byte destination
//                           addressing; the "non-trivial driver" case.
//
// Packet wire format inside a slot: u32 length, then payload bytes.

#ifndef SRC_SIM_DEVICES_H_
#define SRC_SIM_DEVICES_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/sim/machine.h"
#include "src/sim/types.h"

namespace cksim {

// Periodic timer. Generates a signal on its single tick page every
// `period` cycles once started.
class ClockDevice : public Device {
 public:
  ClockDevice(PhysAddr tick_page, SignalSink* sink) : tick_page_(tick_page), sink_(sink) {}

  void Start(Cycles first_tick, Cycles period) {
    next_tick_ = first_tick;
    period_ = period;
  }
  void Stop() { next_tick_ = kNoEvent; }

  PhysAddr tick_page() const { return tick_page_; }

  PhysAddr region_base() const override { return tick_page_; }
  uint32_t region_size() const override { return kPageSize; }
  Cycles NextEventAt() const override { return next_tick_; }
  void Run(Cycles now) override;
  void OnDoorbell(PhysAddr addr, Cycles when) override;

  uint64_t ticks_delivered() const { return ticks_; }

 private:
  PhysAddr tick_page_;
  SignalSink* sink_;
  Cycles next_tick_ = kNoEvent;
  Cycles period_ = 0;
  uint64_t ticks_ = 0;
};

// Shared plumbing for packet devices: slot management and delivery queues.
class PacketDevice : public Device {
 public:
  // Region layout: tx_slots pages of transmit buffers followed by rx_slots
  // pages of receive buffers, starting at `base` in this machine's memory.
  PacketDevice(PhysicalMemory& memory, SignalSink* sink, PhysAddr base, uint32_t tx_slots,
               uint32_t rx_slots, Cycles wire_latency);

  // Keeps the machine pointer for causal tracing: sends allocate span ids
  // from the machine's deterministic counter and deliveries land kIpcRecv
  // events on the machine's trace ring. Unattached devices (unit tests)
  // simply emit span id 0 and no events.
  void OnAttached(Machine& machine) override { machine_ = &machine; }

  PhysAddr region_base() const override { return base_; }
  uint32_t region_size() const override { return (tx_slots_ + rx_slots_) * kPageSize; }

  PhysAddr tx_slot(uint32_t i) const { return base_ + i * kPageSize; }
  PhysAddr rx_slot(uint32_t i) const { return base_ + (tx_slots_ + i) * kPageSize; }
  uint32_t tx_slot_count() const { return tx_slots_; }
  uint32_t rx_slot_count() const { return rx_slots_; }

  Cycles NextEventAt() const override;
  void Run(Cycles now) override;
  void OnDoorbell(PhysAddr addr, Cycles when) override;

  // Base latency a packet spends on the wire. For cross-machine links this is
  // the conservative-PDES lookahead: no send made at time t can be observed
  // by the peer before t + wire_latency().
  Cycles wire_latency() const { return wire_latency_; }

  uint64_t packets_sent() const { return sent_; }
  uint64_t packets_received() const { return received_; }
  uint64_t packets_dropped() const { return dropped_; }

  // Inject a packet for local delivery at `when` (called by the peer device
  // or the hub). `span` is the sender-allocated causal span id (0 = none);
  // it travels out-of-band beside the payload -- a trace header that costs
  // no simulated wire bytes, so enabling tracing cannot shift packet timing.
  void EnqueueInbound(std::vector<uint8_t> payload, Cycles when, uint32_t span = 0);

 protected:
  // Transmit a packet read out of a tx slot; implemented by the subclass
  // (point-to-point forward, or hub routing). `span` is the causal span id
  // OnDoorbell allocated for this send (0 when no machine is attached).
  virtual void Transmit(std::vector<uint8_t> payload, Cycles when, uint32_t span) = 0;

  // Allocate a span id from the attached machine (0 if unattached).
  uint32_t AllocSpan();
  // The attached machine's trace ring for device events (CPU 0's ring), or
  // nullptr when unattached / tracing disabled.
  obs::TraceRing* TraceRing() const;

  PhysicalMemory& memory_;
  SignalSink* sink_;
  Cycles wire_latency_;
  Machine* machine_ = nullptr;

 private:
  struct Inbound {
    std::vector<uint8_t> payload;
    Cycles due;
    uint32_t span = 0;
  };

  PhysAddr base_;
  uint32_t tx_slots_;
  uint32_t rx_slots_;
  uint32_t next_rx_ = 0;
  std::deque<Inbound> inbound_;
  uint64_t sent_ = 0;
  uint64_t received_ = 0;
  uint64_t dropped_ = 0;
};

// Point-to-point fiber channel link. Connect() wires two endpoints (usually
// on different machines).
class FiberChannelDevice : public PacketDevice {
 public:
  using PacketDevice::PacketDevice;

  static void Connect(FiberChannelDevice& a, FiberChannelDevice& b) {
    a.peer_ = &b;
    b.peer_ = &a;
  }

  // ---- deferred cross-machine delivery (cluster mode) ----
  // When deferred (set by Cluster::Link), Transmit/SendBulk stage deliveries
  // in a local outbox instead of touching the peer's queues, so the two
  // endpoint machines can run on different host threads without sharing any
  // mutable state mid-window. Due times are computed at send time, so
  // delivery timing in simulated cycles is unchanged; Cluster drains the
  // outboxes at window barriers, always before the peer's clock can reach
  // the earliest staged due time (window <= lookahead).
  void set_deferred_delivery(bool on) { deferred_ = on; }
  bool deferred_delivery() const { return deferred_; }

  // Move staged entries into the peer's inbound queues, preserving their
  // send-time-stamped due times. Call only while neither endpoint's machine
  // is running (a window barrier). Returns the number of entries delivered.
  size_t FlushOutbox();

  // Insert a bulk payload into this device's inbound bulk queue, ordered by
  // due time (senders' clocks can be skewed). `span` as in EnqueueInbound.
  void EnqueueBulkInbound(std::vector<uint8_t> payload, Cycles due, uint32_t span = 0);

  // ---- bulk streaming (checkpoint migration, file service) ----
  // Ship an arbitrary-size payload to the peer, bypassing the page-sized
  // packet slots: models the driver's scatter-gather streaming mode for
  // whole-image transfers. The blob becomes available to the peer's
  // PollBulk once the wire latency plus serialization time (the 266 Mb/s
  // link moves ~4/3 bytes per 25 MHz cycle) has elapsed. Transfers
  // serialize on the link FIFO: a bulk send issued while an earlier one is
  // still on the wire starts serializing only when the wire frees up, so
  // deliveries always arrive in send order -- a short payload can never
  // overtake a long one sent before it (zero-length payloads are legal and
  // occupy the wire for zero cycles). `span` carries an existing causal
  // span id (an SRM migration span); 0 allocates a fresh one.
  void SendBulk(std::vector<uint8_t> payload, Cycles when, uint32_t span = 0);
  // Claim the oldest delivered bulk payload, if one is due by `now`. `span`
  // (if non-null) receives the sender's causal span id.
  bool PollBulk(std::vector<uint8_t>* out, Cycles now, uint32_t* span = nullptr);
  // The earliest due time in the bulk queue, kNoEvent when it is empty: no
  // PollBulk before it claims anything. Within a Machine::RunUntil only a
  // CPU of this machine can add to the queue (cross-machine deliveries land
  // at window barriers, outside it).
  Cycles NextBulkDue() const {
    return bulk_inbound_.empty() ? kNoEvent : bulk_inbound_.front().due;
  }

  // Cycles a payload of `bytes` occupies the wire (excludes base latency).
  static Cycles BulkWireCycles(size_t bytes) {
    return static_cast<Cycles>((bytes * 3 + 3) / 4);
  }

  uint64_t bulk_sent() const { return bulk_sent_; }
  uint64_t bulk_received() const { return bulk_received_; }
  uint64_t bulk_bytes_received() const { return bulk_bytes_received_; }

 protected:
  void Transmit(std::vector<uint8_t> payload, Cycles when, uint32_t span) override;

 private:
  struct BulkInbound {
    std::vector<uint8_t> payload;
    Cycles due;
    uint32_t span = 0;
  };
  struct Outbound {
    std::vector<uint8_t> payload;
    Cycles due;
    bool bulk;
    uint32_t span = 0;
  };

  FiberChannelDevice* peer_ = nullptr;
  std::deque<BulkInbound> bulk_inbound_;
  std::deque<Outbound> outbox_;
  // Send-side link FIFO: simulated time until which the outbound wire is
  // occupied serializing earlier bulk payloads. Updated at SendBulk time
  // (sender-local, single-threaded within a window), so deferred and
  // immediate delivery compute identical due times.
  Cycles bulk_wire_busy_until_ = 0;
  bool deferred_ = false;
  uint64_t bulk_sent_ = 0;
  uint64_t bulk_received_ = 0;
  uint64_t bulk_bytes_received_ = 0;
};

// Hub connecting any number of EthernetDevices. Destination is the first
// payload byte (0xff broadcasts).
class EthernetHub;

class EthernetDevice : public PacketDevice {
 public:
  EthernetDevice(PhysicalMemory& memory, SignalSink* sink, PhysAddr base, uint32_t tx_slots,
                 uint32_t rx_slots, Cycles wire_latency, uint8_t station)
      : PacketDevice(memory, sink, base, tx_slots, rx_slots, wire_latency), station_(station) {}

  uint8_t station() const { return station_; }

 protected:
  void Transmit(std::vector<uint8_t> payload, Cycles when, uint32_t span) override;

 private:
  friend class EthernetHub;
  EthernetHub* hub_ = nullptr;
  uint8_t station_;
};

class EthernetHub {
 public:
  void Attach(EthernetDevice* device) {
    device->hub_ = this;
    stations_.push_back(device);
  }

  void Route(std::vector<uint8_t> payload, Cycles when, uint8_t from_station,
             uint32_t span = 0);

 private:
  std::vector<EthernetDevice*> stations_;
};

// Simulated stable store: a dual-ported NVRAM module on the interconnect
// that survives MPM failures (the crash-failover substrate). Keyed blobs
// with size-proportional access cost; the caller charges the returned cycles
// to whichever CPU drives the transfer. Deliberately not a Device: it has no
// event loop or doorbell protocol, and -- the point -- it is shared between
// machines, so a surviving SRM can read checkpoints a dead MPM wrote.
class StableStore {
 public:
  explicit StableStore(Cycles base_latency = 2500 /* 100 us */)
      : base_latency_(base_latency) {}

  // Overwrites any previous blob under `key`. Returns the simulated cost.
  Cycles Put(const std::string& key, std::vector<uint8_t> blob);
  // Copies the blob under `key` into `out`; false if absent. `cost` (if
  // non-null) receives the simulated read cost.
  bool Get(const std::string& key, std::vector<uint8_t>* out, Cycles* cost = nullptr) const;
  bool Contains(const std::string& key) const { return blobs_.count(key) != 0; }

  uint64_t puts() const { return puts_; }
  uint64_t gets() const { return gets_; }
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  Cycles TransferCost(size_t bytes) const {
    // Same 266 Mb/s interconnect model as the fiber channel bulk path.
    return base_latency_ + static_cast<Cycles>((bytes * 3 + 3) / 4);
  }

  Cycles base_latency_;
  std::map<std::string, std::vector<uint8_t>> blobs_;
  uint64_t puts_ = 0;
  mutable uint64_t gets_ = 0;
  uint64_t bytes_written_ = 0;
};

}  // namespace cksim

#endif  // SRC_SIM_DEVICES_H_
