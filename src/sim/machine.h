// The simulated multiprocessor module (MPM) and its run loop.
//
// A Machine is one ParaDiGM MPM: a small number of CPUs, local physical
// memory, and devices, executing one Cache Kernel (section 3: "Each
// multiprocessor module is a self-contained unit ... executing its own copy
// of the Cache Kernel"). Multiple Machines connected by the simulated fiber
// channel model the multi-MPM configurations of Figures 4 and 5.
//
// Execution model: the machine repeatedly gives a turn to the CPU with the
// smallest local clock (ties to the lowest index), or services the earliest
// device event when it is due no later than that clock. The attached kernel
// decides what that CPU does with its turn and advances its clock. This is a
// conservative discrete-event simulation: cross-CPU interactions are
// timestamped and never observed before their time.
//
// Tickless idle: an idle CPU is modelled as advancing idle_tick cycles per
// turn. Inside RunUntil one turn may cover a whole idle stretch: the kernel
// jumps the CPU to the idle_tick grid point where the one-tick crawl would
// take its first turn that could see a change. Horizon() supplies the
// machine's share of that bound (the next device event and the RunUntil
// deadline); the kernel adds its own wake sources. The jump is bit-exact
// with the crawl. A bare Step() outside RunUntil has no horizon, because the
// caller may act between any two steps (lockstep multi-machine loops read
// clocks there), so its idle turn covers exactly one tick.

#ifndef SRC_SIM_MACHINE_H_
#define SRC_SIM_MACHINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/obs/trace.h"
#include "src/sim/cost.h"
#include "src/sim/cpu.h"
#include "src/sim/physmem.h"
#include "src/sim/types.h"

namespace cksim {

// Implemented by the Cache Kernel: the machine calls this when a CPU gets a
// turn. The implementation must advance cpu.clock() (dispatch a thread, run a
// quantum, handle a fault, or idle).
class MachineClient {
 public:
  virtual ~MachineClient() = default;
  virtual void OnCpuTurn(Cpu& cpu) = 0;
};

// Implemented by the Cache Kernel: devices deliver inbound data by signaling
// a physical address (memory-based messaging, section 2.2).
class SignalSink {
 public:
  virtual ~SignalSink() = default;
  virtual void SignalPhysical(PhysAddr addr, Cycles when) = 0;
};

class Machine;

// A device mapped into physical memory and driven by the machine clock.
class Device {
 public:
  virtual ~Device() = default;

  // Called by Machine::AttachDevice. Devices that emit trace events or
  // allocate causal span ids keep the pointer; the default ignores it.
  virtual void OnAttached(Machine& /*machine*/) {}

  // Physical range of the device's transmission (doorbell) region; a signal
  // delivered inside it is routed to OnDoorbell.
  virtual PhysAddr region_base() const = 0;
  virtual uint32_t region_size() const = 0;

  // Earliest pending internal event, or kNoEvent.
  static constexpr Cycles kNoEvent = ~Cycles{0};
  virtual Cycles NextEventAt() const = 0;

  // Process internal events due at or before `now`.
  virtual void Run(Cycles now) = 0;

  // A signal landed on `addr` inside the device region at time `when`.
  virtual void OnDoorbell(PhysAddr addr, Cycles when) = 0;
};

struct MachineConfig {
  uint32_t cpu_count = 4;                       // the MPM had four 68040s
  uint32_t memory_bytes = 16u << 20;            // local RAM + nearby memory module
  CostModel cost;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config);

  PhysicalMemory& memory() { return memory_; }
  const CostModel& cost() const { return config_.cost; }
  uint32_t cpu_count() const { return static_cast<uint32_t>(cpus_.size()); }
  Cpu& cpu(uint32_t i) { return *cpus_[i]; }

  void AttachKernel(MachineClient* client) { client_ = client; }

  // Devices are owned by the caller (examples own them; tests stack-allocate)
  // and must outlive the machine's run loop.
  void AttachDevice(Device* device) {
    devices_.push_back(device);
    device->OnAttached(*this);
  }

  // Route a signal on a device doorbell page. Returns true if a device
  // claimed the address.
  bool DeliverDoorbell(PhysAddr addr, Cycles when);

  // Earliest time across CPUs -- "now" for external observers.
  Cycles Now() const;

  // Run one turn (one CPU quantum or one device service). Returns false if
  // there is no attached kernel.
  bool Step();

  // Run until Now() >= deadline.
  void RunUntil(Cycles deadline);

  // The earliest clock at which anything other than this machine's CPU
  // turns can act: the next device event (it runs before a CPU turn at the
  // same clock) or the deadline of the RunUntil in progress (the caller acts
  // once it returns). 0 outside RunUntil: an idle turn then covers one tick.
  Cycles Horizon() const;

  // Run for `duration` cycles past the current Now().
  void RunFor(Cycles duration) { RunUntil(Now() + duration); }

  // Halted machines refuse turns; models an MPM hardware failure for the
  // fault-containment experiments.
  void Halt() { halted_ = true; }
  bool halted() const { return halted_; }

  // ---- causal span ids ----
  // Deterministic 32-bit span identifiers for causal tracing: the top byte is
  // this machine's node id (assigned by Cluster::AddMachine in cluster runs,
  // 0 otherwise), the low 24 bits a per-machine counter. Allocation order is
  // part of machine-local state, so serial and parallel cluster executions
  // allocate identical id sequences (the differential suite memcmp-checks
  // this). Id 0 is reserved for "no span".
  void set_node_id(uint8_t id) { node_id_ = id; }
  uint8_t node_id() const { return node_id_; }
  uint32_t AllocSpanId() {
    ++spans_allocated_;
    span_counter_ = (span_counter_ + 1) & 0x00ffffffu;
    if (span_counter_ == 0) {
      span_counter_ = 1;  // skip the reserved "no span" encoding on wrap
    }
    return (static_cast<uint32_t>(node_id_) << 24) | span_counter_;
  }
  uint64_t spans_allocated() const { return spans_allocated_; }

  // ---- tracing ----
  // Allocate one trace ring per CPU and start recording. Idempotent; until
  // called, trace_ring() returns nullptr and CK_TRACE emission is one null
  // test. `capacity_per_cpu` events are retained per CPU (oldest dropped).
  void EnableTracing(uint32_t capacity_per_cpu = 1u << 16);
  obs::Tracer* tracer() { return tracer_.get(); }
  obs::TraceRing* trace_ring(uint32_t cpu) {
    return tracer_ != nullptr ? &tracer_->ring(cpu) : nullptr;
  }

 private:
  MachineConfig config_;
  PhysicalMemory memory_;
  std::vector<std::unique_ptr<Cpu>> cpus_;
  std::vector<Device*> devices_;
  MachineClient* client_ = nullptr;
  Cycles run_deadline_ = 0;  // deadline of the RunUntil in progress, 0 outside
  bool halted_ = false;
  uint8_t node_id_ = 0;
  uint32_t span_counter_ = 0;
  uint64_t spans_allocated_ = 0;
  std::unique_ptr<obs::Tracer> tracer_;
};

}  // namespace cksim

#endif  // SRC_SIM_MACHINE_H_
