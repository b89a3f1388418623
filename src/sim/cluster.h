// Conservative parallel-discrete-event driver for multi-MPM configurations.
//
// The paper's multi-MPM systems (Figures 4 and 5) are several self-contained
// modules, each running its own Cache Kernel, connected by fiber channel.
// Each Machine is already a sequential discrete-event simulation; the fiber
// channel's non-zero wire latency is exactly the lookahead a conservative
// parallel scheme needs: a packet sent at simulated time t cannot be observed
// by the peer before t + wire_latency. So the cluster runs every machine in
// bounded windows of at most `lookahead = min over links of wire_latency`
// cycles:
//
//   window k:   every machine runs RunUntil(window_end) independently
//               (parallel mode: spread over the host worker pool)
//   barrier:    cross-machine deliveries staged in per-link outboxes are
//               exchanged, carrying their send-time-stamped due times
//   advance:    window_end += window
//
// No machine ever observes an event before its simulated time, so the
// parallel execution is bit-exact against the single-threaded reference mode
// (set_parallel(false)), which runs the identical window protocol on the
// calling thread. tests/cluster_test.cc enforces this differentially over
// messaging, migration and failover; docs/PERFORMANCE.md derives the window
// bound.
//
// Thread-safety contract: during a window, a machine (and everything hanging
// off it: its Cache Kernel, app kernels, devices) is touched only by the one
// host thread that runs it; cluster-level state (outbox exchange, Now(), the
// caller's done-predicates, SRM calls such as Migrate/AcceptMigration/
// Checkpoint) is touched only between windows, on the coordinating thread.
// The barrier's mutex hand-off orders the two.

#ifndef SRC_SIM_CLUSTER_H_
#define SRC_SIM_CLUSTER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/sim/devices.h"
#include "src/sim/machine.h"
#include "src/sim/types.h"

namespace cksim {

class Cluster {
 public:
  Cluster() = default;
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Register a machine. Index order fixes the serial reference execution
  // order (and is therefore part of the determinism contract). Machines are
  // owned by the caller and must outlive the cluster.
  uint32_t AddMachine(Machine* machine);

  // Wire a <-> b (FiberChannelDevice::Connect), switch both endpoints to
  // deferred delivery and register the link for barrier exchange. Both
  // devices must have non-zero wire latency (zero lookahead admits no
  // conservative window). Call before running.
  void Link(FiberChannelDevice& a, FiberChannelDevice& b);

  // Host-parallel (default) vs single-threaded reference execution of the
  // identical window protocol. Switchable between runs, not mid-run.
  void set_parallel(bool on) { parallel_ = on; }
  bool parallel() const { return parallel_; }

  // Cap the window below the lookahead (diagnostics, the differential test's
  // window sweep). 0 restores the default (= lookahead). Values above the
  // lookahead are clamped: running past it would break conservativeness.
  void set_window(Cycles window) { window_override_ = window; }

  // Global lookahead: the minimum wire latency over all registered links
  // (kNoLookahead when no links are registered -- the machines are then
  // independent and windows are unbounded).
  static constexpr Cycles kNoLookahead = ~Cycles{0};
  Cycles lookahead() const;
  // Effective window actually used per round.
  Cycles window() const;

  // Earliest clock over non-halted machines ("now" for the cluster); the
  // latest clock if every machine has halted.
  Cycles Now() const;

  // Run windows until Now() >= deadline. Returns early if no machine can
  // make progress (all halted, or none has an attached kernel).
  void RunUntil(Cycles deadline);
  void RunFor(Cycles duration) { RunUntil(Now() + duration); }

  // Run windows until done() holds, checking at each barrier (where SRM
  // calls and guest-state reads are safe), for at most `max_duration`
  // simulated cycles. Returns done()'s final value.
  bool RunUntilDone(const std::function<bool()>& done, Cycles max_duration);

  uint32_t machine_count() const { return static_cast<uint32_t>(machines_.size()); }
  Machine& machine(uint32_t i) { return *machines_[i]; }
  uint64_t windows_run() const { return windows_run_; }

 private:
  struct LinkRec {
    FiberChannelDevice* a;
    FiberChannelDevice* b;
  };

  // One window: run every machine to `window_end` (on the worker pool or, in
  // reference mode, in machine order on the calling thread), then exchange
  // outboxes in link order. Returns the number of cross-machine deliveries.
  size_t RunWindow(Cycles window_end);
  // Run machines first, first + stride, first + 2 * stride, ... to window_end.
  void RunStripe(uint32_t first, uint32_t stride, Cycles window_end);
  // Size the pool for the current machine count; returns the helper count.
  uint32_t StartWorkers();
  void StopWorkers();
  void WorkerMain(uint32_t stripe, uint32_t stride, uint64_t seen_generation);

  std::vector<Machine*> machines_;
  std::vector<LinkRec> links_;
  bool parallel_ = true;
  Cycles window_override_ = 0;
  uint64_t windows_run_ = 0;

  // The simulator's only host parallelism: min(machines, hardware threads)
  // threads per window, counting the calling thread, which runs stripe 0
  // itself; helper k runs stripe k, so each machine stays on one host thread
  // for the pool's lifetime. Created lazily at the first parallel window and
  // rebuilt when a machine is added. The barrier is a generation-counted
  // mutex/condvar pair: the coordinator publishes window_end_ and bumps
  // start_generation_; helpers run their stripe and decrement unfinished_;
  // the coordinator, done with its own stripe, proceeds at zero.
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  uint64_t start_generation_ = 0;
  uint32_t unfinished_ = 0;
  Cycles window_end_ = 0;
  bool shutdown_ = false;
};

}  // namespace cksim

#endif  // SRC_SIM_CLUSTER_H_
