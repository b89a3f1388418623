// Command-line observability session for benches and examples.
//
// ObsSession gives every binary the same observability flags:
//
//   --trace=<file>        enable per-CPU event tracing and write a Chrome
//                         trace_event JSON file on Finish() (load it in
//                         chrome://tracing or https://ui.perfetto.dev). With
//                         several attached machines the traces merge into one
//                         document, one process per machine, and causal span
//                         ids render cross-machine RPC/migration as flow
//                         arrows between processes.
//   --trace-depth=<n>     per-CPU ring capacity in events (default 65536)
//   --metrics             dump the metrics registry (counters + latency
//                         histograms) to stdout on Finish()
//   --metrics-out=<file>  write the registry in Prometheus-style text
//                         exposition format to <file> on Finish()
//   --profile[=<cycles>]  enable the guest-PC sampling profiler (default
//                         period 50000 cycles = 2 ms at 25 MHz). Histograms
//                         are embedded in the trace file under "ckProfile".
//   --flight-recorder=<dir>  arm the crash flight recorder: on a fatal fault
//                         (or any event reported via DumpFlightRecord) each
//                         attached machine dumps its last trace-ring events,
//                         a metrics snapshot and its CkStats into
//                         <dir>/flight-m<i>-<reason>.ckfr (CRC-framed, see
//                         src/obs/flight_recorder.h)
//
// The flags only observe: none of them changes simulated state. Execution
// and policy choices (the fast path, tiering, replacement programs) are
// CacheKernelConfig fields and CkApi operations, not flags.
//
// Unknown `--` flags are rejected with a usage message and exit code 2 (a
// typo like --metrics-ot=f must not silently run unobserved). Binaries
// with flags of their own list them in `passthrough`; anything there (prefix
// match) is left in argv untouched, as are non-flag arguments and the
// --gtest_*/--benchmark_* families.
//
// Usage:
//   ck::ObsSession obs(argc, argv, {"--serial"});
//   cksim::Machine machine(...);
//   ck::CacheKernel ck(machine, config);
//   obs.Attach(machine, &ck);
//   ... run ...
//   obs.Finish();
//
// Attach may be called once per machine of a cluster: tracing, the profiler
// and the fatal-fault hook apply to every attached machine, while metrics
// registration keeps the PR-1 first-attach-wins rule (the registry's flat
// names would collide across kernels). When no flag is given, Attach() and
// Finish() are no-ops and the simulation runs unobserved (the CK_TRACE ring
// pointer stays null).

#ifndef SRC_CK_OBSERVABILITY_H_
#define SRC_CK_OBSERVABILITY_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sim/types.h"

namespace cksim {
class Machine;
}

namespace ck {

class CacheKernel;

class ObsSession {
 public:
  // Consumes the observability flags from argv (compacting it so the
  // binary's own argument parsing never sees them). `passthrough` lists the
  // binary's own flags (exact strings or prefixes like "--steps="); any
  // other `--` argument prints usage to stderr and exits with code 2.
  ObsSession(int& argc, char** argv, std::initializer_list<const char*> passthrough = {});

  // Enables tracing on the machine (if --trace was given), arms the profiler
  // and the fatal-fault flight-recorder hook (if requested), and registers
  // the kernel's metrics (first attach only). Call once per machine; calling
  // again with an already-attached machine is a no-op.
  void Attach(cksim::Machine& machine, CacheKernel* kernel);

  // True if `machine` is one this session attached (and Finish has not run
  // yet). Lets the machine's owner flush the session before dying.
  bool attached(const cksim::Machine& machine) const;

  // Writes the trace file (all attached machines merged, profiler histograms
  // embedded) and/or dumps metrics, then detaches. One-shot: call it before
  // the traced machines / registered kernel are destroyed; later calls are
  // no-ops. Safe to call when nothing was enabled.
  void Finish();

  // Dump a flight record for every attached machine into the
  // --flight-recorder directory (no-op when the flag was not given). Wired
  // automatically to each kernel's fatal-fault hook; call it directly from
  // SRM event hooks (restore preflight failures, failover) or anywhere else
  // a post-mortem snapshot is warranted.
  void DumpFlightRecord(const std::string& reason);

  bool metrics() const { return metrics_; }
  obs::Registry& registry() { return registry_; }

 private:
  struct Attached {
    cksim::Machine* machine = nullptr;
    CacheKernel* kernel = nullptr;
  };

  std::string trace_path_;
  uint32_t trace_depth_ = 1u << 16;
  bool metrics_ = false;
  std::string metrics_out_;
  cksim::Cycles profile_period_ = 0;
  std::string flight_dir_;
  std::vector<Attached> attached_;
  obs::Registry registry_;
};

}  // namespace ck

#endif  // SRC_CK_OBSERVABILITY_H_
