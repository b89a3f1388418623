#include "src/ck/observability.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/ck/cache_kernel.h"
#include "src/ckpt/serializer.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/flight_recorder.h"
#include "src/sim/machine.h"
#include "src/sim/types.h"

namespace ck {

namespace {

// Default --profile period: 50000 cycles = 2 ms at the simulated 25 MHz.
constexpr cksim::Cycles kDefaultProfilePeriod = 50000;

// Flag families that are never ours and never an error: test/bench runners
// consume these after us.
constexpr const char* kBuiltinPassthrough[] = {"--gtest_", "--benchmark_"};

void PrintUsage(const char* prog, const std::vector<std::string>& passthrough) {
  std::fprintf(stderr,
               "usage: %s [observability flags]\n"
               "  --trace=<file>           write a Chrome trace_event JSON file\n"
               "  --trace-depth=<n>        per-CPU trace ring capacity (default 65536)\n"
               "  --metrics                dump metrics to stdout at the end\n"
               "  --metrics-out=<file>     write Prometheus-style text exposition\n"
               "  --profile[=<cycles>]     sample guest PCs every <cycles> (default %llu)\n"
               "  --flight-recorder=<dir>  dump post-mortem records into <dir>\n",
               prog, static_cast<unsigned long long>(kDefaultProfilePeriod));
  if (!passthrough.empty()) {
    std::fprintf(stderr, "binary-specific flags:\n");
    for (const std::string& flag : passthrough) {
      std::fprintf(stderr, "  %s\n", flag.c_str());
    }
  }
}

// Sanitize a flight-record reason into a filename fragment.
std::string SanitizeReason(const std::string& reason) {
  std::string out;
  for (char c : reason) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
    out.push_back(ok ? c : '-');
  }
  if (out.size() > 48) {
    out.resize(48);
  }
  return out;
}

}  // namespace

ObsSession::ObsSession(int& argc, char** argv, std::initializer_list<const char*> passthrough) {
  std::vector<std::string> pass(passthrough.begin(), passthrough.end());
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--trace=", 8) == 0) {
      trace_path_ = arg + 8;
    } else if (std::strncmp(arg, "--trace-depth=", 14) == 0) {
      long depth = std::strtol(arg + 14, nullptr, 10);
      if (depth > 0) {
        trace_depth_ = static_cast<uint32_t>(depth);
      }
    } else if (std::strcmp(arg, "--metrics") == 0) {
      metrics_ = true;
    } else if (std::strncmp(arg, "--metrics-out=", 14) == 0) {
      metrics_out_ = arg + 14;
    } else if (std::strcmp(arg, "--profile") == 0) {
      profile_period_ = kDefaultProfilePeriod;
    } else if (std::strncmp(arg, "--profile=", 10) == 0) {
      long long period = std::strtoll(arg + 10, nullptr, 10);
      profile_period_ = period > 0 ? static_cast<cksim::Cycles>(period) : kDefaultProfilePeriod;
    } else if (std::strncmp(arg, "--flight-recorder=", 18) == 0) {
      flight_dir_ = arg + 18;
    } else if (std::strcmp(arg, "--help") == 0) {
      PrintUsage(argv[0], pass);
      std::exit(0);
    } else if (std::strncmp(arg, "--", 2) == 0) {
      // A flag, but not one of ours: keep it for the binary if it is listed
      // (or a builtin runner family), otherwise a typo'd observability flag
      // must not silently run with defaults.
      bool keep = false;
      for (const char* prefix : kBuiltinPassthrough) {
        if (std::strncmp(arg, prefix, std::strlen(prefix)) == 0) {
          keep = true;
        }
      }
      for (const std::string& flag : pass) {
        if (std::strncmp(arg, flag.c_str(), flag.size()) == 0) {
          keep = true;
        }
      }
      if (!keep) {
        std::fprintf(stderr, "%s: unknown flag %s\n", argv[0], arg);
        PrintUsage(argv[0], pass);
        std::exit(2);
      }
      argv[out++] = argv[i];
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
}

void ObsSession::Attach(cksim::Machine& machine, CacheKernel* kernel) {
  for (const Attached& a : attached_) {
    if (a.machine == &machine) {
      return;
    }
  }
  bool first = attached_.empty();
  attached_.push_back(Attached{&machine, kernel});
  if (!trace_path_.empty()) {
    machine.EnableTracing(trace_depth_);
  }
  if (kernel == nullptr) {
    return;
  }
  if ((metrics_ || !metrics_out_.empty()) && first) {
    kernel->RegisterMetrics(registry_);
  }
  if (profile_period_ != 0) {
    kernel->set_profile_period(profile_period_);
  }
  if (!flight_dir_.empty()) {
    kernel->set_fatal_hook([this](const std::string& reason) { DumpFlightRecord(reason); });
  }
}

bool ObsSession::attached(const cksim::Machine& machine) const {
  for (const Attached& a : attached_) {
    if (a.machine == &machine) {
      return true;
    }
  }
  return false;
}

void ObsSession::DumpFlightRecord(const std::string& reason) {
  if (flight_dir_.empty() || attached_.empty()) {
    return;
  }
  // Metrics snapshot, shared by every machine's record (the registry is
  // session-global).
  std::string metrics_text;
  {
    char* buf = nullptr;
    size_t len = 0;
    std::FILE* mem = open_memstream(&buf, &len);
    if (mem != nullptr) {
      registry_.WriteText(mem);
      std::fclose(mem);
      metrics_text.assign(buf, len);
      std::free(buf);
    }
  }
  std::string suffix = SanitizeReason(reason);
  for (size_t i = 0; i < attached_.size(); ++i) {
    const Attached& a = attached_[i];
    // CkStats is a flat array of u64 counters; frame it as one so the record
    // survives layout growth (older decoders read a shorter prefix).
    std::vector<uint8_t> stats_blob;
    if (a.kernel != nullptr) {
      const CkStats& stats = a.kernel->stats();
      static_assert(sizeof(CkStats) % sizeof(uint64_t) == 0, "CkStats must be u64 counters");
      const uint64_t* words = reinterpret_cast<const uint64_t*>(&stats);
      uint32_t count = sizeof(CkStats) / sizeof(uint64_t);
      ckckpt::Writer w;
      w.U32(count);
      for (uint32_t k = 0; k < count; ++k) {
        w.U64(words[k]);
      }
      stats_blob = w.Take();
    }
    std::vector<uint8_t> record = obs::EncodeFlightRecord(
        reason, a.machine->Now(), a.machine->tracer(), /*last_n_per_cpu=*/256, metrics_text,
        stats_blob);
    std::string path = flight_dir_ + "/flight-m" + std::to_string(i) + "-" + suffix + ".ckfr";
    if (obs::WriteFlightRecordFile(path, record)) {
      std::fprintf(stderr, "[obs] flight record (%s) -> %s\n", reason.c_str(), path.c_str());
    } else {
      std::fprintf(stderr, "[obs] FAILED to write flight record to %s\n", path.c_str());
    }
  }
}

void ObsSession::Finish() {
  if (!trace_path_.empty()) {
    std::vector<obs::MachineTrace> machines;
    for (size_t i = 0; i < attached_.size(); ++i) {
      if (attached_[i].machine->tracer() != nullptr) {
        obs::MachineTrace mt;
        mt.tracer = attached_[i].machine->tracer();
        mt.pid = static_cast<uint32_t>(i);
        mt.name = "machine " + std::to_string(i);
        machines.push_back(mt);
      }
    }
    // Profiler histograms ride in the trace file as an extra top-level key
    // (Chrome ignores unknown keys).
    std::string extra;
    if (profile_period_ != 0) {
      extra = "\"ckProfile\":{\"period\":" + std::to_string(profile_period_) +
              ",\"machines\":[";
      bool first_machine = true;
      for (size_t i = 0; i < attached_.size(); ++i) {
        const CacheKernel* kernel = attached_[i].kernel;
        if (kernel == nullptr) {
          continue;
        }
        if (!first_machine) {
          extra += ",";
        }
        first_machine = false;
        extra += "{\"machine\":" + std::to_string(i) +
                 ",\"samples\":" + std::to_string(kernel->profile_samples_total()) +
                 ",\"kernels\":{";
        bool first_slot = true;
        const auto& pcs = kernel->profile_pcs();
        for (size_t slot = 0; slot < pcs.size(); ++slot) {
          if (pcs[slot].empty()) {
            continue;
          }
          if (!first_slot) {
            extra += ",";
          }
          first_slot = false;
          extra += '"';
          extra += std::to_string(slot);
          extra += "\":{";
          bool first_pc = true;
          for (const auto& [pc, count] : pcs[slot]) {
            if (!first_pc) {
              extra += ",";
            }
            first_pc = false;
            char key[16];
            std::snprintf(key, sizeof(key), "\"%" PRIu32 "\":", pc);
            extra += key;
            extra += std::to_string(count);
          }
          extra += "}";
        }
        extra += "}}";
      }
      extra += "]}";
    }
    if (!machines.empty()) {
      if (obs::WriteChromeTrace(machines, static_cast<double>(cksim::kCyclesPerMicrosecond),
                                trace_path_, extra)) {
        std::fprintf(stderr, "[obs] wrote trace to %s\n", trace_path_.c_str());
      } else {
        std::fprintf(stderr, "[obs] failed to write trace to %s\n", trace_path_.c_str());
      }
    }
  }
  if (metrics_) {
    std::printf("\n-- metrics --\n");
    registry_.DumpText(stdout);
  }
  if (!metrics_out_.empty()) {
    std::FILE* f = std::fopen(metrics_out_.c_str(), "w");
    if (f != nullptr) {
      registry_.WriteText(f);
      std::fclose(f);
      std::fprintf(stderr, "[obs] wrote metrics to %s\n", metrics_out_.c_str());
    } else {
      std::fprintf(stderr, "[obs] failed to write metrics to %s\n", metrics_out_.c_str());
    }
  }
  // Finish is a one-shot: the registry's callbacks and the machine pointers
  // reference objects the caller may destroy right after, so drop them.
  attached_.clear();
  trace_path_.clear();
  metrics_ = false;
  metrics_out_.clear();
  flight_dir_.clear();
  profile_period_ = 0;
  registry_ = obs::Registry();
}

}  // namespace ck
