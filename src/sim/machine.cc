#include "src/sim/machine.h"

#include <algorithm>

namespace cksim {

Machine::Machine(const MachineConfig& config) : config_(config), memory_(config.memory_bytes) {
  for (uint32_t i = 0; i < config.cpu_count; ++i) {
    cpus_.push_back(std::make_unique<Cpu>(i, memory_, config_.cost));
  }
}

void Machine::EnableTracing(uint32_t capacity_per_cpu) {
  if (tracer_ != nullptr) {
    return;
  }
  tracer_ = std::make_unique<obs::Tracer>(cpu_count(), capacity_per_cpu);
  for (uint32_t i = 0; i < cpu_count(); ++i) {
    cpus_[i]->AttachTrace(&tracer_->ring(i));
  }
}

bool Machine::DeliverDoorbell(PhysAddr addr, Cycles when) {
  for (Device* device : devices_) {
    if (addr >= device->region_base() && addr < device->region_base() + device->region_size()) {
      device->OnDoorbell(addr, when);
      return true;
    }
  }
  return false;
}

Cycles Machine::Now() const {
  Cycles now = ~Cycles{0};
  for (const auto& cpu : cpus_) {
    if (cpu->clock() < now) {
      now = cpu->clock();
    }
  }
  return now;
}

bool Machine::Step() {
  if (client_ == nullptr || halted_) {
    return false;
  }

  // Earliest device event vs. earliest CPU.
  Cycles device_at = Device::kNoEvent;
  Device* due_device = nullptr;
  for (Device* device : devices_) {
    Cycles at = device->NextEventAt();
    if (at < device_at) {
      device_at = at;
      due_device = device;
    }
  }

  Cpu* next_cpu = cpus_[0].get();
  for (auto& cpu : cpus_) {
    if (cpu->clock() < next_cpu->clock()) {
      next_cpu = cpu.get();
    }
  }

  if (due_device != nullptr && device_at <= next_cpu->clock()) {
    due_device->Run(device_at);
    return true;
  }

  Cycles before = next_cpu->clock();
  client_->OnCpuTurn(*next_cpu);
  if (next_cpu->clock() == before) {
    // The kernel made no progress (should not happen; idle advances). Force
    // time forward so the simulation cannot livelock.
    next_cpu->Advance(config_.cost.idle_tick);
  }
  return true;
}

Cycles Machine::Horizon() const {
  Cycles horizon = run_deadline_;
  for (const Device* device : devices_) {
    horizon = std::min(horizon, device->NextEventAt());
  }
  return horizon;
}

void Machine::RunUntil(Cycles deadline) {
  const Cycles outer = run_deadline_;
  run_deadline_ = deadline;
  while (!halted_ && Now() < deadline) {
    if (!Step()) {
      break;
    }
  }
  run_deadline_ = outer;
}

}  // namespace cksim
