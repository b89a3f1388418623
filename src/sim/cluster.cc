#include "src/sim/cluster.h"

#include <algorithm>
#include <cassert>

namespace cksim {

Cluster::~Cluster() { StopWorkers(); }

uint32_t Cluster::AddMachine(Machine* machine) {
  // The pool's stripes are sized for the machine count; tear it down and let
  // the next parallel window rebuild it.
  StopWorkers();
  machines_.push_back(machine);
  uint32_t index = static_cast<uint32_t>(machines_.size() - 1);
  // Stamp the node id used in causal span ids; index order is already part
  // of the determinism contract, so span sequences match serial/parallel.
  machine->set_node_id(static_cast<uint8_t>(index));
  return index;
}

void Cluster::Link(FiberChannelDevice& a, FiberChannelDevice& b) {
  assert(a.wire_latency() > 0 && b.wire_latency() > 0 &&
         "zero wire latency admits no conservative window");
  FiberChannelDevice::Connect(a, b);
  a.set_deferred_delivery(true);
  b.set_deferred_delivery(true);
  links_.push_back(LinkRec{&a, &b});
}

Cycles Cluster::lookahead() const {
  Cycles lookahead = kNoLookahead;
  for (const LinkRec& link : links_) {
    lookahead = std::min(lookahead, link.a->wire_latency());
    lookahead = std::min(lookahead, link.b->wire_latency());
  }
  return lookahead;
}

Cycles Cluster::window() const {
  Cycles bound = lookahead();
  if (bound == kNoLookahead) {
    // No links: the machines share nothing, any window is safe. Keep
    // barriers sparse but the done-predicate responsive.
    bound = 1u << 20;
  }
  if (window_override_ > 0) {
    bound = std::min(bound, window_override_);
  }
  return std::max<Cycles>(bound, 1);
}

Cycles Cluster::Now() const {
  Cycles live_min = kNoLookahead;
  Cycles all_max = 0;
  for (const Machine* machine : machines_) {
    Cycles now = machine->Now();
    all_max = std::max(all_max, now);
    if (!machine->halted()) {
      live_min = std::min(live_min, now);
    }
  }
  return live_min != kNoLookahead ? live_min : all_max;
}

size_t Cluster::RunWindow(Cycles window_end) {
  const uint32_t helpers = parallel_ ? StartWorkers() : 0;
  if (helpers > 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      window_end_ = window_end;
      unfinished_ = helpers;
      ++start_generation_;
    }
    start_cv_.notify_all();
  }
  RunStripe(0, helpers + 1, window_end);
  if (helpers > 0) {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return unfinished_ == 0; });
  }

  // Barrier: exchange cross-machine deliveries in deterministic link order.
  // Every staged due time is >= window_end (send time >= window start, plus
  // at least the link's wire latency >= window size), so no receiver has run
  // past an exchanged event.
  size_t delivered = 0;
  for (const LinkRec& link : links_) {
    delivered += link.a->FlushOutbox();
    delivered += link.b->FlushOutbox();
  }
  ++windows_run_;
  return delivered;
}

void Cluster::RunUntil(Cycles deadline) {
  const Cycles window_size = window();
  while (true) {
    Cycles now = Now();
    if (now >= deadline) {
      return;
    }
    bool any_live = false;
    for (const Machine* machine : machines_) {
      any_live = any_live || !machine->halted();
    }
    if (!any_live) {
      return;
    }
    Cycles window_end = deadline - now < window_size ? deadline : now + window_size;
    size_t delivered = RunWindow(window_end);
    if (Now() == now && delivered == 0) {
      // No clock advanced and nothing crossed a link: no machine can make
      // progress (typically no kernel attached). Bail instead of spinning.
      return;
    }
  }
}

bool Cluster::RunUntilDone(const std::function<bool()>& done, Cycles max_duration) {
  const Cycles window_size = window();
  const Cycles start = Now();
  while (!done()) {
    Cycles now = Now();
    if (now - start >= max_duration) {
      return done();
    }
    bool any_live = false;
    for (const Machine* machine : machines_) {
      any_live = any_live || !machine->halted();
    }
    if (!any_live) {
      return done();
    }
    size_t delivered = RunWindow(now + window_size);
    if (Now() == now && delivered == 0) {
      return done();
    }
  }
  return true;
}

void Cluster::RunStripe(uint32_t first, uint32_t stride, Cycles window_end) {
  for (size_t i = first; i < machines_.size(); i += stride) {
    if (!machines_[i]->halted()) {
      machines_[i]->RunUntil(window_end);
    }
  }
}

uint32_t Cluster::StartWorkers() {
  // Queried once: this runs every window, and the query can read sysfs.
  static const uint32_t hardware = std::max(1u, std::thread::hardware_concurrency());
  const uint32_t threads = std::min(static_cast<uint32_t>(machines_.size()), hardware);
  const uint32_t helpers = threads > 1 ? threads - 1 : 0;
  if (workers_.size() == helpers) {
    return helpers;
  }
  StopWorkers();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = false;
  }
  // Each helper starts from the current generation, so it waits for the
  // next published window rather than mistaking an old one for new work.
  const uint64_t generation = start_generation_;
  workers_.reserve(helpers);
  for (uint32_t stripe = 1; stripe <= helpers; ++stripe) {
    workers_.emplace_back(
        [this, stripe, helpers, generation] { WorkerMain(stripe, helpers + 1, generation); });
  }
  return helpers;
}

void Cluster::StopWorkers() {
  if (workers_.empty()) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  workers_.clear();
}

void Cluster::WorkerMain(uint32_t stripe, uint32_t stride, uint64_t seen_generation) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    start_cv_.wait(lock,
                   [&] { return shutdown_ || start_generation_ != seen_generation; });
    if (shutdown_) {
      return;
    }
    seen_generation = start_generation_;
    Cycles window_end = window_end_;
    lock.unlock();

    RunStripe(stripe, stride, window_end);

    lock.lock();
    if (--unfinished_ == 0) {
      done_cv_.notify_one();
    }
  }
}

}  // namespace cksim
