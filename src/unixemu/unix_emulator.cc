#include "src/unixemu/unix_emulator.h"

#include <algorithm>

#include "src/ckpt/serializer.h"

namespace ckunix {

using ck::CkApi;
using ck::HandlerAction;
using ck::TrapAction;
using ckbase::CkStatus;
using cksim::VirtAddr;

// Per-processor scheduling thread: "the UNIX emulator per-processor
// scheduling thread wakes up on each rescheduling interval, adjusts the
// priorities of other threads to enforce its policies, and goes back to
// sleep" (section 2.3). It is loaded at high priority and locked so it is
// assured of running.
class UnixEmulator::SchedulerProgram : public ck::NativeProgram {
 public:
  SchedulerProgram(UnixEmulator& emu, uint32_t cpu) : emu_(emu), cpu_(cpu) {}

  void set_thread_index(uint32_t index) { thread_index_ = index; }

  ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
    CkApi& api = ctx.api();
    api.Charge(api.kernel().machine().cost().app_handler_base);
    bool reloaded_one = false;

    // Age compute-bound processes down, restore blocked/interactive ones.
    for (auto& proc : emu_.processes_) {
      if (proc->state != Process::State::kRunnable) {
        continue;
      }
      ckapp::ThreadRec& rec = emu_.thread(proc->thread_index);
      if (rec.native != nullptr || rec.finished) {
        continue;
      }
      if (!rec.loaded && !proc->swapped) {
        // The Cache Kernel reclaimed this runnable process's descriptor to
        // make room (the caching model at work). Reload it so the process
        // keeps making progress -- but admit at most ONE per tick per
        // processor, or the reloads just evict each other (swap thrash).
        if (rec.cpu_hint == cpu_ && !reloaded_one) {
          reloaded_one = true;
          emu_.EnsureThreadLoaded(api, proc->thread_index);
        }
        continue;
      }
      if (!rec.loaded) {
        continue;
      }
      ckbase::Result<ck::ThreadState> state = api.kernel().GetThreadState(rec.ck_id);
      if (!state.ok()) {
        continue;
      }
      // Per-processor scheduling: this thread belongs to another CPU's
      // scheduler (otherwise the replicas fight over priorities).
      ckbase::Result<uint32_t> on_cpu = api.kernel().GetThreadCpu(rec.ck_id);
      if (!on_cpu.ok() || on_cpu.value() != cpu_) {
        continue;
      }
      // Compute-bound detection: consumed a big slice of the interval since
      // the last tick without blocking.
      ckbase::Result<cksim::Cycles> live = api.kernel().GetThreadCpuConsumed(rec.ck_id);
      uint64_t consumed = rec.total_consumed + (live.ok() ? live.value() : 0);
      uint64_t last = proc->thread_index < emu_.last_consumed_.size()
                          ? emu_.last_consumed_[proc->thread_index]
                          : 0;
      bool compute_bound = state.value() != ck::ThreadState::kBlocked &&
                           consumed - last > emu_.config_.sched_interval / 4;
      if (proc->thread_index >= emu_.last_consumed_.size()) {
        emu_.last_consumed_.resize(proc->thread_index + 1, 0);
      }
      emu_.last_consumed_[proc->thread_index] = consumed;

      uint8_t target = compute_bound ? emu_.config_.batch_priority
                                     : emu_.config_.default_priority;
      if (rec.priority != target) {
        rec.priority = target;
        api.SetThreadPriority(rec.ck_id, target);
      }
    }

    // Back to sleep until the next rescheduling interval.
    ck::ThreadId self = ctx.self_thread();
    api.ScheduleAfter(emu_.config_.sched_interval,
                      [self](CkApi& later) { later.ResumeThread(self); });
    ck::NativeOutcome outcome;
    outcome.action = ck::NativeOutcome::Action::kBlock;
    return outcome;
  }

 private:
  UnixEmulator& emu_;
  uint32_t cpu_;
  uint32_t thread_index_ = 0;
};

UnixEmulator::UnixEmulator(ck::CacheKernel& ck, const UnixConfig& config)
    : ckapp::AppKernelBase("unix-emulator", config.backing_pages, config.backing_latency),
      config_(config),
      ck_(ck) {}

UnixEmulator::~UnixEmulator() = default;

void UnixEmulator::Start(CkApi& api) {
  if (!config_.run_scheduler_thread) {
    return;
  }
  // The emulator's own (kernel) space hosts its internal threads.
  uint32_t kernel_space = CreateSpace(api, /*locked=*/true);
  for (uint32_t c = 0; c < ck_.machine().cpu_count(); ++c) {
    auto sched = std::make_unique<SchedulerProgram>(*this, c);
    uint32_t index = CreateNativeThread(api, kernel_space, sched.get(),
                                        /*priority=*/30, /*locked=*/true,
                                        /*cpu_hint=*/static_cast<uint8_t>(c));
    sched->set_thread_index(index);
    scheduler_threads_.push_back(index);
    schedulers_.push_back(std::move(sched));
  }
}

int UnixEmulator::Exec(CkApi& api, const ckisa::Program& program, uint8_t priority) {
  auto proc = std::make_unique<Process>();
  proc->pid = static_cast<int>(processes_.size()) + 1;

  // New address space; program text+data from backing store on demand;
  // zero-fill stack and heap-to-come.
  proc->space_index = CreateSpace(api);
  LoadProgramImage(proc->space_index, program, /*writable=*/true);
  DefineZeroRegion(proc->space_index, config_.stack_top - config_.stack_pages * cksim::kPageSize,
                   config_.stack_pages, /*writable=*/true);
  proc->brk = config_.heap_base;

  ckapp::GuestThreadParams params;
  params.space_index = proc->space_index;
  params.entry = program.base;
  params.stack_top = config_.stack_top - 16;
  params.priority = priority != 0 ? priority : config_.default_priority;
  // Home processor: reloads stay on one CPU so exactly one scheduler thread
  // owns this process (per-processor scheduling, section 2.3).
  params.cpu_hint = static_cast<uint8_t>((proc->pid - 1) % ck_.machine().cpu_count());
  proc->thread_index = CreateGuestThread(api, params);

  processes_.push_back(std::move(proc));
  return static_cast<int>(processes_.size());
}

bool UnixEmulator::AllExited() const {
  for (const auto& proc : processes_) {
    if (proc->state != Process::State::kZombie) {
      return false;
    }
  }
  return !processes_.empty();
}

Process* UnixEmulator::ProcessOfThread(uint64_t thread_cookie) {
  for (auto& proc : processes_) {
    if (proc->thread_index == thread_cookie) {
      return proc.get();
    }
  }
  return nullptr;
}

TrapAction UnixEmulator::HandleTrap(const ck::TrapForward& trap, CkApi& api) {
  TrapAction action;
  Process* proc = ProcessOfThread(trap.thread_cookie);
  if (proc == nullptr) {
    action.action = HandlerAction::kTerminate;
    return action;
  }
  proc->syscalls++;
  total_syscalls_++;
  const cksim::CostModel& cost = ck_.machine().cost();

  switch (trap.number) {
    case kSysGetPid:
      // The stable UNIX pid, independent of Cache Kernel identifiers.
      action.has_return_value = true;
      action.return_value = static_cast<uint32_t>(proc->pid);
      break;

    case kSysExit:
      proc->state = Process::State::kZombie;
      proc->exit_code = static_cast<int>(trap.args[0]);
      NotifyExit(*proc, api);
      action.action = HandlerAction::kTerminate;
      break;

    case kSysWrite: {
      uint32_t len = std::min<uint32_t>(trap.args[1], 4096);
      std::vector<char> buf(len);
      if (len > 0 && ReadGuest(api, proc->space_index, trap.args[0], buf.data(), len)) {
        proc->console.append(buf.data(), len);
        api.Charge(cost.mem_word * (len / 4 + 1));
        action.has_return_value = true;
        action.return_value = len;
      } else {
        action.has_return_value = true;
        action.return_value = static_cast<uint32_t>(-1);
      }
      break;
    }

    case kSysSbrk: {
      uint32_t pages = trap.args[0];
      uint32_t old_brk = proc->brk;
      if (pages > 0 && pages < 65536) {
        DefineZeroRegion(proc->space_index, proc->brk, pages, /*writable=*/true);
        proc->brk += pages * cksim::kPageSize;
      }
      action.has_return_value = true;
      action.return_value = old_brk;
      break;
    }

    case kSysSleep: {
      cksim::Cycles duration =
          static_cast<cksim::Cycles>(trap.args[0]) * cksim::kCyclesPerMicrosecond;
      proc->state = Process::State::kSleeping;
      proc->sleep_until = api.now() + duration;
      int pid = proc->pid;
      ckapp::ThreadRec& rec = thread(proc->thread_index);
      if (duration >= kUnloadSleepThreshold) {
        // Long sleep: block, then unload the descriptor entirely -- it
        // consumes no Cache Kernel resources while sleeping (section 2.3).
        api.BlockThread(rec.ck_id);
        UnloadThreadByIndex(api, proc->thread_index);
        api.ScheduleAfter(duration, [this, pid](CkApi& later) { FinishSleep(later, pid); });
        action.action = HandlerAction::kBlock;  // thread already gone; no-op
      } else {
        api.ScheduleAfter(duration, [this, pid](CkApi& later) { FinishSleep(later, pid); });
        action.action = HandlerAction::kBlock;
      }
      break;
    }

    case kSysNice: {
      uint8_t priority = static_cast<uint8_t>(
          std::min<uint32_t>(trap.args[0], config_.default_priority));
      ckapp::ThreadRec& rec = thread(proc->thread_index);
      rec.priority = priority;
      api.SetThreadPriority(rec.ck_id, priority);
      action.has_return_value = true;
      action.return_value = priority;
      break;
    }

    case kSysSigSegv:
      proc->segv_handler = trap.args[0];
      action.has_return_value = true;
      action.return_value = 0;
      break;

    case kSysGetTime:
      action.has_return_value = true;
      action.return_value =
          static_cast<uint32_t>(api.now() / cksim::kCyclesPerMicrosecond);
      break;

    case kSysSpawn: {
      uint32_t index = trap.args[0];
      if (index >= registered_programs_.size()) {
        action.has_return_value = true;
        action.return_value = static_cast<uint32_t>(-1);
        break;
      }
      int child = Exec(api, registered_programs_[index]);
      action.has_return_value = true;
      action.return_value = static_cast<uint32_t>(child);
      break;
    }

    case kSysWaitPid: {
      int target = static_cast<int>(trap.args[0]);
      if (target < 1 || target > static_cast<int>(processes_.size())) {
        action.has_return_value = true;
        action.return_value = static_cast<uint32_t>(-1);
        break;
      }
      Process& child = process(target);
      if (child.state == Process::State::kZombie) {
        action.has_return_value = true;
        action.return_value = static_cast<uint32_t>(child.exit_code);
      } else {
        child.waiters.push_back(proc->pid);
        action.action = HandlerAction::kBlock;
      }
      break;
    }

    case kSysSend: {
      int dest = static_cast<int>(trap.args[0]);
      uint32_t len = std::min<uint32_t>(trap.args[2], 512);
      if (dest < 1 || dest > static_cast<int>(processes_.size())) {
        action.has_return_value = true;
        action.return_value = static_cast<uint32_t>(-1);
        break;
      }
      std::vector<uint8_t> message(len);
      if (len > 0 && !ReadGuest(api, proc->space_index, trap.args[1], message.data(), len)) {
        action.has_return_value = true;
        action.return_value = static_cast<uint32_t>(-1);
        break;
      }
      Process& receiver = process(dest);
      receiver.inbox.push_back(std::move(message));
      api.Charge(cost.mem_word * (len / 4 + 2));
      if (receiver.recv_blocked) {
        CompleteRecv(receiver, api);
      }
      action.has_return_value = true;
      action.return_value = len;
      break;
    }

    case kSysRecv: {
      proc->recv_buf = trap.args[0];
      proc->recv_max = std::min<uint32_t>(trap.args[1], 512);
      if (!proc->inbox.empty()) {
        // A message is already queued: deliver inline.
        std::vector<uint8_t> message = std::move(proc->inbox.front());
        proc->inbox.pop_front();
        uint32_t len =
            std::min<uint32_t>(static_cast<uint32_t>(message.size()), proc->recv_max);
        if (len > 0) {
          WriteGuest(api, proc->space_index, proc->recv_buf, message.data(), len);
        }
        action.has_return_value = true;
        action.return_value = len;
      } else {
        proc->recv_blocked = true;
        action.action = HandlerAction::kBlock;
      }
      break;
    }

    default:
      proc->state = Process::State::kZombie;
      proc->exit_code = -1;
      NotifyExit(*proc, api);
      action.action = HandlerAction::kTerminate;
      break;
  }
  return action;
}

void UnixEmulator::NotifyExit(Process& proc, CkApi& api) {
  for (int waiter_pid : proc.waiters) {
    Process& waiter = process(waiter_pid);
    if (waiter.state != Process::State::kRunnable) {
      continue;
    }
    ckapp::ThreadRec& rec = thread(waiter.thread_index);
    if (!rec.loaded) {
      rec.was_blocked = true;
      if (EnsureThreadLoaded(api, waiter.thread_index) != CkStatus::kOk) {
        continue;
      }
    }
    api.ResumeThread(rec.ck_id, /*has_return=*/true,
                     static_cast<uint32_t>(proc.exit_code));
  }
  proc.waiters.clear();
}

void UnixEmulator::CompleteRecv(Process& proc, CkApi& api) {
  if (!proc.recv_blocked || proc.inbox.empty()) {
    return;
  }
  std::vector<uint8_t> message = std::move(proc.inbox.front());
  proc.inbox.pop_front();
  proc.recv_blocked = false;
  uint32_t len = std::min<uint32_t>(static_cast<uint32_t>(message.size()), proc.recv_max);
  if (len > 0) {
    WriteGuest(api, proc.space_index, proc.recv_buf, message.data(), len);
  }
  ckapp::ThreadRec& rec = thread(proc.thread_index);
  if (!rec.loaded) {
    rec.was_blocked = true;
    if (EnsureThreadLoaded(api, proc.thread_index) != CkStatus::kOk) {
      return;
    }
  }
  api.ResumeThread(rec.ck_id, /*has_return=*/true, len);
}

void UnixEmulator::FinishSleep(CkApi& api, int pid) {
  Process& proc = process(pid);
  if (proc.state != Process::State::kSleeping) {
    return;
  }
  proc.state = Process::State::kRunnable;
  proc.sleep_until = 0;
  ckapp::ThreadRec& rec = thread(proc.thread_index);
  if (!rec.loaded) {
    // Reload the descriptor (~230us in the paper; charged by the load path)
    // and complete the blocked sleep syscall.
    rec.was_blocked = true;
    if (EnsureThreadLoaded(api, proc.thread_index) != CkStatus::kOk) {
      return;
    }
  }
  api.ResumeThread(rec.ck_id, /*has_return=*/true, /*return_value=*/0);
}

HandlerAction UnixEmulator::OnIllegalAccess(const ck::FaultForward& fault, CkApi& api) {
  Process* proc = ProcessOfThread(fault.thread_cookie);
  if (proc == nullptr) {
    return AppKernelBase::OnIllegalAccess(fault, api);
  }
  paging_stats_.illegal_accesses++;
  if (proc->segv_handler != 0) {
    // Deliver SEGV: resume the thread at the user-registered handler with
    // the faulting address as argument (section 2.1's alternative to loading
    // a mapping).
    if (api.RedirectThread(fault.thread, proc->segv_handler, fault.fault.address) ==
        CkStatus::kOk) {
      return HandlerAction::kResume;
    }
  }
  proc->state = Process::State::kZombie;
  proc->exit_code = -11;  // SIGSEGV
  proc->segv_fault = true;
  NotifyExit(*proc, api);
  return HandlerAction::kTerminate;
}

void UnixEmulator::OnGuestFinished(uint32_t thread_index, CkApi& api) {
  Process* proc = ProcessOfThread(thread_index);
  if (proc != nullptr && proc->state != Process::State::kZombie) {
    proc->state = Process::State::kZombie;
    proc->exit_code = 0;
    NotifyExit(*proc, api);
  }
}

void UnixEmulator::CaptureExtra(ckckpt::Writer& w, CkApi& api) {
  AppKernelBase::CaptureExtra(w, api);
  // Config fingerprint: the restored instance must be constructed with the
  // same policy knobs or its paging/scheduling behavior would silently
  // diverge from the captured kernel's.
  w.U32(config_.backing_pages);
  w.U64(config_.backing_latency);
  w.Bool(config_.async_paging);
  w.U8(config_.default_priority);
  w.U8(config_.batch_priority);
  w.U64(config_.sched_interval);
  w.Bool(config_.run_scheduler_thread);
  w.U32(config_.stack_pages);
  w.U32(config_.heap_base);
  w.U32(config_.stack_top);

  w.U64(total_syscalls_);
  w.U32(static_cast<uint32_t>(last_consumed_.size()));
  for (uint64_t consumed : last_consumed_) {
    w.U64(consumed);
  }
  w.U32(static_cast<uint32_t>(scheduler_threads_.size()));
  for (uint32_t index : scheduler_threads_) {
    w.U32(index);
  }

  w.U32(static_cast<uint32_t>(registered_programs_.size()));
  for (const ckisa::Program& prog : registered_programs_) {
    w.U32(prog.base);
    w.U32(static_cast<uint32_t>(prog.words.size()));
    for (uint32_t word : prog.words) {
      w.U32(word);
    }
    w.U32(static_cast<uint32_t>(prog.labels.size()));
    for (const auto& [name, addr] : prog.labels) {
      w.Str(name);
      w.U32(addr);
    }
  }

  w.U32(static_cast<uint32_t>(processes_.size()));
  for (const auto& proc : processes_) {
    w.U32(static_cast<uint32_t>(proc->pid));
    w.U8(static_cast<uint8_t>(proc->state));
    w.U32(static_cast<uint32_t>(proc->exit_code));
    w.Bool(proc->segv_fault);
    w.U32(proc->space_index);
    w.U32(proc->thread_index);
    w.U32(proc->brk);
    w.U32(proc->segv_handler);
    w.Str(proc->console);
    w.U64(proc->syscalls);
    w.Bool(proc->swapped);
    w.U32(static_cast<uint32_t>(proc->waiters.size()));
    for (int waiter : proc->waiters) {
      w.U32(static_cast<uint32_t>(waiter));
    }
    w.U32(static_cast<uint32_t>(proc->inbox.size()));
    for (const std::vector<uint8_t>& message : proc->inbox) {
      w.U32(static_cast<uint32_t>(message.size()));
      w.Bytes(message.data(), message.size());
    }
    w.Bool(proc->recv_blocked);
    w.U32(proc->recv_buf);
    w.U32(proc->recv_max);
    // Pending sleeps become a relative deadline: the ScheduleAfter callback
    // dies with the source machine and is re-armed against the target clock.
    cksim::Cycles remaining =
        proc->sleep_until > api.now() ? proc->sleep_until - api.now() : 0;
    w.U64(remaining);
  }
}

void UnixEmulator::RestoreExtra(ckckpt::Reader& r, CkApi& api) {
  AppKernelBase::RestoreExtra(r, api);
  if (!r.ok()) {
    return;
  }
  if (r.U32() != config_.backing_pages || r.U64() != config_.backing_latency ||
      r.Bool() != config_.async_paging || r.U8() != config_.default_priority ||
      r.U8() != config_.batch_priority || r.U64() != config_.sched_interval ||
      r.Bool() != config_.run_scheduler_thread || r.U32() != config_.stack_pages ||
      r.U32() != config_.heap_base || r.U32() != config_.stack_top) {
    r.Fail("unix emulator config mismatch between image and target instance");
    return;
  }
  if (!processes_.empty() || !schedulers_.empty()) {
    r.Fail("unix emulator target is not a fresh instance");
    return;
  }

  total_syscalls_ = r.U64();
  last_consumed_.assign(r.U32(), 0);
  for (uint64_t& consumed : last_consumed_) {
    consumed = r.U64();
  }
  std::vector<uint32_t> sched_indexes(r.U32(), 0);
  for (uint32_t& index : sched_indexes) {
    index = r.U32();
  }

  registered_programs_.clear();
  uint32_t program_count = r.U32();
  for (uint32_t i = 0; i < program_count && r.ok(); ++i) {
    ckisa::Program prog;
    prog.base = r.U32();
    prog.words.assign(r.U32(), 0);
    for (uint32_t& word : prog.words) {
      word = r.U32();
    }
    uint32_t label_count = r.U32();
    for (uint32_t l = 0; l < label_count && r.ok(); ++l) {
      std::string name = r.Str();
      prog.labels[name] = r.U32();
    }
    registered_programs_.push_back(std::move(prog));
  }

  uint32_t process_count = r.U32();
  for (uint32_t i = 0; i < process_count && r.ok(); ++i) {
    auto proc = std::make_unique<Process>();
    proc->pid = static_cast<int>(r.U32());
    proc->state = static_cast<Process::State>(r.U8());
    proc->exit_code = static_cast<int>(r.U32());
    proc->segv_fault = r.Bool();
    proc->space_index = r.U32();
    proc->thread_index = r.U32();
    proc->brk = r.U32();
    proc->segv_handler = r.U32();
    proc->console = r.Str();
    proc->syscalls = r.U64();
    proc->swapped = r.Bool();
    proc->waiters.assign(r.U32(), 0);
    for (int& waiter : proc->waiters) {
      waiter = static_cast<int>(r.U32());
    }
    uint32_t inbox_count = r.U32();
    for (uint32_t m = 0; m < inbox_count && r.ok(); ++m) {
      std::vector<uint8_t> message(r.U32());
      r.Bytes(message.data(), message.size());
      proc->inbox.push_back(std::move(message));
    }
    proc->recv_blocked = r.Bool();
    proc->recv_buf = r.U32();
    proc->recv_max = r.U32();
    cksim::Cycles remaining = r.U64();
    if (proc->state == Process::State::kSleeping) {
      // Re-arm the wakeup against this machine's clock. A deadline that
      // passed in flight fires on the next cycle.
      remaining = std::max<cksim::Cycles>(remaining, 1);
      proc->sleep_until = api.now() + remaining;
      int pid = proc->pid;
      api.ScheduleAfter(remaining, [this, pid](CkApi& later) { FinishSleep(later, pid); });
    }
    if (proc->thread_index >= thread_count() || proc->space_index >= space_count()) {
      r.Fail("process references a thread or space not in the image");
      return;
    }
    processes_.push_back(std::move(proc));
  }
  if (!r.ok()) {
    return;
  }

  // Recreate the per-processor scheduler threads: the native program objects
  // are host-side and cannot be serialized, so fresh ones rebind to the
  // restored (locked, high-priority) thread records.
  for (uint32_t index : sched_indexes) {
    if (index >= thread_count()) {
      r.Fail("scheduler thread index not in the image");
      return;
    }
    ckapp::ThreadRec& rec = thread(index);
    uint32_t cpu = std::min<uint32_t>(rec.cpu_hint, ck_.machine().cpu_count() - 1);
    auto sched = std::make_unique<SchedulerProgram>(*this, cpu);
    sched->set_thread_index(index);
    RebindNativeProgram(index, sched.get());
    // The ScheduleAfter that would have woken the blocked scheduler died
    // with the source machine; start it runnable so Step() re-arms it.
    rec.was_blocked = false;
    scheduler_threads_.push_back(index);
    schedulers_.push_back(std::move(sched));
  }
}

void UnixEmulator::OnSwappedIn(CkApi& api) {
  for (uint32_t index : scheduler_threads_) {
    ckapp::ThreadRec& rec = thread(index);
    // The ScheduleAfter wakeup armed before the swap names the old (stale)
    // thread id; restart the scheduler runnable so its Step() re-arms.
    rec.was_blocked = false;
    EnsureThreadLoaded(api, index);
  }
  for (const auto& proc : processes_) {
    if (proc->state == Process::State::kSleeping) {
      // Its FinishSleep wakeup names the old kernel id too: re-arm the rest
      // of the sleep, as RestoreExtra does. A passed deadline fires next cycle.
      cksim::Cycles remaining = proc->sleep_until > api.now() ? proc->sleep_until - api.now() : 1;
      proc->sleep_until = api.now() + remaining;
      int pid = proc->pid;
      api.ScheduleAfter(remaining, [this, pid](CkApi& later) { FinishSleep(later, pid); });
    }
    if (proc->state == Process::State::kZombie || proc->swapped) {
      continue;
    }
    ckapp::ThreadRec& rec = thread(proc->thread_index);
    if (!rec.finished) {
      EnsureThreadLoaded(api, proc->thread_index);
    }
  }
}

bool UnixEmulator::ShouldReloadOnRestore(uint32_t thread_index) {
  for (const auto& proc : processes_) {
    if (proc->thread_index == thread_index) {
      return !proc->swapped;
    }
  }
  return true;
}

void UnixEmulator::SwapOutProcess(CkApi& api, int pid) {
  Process& proc = process(pid);
  if (proc.state == Process::State::kZombie || proc.swapped) {
    return;
  }
  // Unload the thread, then the address space (all its mappings write back),
  // then page every resident frame out so the memory is reusable. A dirty
  // page with no swap left stays resident, and so do the pages behind it.
  UnloadThreadByIndex(api, proc.thread_index);
  ckapp::VSpace& sp = space(proc.space_index);
  if (sp.loaded) {
    api.UnloadSpace(sp.ck_id);
  }
  while (ckapp::PageRecord* page = sp.resident.Front()) {
    if (!EvictPage(api, proc.space_index, page->vaddr)) {
      break;
    }
  }
  proc.swapped = true;
}

void UnixEmulator::WakeProcess(CkApi& api, int pid) {
  Process& proc = process(pid);
  if (!proc.swapped) {
    return;
  }
  proc.swapped = false;
  // Reload the thread (which reloads the space); pages fault back in on
  // demand.
  EnsureThreadLoaded(api, proc.thread_index);
}

}  // namespace ckunix
