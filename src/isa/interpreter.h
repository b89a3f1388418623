// CKVM interpreter.
//
// Executes guest instructions against a GuestBus, which the Cache Kernel
// implements by binding the running thread's address space to the CPU's MMU.
// Every instruction and memory access is charged simulated cycles through the
// bus; faults and traps terminate the run and are reported to the caller (the
// Cache Kernel dispatch loop), which forwards them per Figure 2.

#ifndef SRC_ISA_INTERPRETER_H_
#define SRC_ISA_INTERPRETER_H_

#include <cstdint>

#include "src/isa/isa.h"
#include "src/sim/types.h"

namespace ckisa {

struct FastPath;

// Architectural state of one guest thread (lives inside the Cache Kernel's
// thread descriptor; loaded/saved on thread load/writeback).
struct VmContext {
  uint32_t regs[32] = {0};
  uint32_t pc = 0;
};

// Memory interface the interpreter drives. Implementations translate through
// the simulated MMU and charge cycles to the executing CPU.
class GuestBus {
 public:
  virtual ~GuestBus() = default;

  struct MemResult {
    bool ok = false;
    uint32_t value = 0;       // for loads/fetches
    cksim::Fault fault;       // set when !ok
    bool message_write = false;  // store hit a message-mode page
  };

  // `width` is an access width from the instruction table: 4, or 1 (a byte
  // load zero-extends, a byte store writes the low byte of `value`).
  virtual MemResult Fetch(uint32_t vaddr) = 0;
  virtual MemResult Load(uint32_t vaddr, uint32_t width) = 0;
  virtual MemResult Store(uint32_t vaddr, uint32_t value, uint32_t width) = 0;

  // Charge non-memory execution cost (per instruction).
  virtual void ChargeInstruction() = 0;

  // A store hit a message-mode page: with the signal-on-write hardware
  // assist enabled, the kernel generates the address-valued signal here.
  virtual void OnMessageWrite(uint32_t vaddr) = 0;

  // Optional host-side acceleration and profiler hook (src/isa/fastpath.h).
  // With a trace cache in it the interpreter runs superblock traces and
  // batches their cycle charges; simulated results (cycle counts, TLB state,
  // faults, signals) are guaranteed identical to running everything through
  // the virtual methods.
  virtual FastPath* fast_path() { return nullptr; }
};

enum class RunEvent : uint8_t {
  kBudgetExhausted = 0,  // ran the full instruction budget, thread still runnable
  kTrap,                 // executed a trap instruction (trap number reported)
  kFault,                // memory/instruction fault (fault reported)
  kHalt,                 // executed halt
};

struct RunResult {
  RunEvent event = RunEvent::kBudgetExhausted;
  uint32_t instructions = 0;
  uint16_t trap_number = 0;
  cksim::Fault fault;
};

// Run up to `budget` instructions. On kTrap, pc has been advanced past the
// trap instruction (the handler resumes after it). On kFault, pc still points
// at the faulting instruction so it re-executes after the mapping is loaded.
RunResult Run(VmContext& ctx, GuestBus& bus, uint32_t budget);

}  // namespace ckisa

#endif  // SRC_ISA_INTERPRETER_H_
