#include "src/isa/fastpath.h"

namespace ckisa {

uint32_t BuildTrace(const FastPath& fp, uint16_t asid, uint32_t head_vpc, Trace& t) {
  t.head_vpc = head_vpc;
  t.asid = asid;
  t.step_count = 0;
  t.page_count = 0;
  t.acc_prefix[0] = 0;
  t.touch_prefix[0] = 0;
  for (uint32_t p = 0; p < Trace::kMaxPages; ++p) {
    t.last_fetch[0][p] = Trace::kNoFetch;
  }

  const uint32_t step_cost =
      static_cast<uint32_t>(fp.cost_tlb_hit + fp.cost_mem_word + fp.cost_instruction);
  const uint32_t data_cost = static_cast<uint32_t>(fp.cost_tlb_hit + fp.cost_mem_word);

  uint32_t pc = head_vpc;
  uint32_t count = 0;
  while (count < Trace::kMaxSteps) {
    if ((pc & 3u) != 0) {
      break;
    }
    uint32_t vpage = pc >> cksim::kPageShift;
    // Resolve the fetch page: reuse a recorded slot or validate a new one
    // against the live TLB. Probe has no simulated side effects, so an
    // abandoned build commits nothing.
    uint32_t slot = Trace::kMaxPages;
    for (uint32_t p = 0; p < t.page_count; ++p) {
      if (t.pages[p].vpage == vpage) {
        slot = p;
        break;
      }
    }
    if (slot == Trace::kMaxPages) {
      if (t.page_count == Trace::kMaxPages) {
        break;
      }
      int32_t idx = fp.tlb->Probe(asid, vpage);
      if (idx < 0) {
        break;
      }
      const cksim::TlbEntry& e = fp.tlb->EntryAt(static_cast<uint32_t>(idx));
      if (e.pframe >= fp.frame_count || fp.remote_frame_bits[e.pframe] != 0) {
        break;
      }
      slot = t.page_count++;
      t.pages[slot].vpage = vpage;
      t.pages[slot].pframe = e.pframe;
      t.pages[slot].generation = fp.mem->frame_generation(e.pframe);
    }

    Decoded d = Decode(
        fp.mem->ReadWord(cksim::FrameBase(t.pages[slot].pframe) | (pc & cksim::kPageOffsetMask)));

    TraceStep& s = t.steps[count];
    s.d = d;
    s.vpc = pc;
    s.page_slot = static_cast<uint8_t>(slot);
    s.flags = 0;

    // Classification from the instruction table. Traps, halts and jalr end
    // the trace (the executor computes the resume pc or target); so does an
    // undefined opcode, classed as a trap here (the executor faults it).
    const OpInfo* info = InfoOf(d.op);
    const OpClass cls = info != nullptr ? info->cls : OpClass::kTrap;
    const bool terminal = cls == OpClass::kTrap || cls == OpClass::kHalt || cls == OpClass::kJalr;
    // Static prediction: backward branches taken (loop closing, unrolls the
    // loop into the trace), forward not-taken; direct jumps followed.
    if (cls == OpClass::kBranch && d.imm < 0) {
      s.flags |= TraceStep::kPredictedTaken;
    }
    uint32_t next = pc + 4;
    if ((s.flags & TraceStep::kPredictedTaken) != 0 || cls == OpClass::kJal) {
      next = pc + 4 + static_cast<uint32_t>(d.imm) * 4;
    }
    // Only steps that can dirty r0 need the executor's post-op r0 clear.
    if ((cls == OpClass::kAlu || cls == OpClass::kLoad || cls == OpClass::kJal ||
         cls == OpClass::kJalr) &&
        d.rd == 0) {
      s.flags |= TraceStep::kWritesR0;
    }
    s.next_vpc = next;

    const uint32_t data = cls == OpClass::kLoad || cls == OpClass::kStore ? 1u : 0u;
    t.acc_prefix[count + 1] = t.acc_prefix[count] + step_cost + data * data_cost;
    t.touch_prefix[count + 1] = t.touch_prefix[count] + 1 + data;
    for (uint32_t p = 0; p < Trace::kMaxPages; ++p) {
      t.last_fetch[count + 1][p] = t.last_fetch[count][p];
    }
    t.last_fetch[count + 1][slot] = static_cast<uint8_t>(count);

    ++count;
    if (terminal) {
      break;
    }
    pc = next;
  }

  t.step_count = static_cast<uint16_t>(count);
  return count;
}

}  // namespace ckisa
