// Replacement-policy engine types (docs/POLICY_VM.md).
//
// The paper's thesis is that policy lives in application kernels while the
// Cache Kernel caches mechanism. The Cache Kernel's one built-in victim scan
// is clock (ObjectCache::ReclaimClock); any other policy is an application
// kernel's own guest program:
//
//   * VictimFeatures is the fixed per-candidate feature vector a guest policy
//     program sees -- laid out as 8 little-endian u32 words, the exact
//     read-only memory window the program reads.
//   * PolicyTable is the per-application-kernel policy state: one optional
//     guest policy program (CKVM words, run sandboxed -- src/isa/sandbox.h)
//     per descriptor-cache type. It lives in the app kernel
//     (AppKernel::policy_table), is installed through the LoadPolicy Cache
//     Kernel operation, and rides CaptureExtra/RestoreExtra through
//     checkpoint, migration and failover.
//
// The scan machinery that consumes these lives in src/ck/object_cache.h
// (ReclaimScored) and CacheKernel::ReclaimWithPolicy.

#ifndef SRC_CK_POLICY_H_
#define SRC_CK_POLICY_H_

#include <cstdint>
#include <vector>

#include "src/ck/objects.h"

namespace ck {

// Per-candidate features, in guest window order (docs/POLICY_VM.md). The
// guest policy VM maps exactly these 8 words read-only at kPolicyFeatureBase;
// a program can address nothing else, which is what confines it to scoring
// the descriptors the Cache Kernel chooses to show it.
struct VictimFeatures {
  uint32_t slot = 0;           // word 0: candidate slot / record index
  uint32_t age = 0;            // word 1: load_clock - load_seq, saturated
  uint32_t hw_ref = 0;         // word 2: hardware referenced bit (peeked)
  uint32_t soft_ref = 0;       // word 3: always 1 (kept for the layout)
  uint32_t load_seq_low = 0;   // word 4: low 32 bits of the load stamp
  uint32_t state_class = 0;    // word 5: per-type state (threads: 0 blocked,
                               //         1 ready/halted, 2 running)
  uint32_t owner_is_self = 0;  // word 6: always 1 (a program sees only its
                               //         kernel's own descriptors)
  uint32_t object_type = 0;    // word 7: ck::ObjectType of the scan
};

inline constexpr uint32_t kPolicyFeatureWords = 8;

// Guest policy program contract (docs/POLICY_VM.md): code is mapped at
// kPolicyCodeBase, the feature window at kPolicyFeatureBase; the program
// computes a score into a0 and executes halt. Lower score = better victim.
inline constexpr uint32_t kPolicyCodeBase = 0x00000000u;
inline constexpr uint32_t kPolicyFeatureBase = 0x00001000u;
inline constexpr uint32_t kMaxPolicyProgramWords = 256;

// Why a guest-policy scan abandoned its program and fell back to clock.
// Values appear as the arg32 of kPolicyFallback trace events and are kept
// stable across versions, so 0 stays unassigned.
enum class PolicyFallback : uint8_t {
  kFault = 1,        // program faulted (bad access, trap) in the sandbox
  kBudget = 2,       // per-scan step budget exhausted
  kNoCandidate = 3,  // no unpinned candidate owned by the requester
};

// One app kernel's loaded guest policy program for one descriptor type.
struct GuestPolicy {
  bool enabled = false;
  std::vector<uint32_t> words;  // CKVM instructions at kPolicyCodeBase
};

// Per-application-kernel policy state (see file header). Owned by the app
// kernel; the Cache Kernel reaches it through AppKernel::policy_table() at
// reclaim time and never retains a pointer across calls.
struct PolicyTable {
  GuestPolicy guest[kObjectTypeCount];
};

}  // namespace ck

#endif  // SRC_CK_POLICY_H_
