// CkptImage: the versioned on-wire/on-store container for one checkpointed
// application kernel.
//
// Layout (all little-endian):
//   u32 magic "CKPT"   u32 version   u32 record_count
//   record_count x { u16 type, u16 flags, u32 length, length bytes payload,
//                    u32 crc32(type|flags|length|payload) }
//
// Each record carries its own CRC so a single flipped byte anywhere --
// header, framing, or payload -- fails Parse() before any state is applied
// to a target kernel ("never load a partial kernel").

#ifndef SRC_CKPT_IMAGE_H_
#define SRC_CKPT_IMAGE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ckckpt {

enum class RecordType : uint16_t {
  kHeader = 1,         // kernel name, capture time, quiesce writeback counts
  kLaunchParams = 2,   // SRM resource grant needed to relaunch (srm.cc)
  kBackingMeta = 3,    // backing store geometry + allocators
  kBackingPage = 4,    // one non-zero backing-store page
  kSpace = 5,          // one VSpace: flags + every page record
  kPageContents = 6,   // contents of one resident owned frame
  kSharedFrame = 7,    // contents of a referenced non-owned frame (cow source)
  kThread = 8,         // one ThreadRec incl. saved register context
  kPagingStats = 9,    // cumulative paging counters
  kAppExtra = 10,      // subclass blob (process tables, query state, ...)
  kEnd = 11,           // explicit terminator (truncation detector)
};

struct CkptRecord {
  RecordType type = RecordType::kEnd;
  std::vector<uint8_t> payload;
};

class CkptImage {
 public:
  static constexpr uint32_t kMagic = 0x54504b43u;  // "CKPT"
  static constexpr uint32_t kVersion = 2;

  void Append(RecordType type, std::vector<uint8_t> payload) {
    records_.push_back(CkptRecord{type, std::move(payload)});
  }
  const std::vector<CkptRecord>& records() const { return records_; }
  // First record of `type`, or nullptr.
  const CkptRecord* Find(RecordType type) const;

  // Encode with framing and per-record CRCs.
  std::vector<uint8_t> Serialize() const;
  // Decode and verify every CRC. Returns false (with `error` set) on any
  // corruption; `out` is untouched on failure.
  static bool Parse(const std::vector<uint8_t>& bytes, CkptImage* out, std::string* error);

  // Serialized size in bytes (what migration ships / the store holds).
  size_t SizeBytes() const;

 private:
  std::vector<CkptRecord> records_;
};

}  // namespace ckckpt

#endif  // SRC_CKPT_IMAGE_H_
