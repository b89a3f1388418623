// Wire protocol of the distributed cached file service (docs/FILESERVICE.md).
//
// The paper moves file service out of the kernel into application kernels
// (section 3: "application kernels as servers"); this protocol is what the
// file-server kernel (src/fs/file_server.h) and the client page caches
// (src/fs/client_cache.h) speak over one fiber-channel link per client:
//
//   * control plane: object-oriented RPC (ckapp::RpcEndpoint) over the
//     link's packet slots -- open/read/readdir/register from the client,
//     invalidate pushes from the server. Both directions share one
//     reception ring, demultiplexed by the RPC reply bit.
//   * data plane: page contents ship over the link's bulk streaming path
//     (FiberChannelDevice::SendBulk), one payload per page, each prefixed
//     with a BulkPageHeader naming the (fileid, version, page) it carries.
//     A 4 KiB page plus headers does not fit a 4 KiB message slot (the DSM
//     kernel fragments instead); the bulk path is the scatter-gather
//     streaming mode a real file server would use anyway.
//
// Files are named by a (fileid, version) pair -- the qid/qid.vers analogue
// of 9front's mount cache. Every write on the server (FileServerKernel::
// WriteLocal) bumps the version, so a client can validate cached pages by
// comparing versions and drop stale bitmaps without re-reading data.
//
// All wire structs are little-endian PODs, memcpy'd on and off the wire.

#ifndef SRC_FS_FS_PROTOCOL_H_
#define SRC_FS_FS_PROTOCOL_H_

#include <cstdint>
#include <cstring>
#include <vector>

namespace ckfs {

// RPC operation codes (request direction in parentheses).
inline constexpr uint32_t kOpOpen = 0x0f01;        // client -> server
inline constexpr uint32_t kOpRead = 0x0f03;        // client -> server
inline constexpr uint32_t kOpReaddir = 0x0f05;     // client -> server
inline constexpr uint32_t kOpRegister = 0x0f06;    // client -> server
inline constexpr uint32_t kOpInvalidate = 0x0f07;  // server -> client

// Register reply: the client's link number, counting from 1.
struct FileIdMsg {
  uint32_t fileid = 0;
};

// Open request payload is the file name's bytes. Open reply: status != 0
// means the lookup failed and the other fields are meaningless.
struct AttrReply {
  uint32_t fileid = 0;
  uint32_t version = 0;
  uint32_t size = 0;  // bytes
  uint32_t status = 0;
};

// Read request: fetch `pages` pages starting at `first_page`. The server
// clamps the range to the file's current extent, acks with a ReadReply, and
// ships each granted page as one bulk payload (BulkPageHeader + bytes).
struct ReadRequest {
  uint32_t fileid = 0;
  uint32_t first_page = 0;
  uint32_t pages = 1;
};

struct ReadReply {
  uint32_t fileid = 0;
  uint32_t version = 0;  // version the granted pages will carry
  uint32_t size = 0;     // current file size (keeps client attrs fresh)
  uint32_t first_page = 0;
  uint32_t granted = 0;  // pages actually shipped (0: range beyond EOF)
};

// Readdir request/reply: a window of the (flat) namespace. Each entry is a
// DirEntry followed by name_len name bytes; `count` entries fit whatever the
// message slot allows.
struct ReaddirRequest {
  uint32_t start = 0;
  uint32_t max_entries = 16;
};

struct ReaddirReplyHeader {
  uint32_t count = 0;
  uint32_t total = 0;  // files in the namespace
};

struct DirEntry {
  uint32_t fileid = 0;
  uint32_t version = 0;
  uint32_t size = 0;
  uint32_t name_len = 0;
};

// Server -> client invalidation push: `fileid` is now at `version`; drop any
// valid-page bitmap cached under an older version.
struct InvalidateMsg {
  uint32_t fileid = 0;
  uint32_t version = 0;
};

// Header embedded at the front of every bulk page payload.
inline constexpr uint32_t kBulkMagic = 0x636b4653;  // "ckFS"

struct BulkPageHeader {
  uint32_t magic = kBulkMagic;
  uint32_t fileid = 0;
  uint32_t version = 0;
  uint32_t page = 0;
  uint32_t len = 0;  // payload bytes (< page size for the file's tail page)
};

// POD <-> wire helpers.
template <typename T>
void AppendPod(std::vector<uint8_t>& wire, const T& value) {
  const size_t at = wire.size();
  wire.resize(at + sizeof(T));
  std::memcpy(wire.data() + at, &value, sizeof(T));
}

template <typename T>
bool ReadPod(const std::vector<uint8_t>& wire, size_t offset, T* out) {
  if (wire.size() < offset + sizeof(T)) {
    return false;
  }
  std::memcpy(out, wire.data() + offset, sizeof(T));
  return true;
}

}  // namespace ckfs

#endif  // SRC_FS_FS_PROTOCOL_H_
