// File-server application kernel: an in-memory versioned file store served
// over memory-based messaging (docs/FILESERVICE.md).
//
// The Cache Kernel keeps no file abstraction; "OS services such as ... file
// service are provided by server application kernels" (section 3). This
// kernel is that server: it holds a flat namespace of (fileid, version)
// files and serves open/read/readdir over one RPC endpoint per client
// fiber-channel link, shipping page contents on the link's bulk streaming
// path. Files change only through WriteLocal, which bumps the file's version
// and pushes best-effort kOpInvalidate notifications to the registered
// clients -- the client-side version check is what actually guarantees
// staleness is caught (src/fs/client_cache.h).

#ifndef SRC_FS_FILE_SERVER_H_
#define SRC_FS_FILE_SERVER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/appkernel/channel.h"
#include "src/fs/fs_protocol.h"
#include "src/sim/devices.h"

namespace ckfs {

struct FsServerStats {
  uint64_t opens = 0;
  uint64_t reads = 0;          // read RPCs served
  uint64_t pages_shipped = 0;  // bulk payloads sent
  uint64_t writes = 0;
  uint64_t readdirs = 0;
  uint64_t invalidations_sent = 0;
  uint64_t bad_requests = 0;
};

class FileServerKernel : public ckapp::AppKernelBase {
 public:
  explicit FileServerKernel(ck::CacheKernel& ck);
  ~FileServerKernel() override;

  // Create or replace a file (pre-run population). Returns its fileid.
  // Fileids are dense, starting at 1.
  uint32_t AddFile(const std::string& name, std::vector<uint8_t> bytes);

  // The one way a file changes: applies bytes, bumps the version and -- when
  // `api` is non-null -- pushes invalidations to every registered client.
  bool WriteLocal(uint32_t fileid, uint32_t offset, const void* data, uint32_t len,
                  ck::CkApi* api);

  // Create the server's (locked) address space. Call once, before the first
  // AttachClient.
  void Setup(ck::CkApi& api);

  // Wire one client link: configures an outbound channel over the device's
  // transmit slots and an inbound channel over its reception ring, creates
  // the link's RPC endpoint and its (locked) endpoint thread, and primes the
  // receiver mappings. Returns the link index.
  uint32_t AttachClient(ck::CkApi& api, cksim::FiberChannelDevice* device);

  uint32_t link_count() const { return static_cast<uint32_t>(links_.size()); }
  ckapp::RpcEndpoint& link_endpoint(uint32_t link) { return *links_[link]->endpoint; }

  const FsServerStats& fs_stats() const { return stats_; }
  uint32_t file_count() const { return static_cast<uint32_t>(files_.size()); }
  uint32_t file_version(uint32_t fileid) const;
  uint32_t file_size(uint32_t fileid) const;
  const std::string& file_name(uint32_t fileid) const;

 private:
  struct FileRec {
    std::string name;
    uint32_t version = 1;
    std::vector<uint8_t> bytes;
  };

  struct ClientLink {
    cksim::FiberChannelDevice* device = nullptr;
    ckapp::MessageChannel out;
    ckapp::MessageChannel in;
    std::unique_ptr<ckapp::RpcEndpoint> endpoint;
    uint32_t endpoint_thread = 0;
    bool registered = false;  // receives invalidation pushes
  };

  FileRec* Find(uint32_t fileid);
  const FileRec* Find(uint32_t fileid) const;

  std::vector<uint8_t> Serve(uint32_t link_index, uint32_t op,
                             const std::vector<uint8_t>& request, ck::CkApi& api);
  std::vector<uint8_t> ServeOpen(const std::vector<uint8_t>& request);
  std::vector<uint8_t> ServeRead(uint32_t link_index, const std::vector<uint8_t>& request,
                                 ck::CkApi& api);
  std::vector<uint8_t> ServeReaddir(const std::vector<uint8_t>& request);

  // Push kOpInvalidate for `fileid` to every registered link.
  void PushInvalidations(ck::CkApi& api, uint32_t fileid);

  ck::CacheKernel& ck_;
  uint32_t space_index_ = 0;
  bool setup_done_ = false;
  std::vector<FileRec> files_;  // fileid - 1 indexes this
  std::vector<std::unique_ptr<ClientLink>> links_;
  FsServerStats stats_;
};

}  // namespace ckfs

#endif  // SRC_FS_FILE_SERVER_H_
