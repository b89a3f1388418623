#include "src/fs/file_server.h"

#include <cstring>

namespace ckfs {

using ck::CkApi;
using cksim::kPageSize;

namespace {

// Per-link virtual layout inside the server's space: each client link gets a
// 2 MiB window, outbound channel slots in the lower half, reception ring in
// the upper half.
constexpr cksim::VirtAddr kLinkVBase = 0x20000000;
constexpr cksim::VirtAddr kLinkVStride = 0x00200000;
constexpr cksim::VirtAddr kLinkInOffset = 0x00100000;

// Simulated CPU cost of staging one page from the store onto the wire.
constexpr cksim::Cycles kPageCopyCost = 200;

}  // namespace

FileServerKernel::FileServerKernel(ck::CacheKernel& ck)
    : ckapp::AppKernelBase("fs-server", /*backing_pages=*/64), ck_(ck) {}

FileServerKernel::~FileServerKernel() = default;

uint32_t FileServerKernel::AddFile(const std::string& name, std::vector<uint8_t> bytes) {
  for (uint32_t i = 0; i < files_.size(); ++i) {
    if (files_[i].name == name) {
      files_[i].bytes = std::move(bytes);
      files_[i].version++;
      return i + 1;
    }
  }
  files_.push_back(FileRec{name, 1, std::move(bytes)});
  return static_cast<uint32_t>(files_.size());
}

FileServerKernel::FileRec* FileServerKernel::Find(uint32_t fileid) {
  if (fileid == 0 || fileid > files_.size()) {
    return nullptr;
  }
  return &files_[fileid - 1];
}

const FileServerKernel::FileRec* FileServerKernel::Find(uint32_t fileid) const {
  if (fileid == 0 || fileid > files_.size()) {
    return nullptr;
  }
  return &files_[fileid - 1];
}

uint32_t FileServerKernel::file_version(uint32_t fileid) const {
  const FileRec* file = Find(fileid);
  return file != nullptr ? file->version : 0;
}

uint32_t FileServerKernel::file_size(uint32_t fileid) const {
  const FileRec* file = Find(fileid);
  return file != nullptr ? static_cast<uint32_t>(file->bytes.size()) : 0;
}

const std::string& FileServerKernel::file_name(uint32_t fileid) const {
  static const std::string kEmpty;
  const FileRec* file = Find(fileid);
  return file != nullptr ? file->name : kEmpty;
}

void FileServerKernel::Setup(CkApi& api) {
  space_index_ = CreateSpace(api, /*locked=*/true);
  setup_done_ = true;
}

uint32_t FileServerKernel::AttachClient(CkApi& api, cksim::FiberChannelDevice* device) {
  uint32_t link_index = static_cast<uint32_t>(links_.size());
  links_.push_back(std::make_unique<ClientLink>());
  ClientLink& link = *links_.back();
  link.device = device;
  link.endpoint = std::make_unique<ckapp::RpcEndpoint>(
      link.out, link.in,
      [this, link_index](uint32_t op, const std::vector<uint8_t>& request, CkApi& serve_api) {
        return Serve(link_index, op, request, serve_api);
      });
  link.endpoint_thread = CreateNativeThread(api, space_index_, link.endpoint.get(),
                                            /*priority=*/26, /*locked=*/true);

  cksim::VirtAddr out_vbase = kLinkVBase + link_index * kLinkVStride;
  cksim::VirtAddr in_vbase = out_vbase + kLinkInOffset;
  link.out.ConfigureSender(*this, space_index_, out_vbase, device->tx_slot(0),
                           device->tx_slot_count());
  link.in.ConfigureReceiver(*this, space_index_, in_vbase, device->rx_slot(0),
                            device->rx_slot_count(), link.endpoint_thread);
  link.in.PrimeReceiver(api);
  return link_index;
}

std::vector<uint8_t> FileServerKernel::Serve(uint32_t link_index, uint32_t op,
                                             const std::vector<uint8_t>& request, CkApi& api) {
  switch (op) {
    case kOpOpen:
      return ServeOpen(request);
    case kOpRead:
      return ServeRead(link_index, request, api);
    case kOpReaddir:
      return ServeReaddir(request);
    case kOpRegister: {
      links_[link_index]->registered = true;
      std::vector<uint8_t> reply;
      AppendPod(reply, FileIdMsg{link_index + 1});
      return reply;
    }
    default:
      ++stats_.bad_requests;
      return {};
  }
}

std::vector<uint8_t> FileServerKernel::ServeOpen(const std::vector<uint8_t>& request) {
  ++stats_.opens;
  std::string name(request.begin(), request.end());
  AttrReply attr;
  attr.status = 1;  // not found
  for (uint32_t i = 0; i < files_.size(); ++i) {
    if (files_[i].name == name) {
      attr = AttrReply{i + 1, files_[i].version, static_cast<uint32_t>(files_[i].bytes.size()),
                       0};
      break;
    }
  }
  std::vector<uint8_t> reply;
  AppendPod(reply, attr);
  return reply;
}

std::vector<uint8_t> FileServerKernel::ServeRead(uint32_t link_index,
                                                 const std::vector<uint8_t>& request,
                                                 CkApi& api) {
  ++stats_.reads;
  ReadRequest read;
  ReadReply ack;  // granted = 0 on any failure
  if (ReadPod(request, 0, &read)) {
    FileRec* file = Find(read.fileid);
    if (file != nullptr) {
      uint32_t size = static_cast<uint32_t>(file->bytes.size());
      uint32_t total_pages = (size + kPageSize - 1) / kPageSize;
      uint32_t first = read.first_page;
      uint32_t last = first + read.pages;  // exclusive
      if (last > total_pages) {
        last = total_pages;
      }
      ack.fileid = read.fileid;
      ack.version = file->version;
      ack.size = size;
      ack.first_page = first;
      ack.granted = last > first ? last - first : 0;
      // Ship each granted page as one bulk payload. The link FIFO keeps them
      // in order; the client validates each against its cached version.
      for (uint32_t page = first; page < first + ack.granted; ++page) {
        uint32_t offset = page * kPageSize;
        uint32_t len = size - offset < kPageSize ? size - offset : kPageSize;
        std::vector<uint8_t> payload;
        payload.reserve(sizeof(BulkPageHeader) + len);
        AppendPod(payload, BulkPageHeader{kBulkMagic, read.fileid, file->version, page, len});
        payload.insert(payload.end(), file->bytes.begin() + offset,
                       file->bytes.begin() + offset + len);
        links_[link_index]->device->SendBulk(std::move(payload), api.now());
        ++stats_.pages_shipped;
        api.Charge(kPageCopyCost);
      }
    }
  } else {
    ++stats_.bad_requests;
  }
  std::vector<uint8_t> reply;
  AppendPod(reply, ack);
  return reply;
}

bool FileServerKernel::WriteLocal(uint32_t fileid, uint32_t offset, const void* data,
                                  uint32_t len, CkApi* api) {
  FileRec* file = Find(fileid);
  if (file == nullptr) {
    return false;
  }
  if (offset + len > file->bytes.size()) {
    file->bytes.resize(offset + len, 0);
  }
  if (len > 0) {
    std::memcpy(file->bytes.data() + offset, data, len);
  }
  file->version++;
  ++stats_.writes;
  if (api != nullptr) {
    PushInvalidations(*api, fileid);
  }
  return true;
}

std::vector<uint8_t> FileServerKernel::ServeReaddir(const std::vector<uint8_t>& request) {
  ++stats_.readdirs;
  ReaddirRequest dir;
  if (!ReadPod(request, 0, &dir)) {
    ++stats_.bad_requests;
    dir = ReaddirRequest{0, 0};
  }
  // The reply must fit one message slot beneath the RPC header.
  constexpr size_t kReplyBudget =
      ckapp::MessageChannel::kMaxMessage - sizeof(ckapp::RpcHeader);
  std::vector<uint8_t> reply;
  ReaddirReplyHeader header;
  header.total = static_cast<uint32_t>(files_.size());
  AppendPod(reply, header);
  for (uint32_t i = dir.start; i < files_.size() && header.count < dir.max_entries; ++i) {
    const FileRec& file = files_[i];
    size_t need = sizeof(DirEntry) + file.name.size();
    if (reply.size() + need > kReplyBudget) {
      break;
    }
    AppendPod(reply, DirEntry{i + 1, file.version, static_cast<uint32_t>(file.bytes.size()),
                              static_cast<uint32_t>(file.name.size())});
    reply.insert(reply.end(), file.name.begin(), file.name.end());
    ++header.count;
  }
  std::memcpy(reply.data(), &header, sizeof(header));
  return reply;
}

void FileServerKernel::PushInvalidations(CkApi& api, uint32_t fileid) {
  const FileRec* file = Find(fileid);
  if (file == nullptr) {
    return;
  }
  std::vector<uint8_t> wire;
  AppendPod(wire, InvalidateMsg{fileid, file->version});
  for (uint32_t i = 0; i < links_.size(); ++i) {
    if (!links_[i]->registered) {
      continue;
    }
    links_[i]->endpoint->Call(api, kOpInvalidate, wire,
                              [](const std::vector<uint8_t>&, CkApi&) {});
    ++stats_.invalidations_sent;
  }
}

}  // namespace ckfs
