#include "store/live/ingest_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/binary_io.h"

namespace ganswer {
namespace store {
namespace live {

namespace {

constexpr uint8_t kOpDeleteBit = 1;
constexpr uint8_t kOpLiteralBit = 2;

std::string EncodeRecordPayload(uint64_t epoch,
                                const std::vector<rdf::UpdateOp>& ops) {
  BinaryWriter w;
  w.WriteU64(epoch);
  w.WriteVarint(ops.size());
  for (const rdf::UpdateOp& op : ops) {
    uint8_t flags = 0;
    if (op.is_delete) flags |= kOpDeleteBit;
    if (op.object_kind == rdf::TermKind::kLiteral) flags |= kOpLiteralBit;
    w.WriteU8(flags);
    w.WriteString(op.subject);
    w.WriteString(op.predicate);
    w.WriteString(op.object);
  }
  return w.Release();
}

Status DecodeRecordPayload(std::string_view payload, LogRecord* out) {
  BinaryReader r(payload);
  GANSWER_RETURN_NOT_OK(r.ReadU64(&out->epoch));
  uint64_t count = 0;
  GANSWER_RETURN_NOT_OK(r.ReadCount(&count));
  out->ops.clear();
  out->ops.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    rdf::UpdateOp op;
    uint8_t flags = 0;
    GANSWER_RETURN_NOT_OK(r.ReadU8(&flags));
    op.is_delete = (flags & kOpDeleteBit) != 0;
    op.object_kind = (flags & kOpLiteralBit) != 0 ? rdf::TermKind::kLiteral
                                                  : rdf::TermKind::kIri;
    GANSWER_RETURN_NOT_OK(r.ReadString(&op.subject));
    GANSWER_RETURN_NOT_OK(r.ReadString(&op.predicate));
    GANSWER_RETURN_NOT_OK(r.ReadString(&op.object));
    out->ops.push_back(std::move(op));
  }
  if (r.remaining() != 0) {
    return Status::Corruption("trailing bytes in WAL record payload");
  }
  return Status::Ok();
}

Status WriteFully(int fd, const char* data, size_t n) {
  while (n > 0) {
    ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("WAL write: ") +
                             std::strerror(errno));
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
  return Status::Ok();
}

// fsyncs the directory containing \p path so a freshly created or renamed
// entry is durable, not just its contents.
Status SyncParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("open dir " + dir + ": " + std::strerror(errno));
  }
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IoError("fsync dir " + dir + ": " + std::strerror(errno));
  }
  return Status::Ok();
}

}  // namespace

StatusOr<std::unique_ptr<IngestLog>> IngestLog::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::IoError("open WAL " + path + ": " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    int saved = errno;
    ::close(fd);
    return Status::IoError("stat WAL " + path + ": " + std::strerror(saved));
  }
  return std::unique_ptr<IngestLog>(
      new IngestLog(fd, path, static_cast<size_t>(st.st_size)));
}

IngestLog::~IngestLog() {
  if (fd_ >= 0) ::close(fd_);
}

Status IngestLog::Append(uint64_t epoch,
                         const std::vector<rdf::UpdateOp>& ops) {
  std::string payload = EncodeRecordPayload(epoch, ops);
  BinaryWriter framed;
  framed.WriteU32(static_cast<uint32_t>(payload.size()));
  framed.WriteU32(Crc32(payload.data(), payload.size()));
  framed.WriteBytes(payload);
  const std::string& record = framed.buffer();
  if (crash_mid_append_for_test_) {
    // Torn write: the header plus half the payload reach the disk, then the
    // process dies. The record fails its CRC on replay and is truncated.
    size_t torn = 8 + payload.size() / 2;
    (void)WriteFully(fd_, record.data(), torn);
    (void)::fsync(fd_);
    std::abort();
  }
  GANSWER_RETURN_NOT_OK(WriteFully(fd_, record.data(), record.size()));
  if (::fsync(fd_) != 0) {
    return Status::IoError("fsync WAL: " + std::string(std::strerror(errno)));
  }
  size_bytes_ += record.size();
  return Status::Ok();
}

StatusOr<std::vector<LogRecord>> IngestLog::Replay(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::vector<LogRecord>();  // No log yet: empty history.
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string bytes = buf.str();
  in.close();

  std::vector<LogRecord> records;
  size_t pos = 0;
  while (pos < bytes.size()) {
    // A record that does not fit (torn header or short payload) or fails
    // its checksum marks the uncommitted tail: stop there.
    if (bytes.size() - pos < 8) break;
    uint32_t len, crc;
    std::memcpy(&len, bytes.data() + pos, 4);
    std::memcpy(&crc, bytes.data() + pos + 4, 4);
    if (bytes.size() - pos - 8 < len) break;
    std::string_view payload(bytes.data() + pos + 8, len);
    if (Crc32(payload.data(), payload.size()) != crc) break;
    LogRecord rec;
    GANSWER_RETURN_NOT_OK(DecodeRecordPayload(payload, &rec));
    records.push_back(std::move(rec));
    pos += 8 + len;
  }
  if (pos < bytes.size()) {
    // Drop the torn tail so subsequent appends extend committed data only.
    if (::truncate(path.c_str(), static_cast<off_t>(pos)) != 0) {
      return Status::IoError("truncate WAL tail: " +
                             std::string(std::strerror(errno)));
    }
  }
  return records;
}

Status WriteManifest(const std::string& path, const LiveManifest& manifest) {
  BinaryWriter w;
  w.WriteBytes("GLIV");
  w.WriteU32(1);  // manifest format version
  w.WriteU64(manifest.base_epoch);
  w.WriteString(manifest.base_snapshot);
  w.WriteString(manifest.wal);
  uint32_t crc = Crc32(w.buffer().data(), w.buffer().size());
  w.WriteU32(crc);
  const std::string& bytes = w.buffer();

  std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("open " + tmp + ": " + std::strerror(errno));
  }
  Status st = WriteFully(fd, bytes.data(), bytes.size());
  if (st.ok() && ::fsync(fd) != 0) {
    st = Status::IoError("fsync manifest: " + std::string(std::strerror(errno)));
  }
  ::close(fd);
  if (!st.ok()) return st;
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("rename manifest: " +
                           std::string(std::strerror(errno)));
  }
  return SyncParentDir(path);
}

StatusOr<LiveManifest> ReadManifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("no manifest at " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string bytes = buf.str();
  if (bytes.size() < 4 + 4 + 4) {
    return Status::Corruption("manifest too short");
  }
  uint32_t stored_crc;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - 4, 4);
  if (Crc32(bytes.data(), bytes.size() - 4) != stored_crc) {
    return Status::Corruption("manifest CRC mismatch");
  }
  if (bytes.compare(0, 4, "GLIV") != 0) {
    return Status::Corruption("bad manifest magic");
  }
  BinaryReader r(std::string_view(bytes).substr(4, bytes.size() - 8));
  uint32_t version = 0;
  GANSWER_RETURN_NOT_OK(r.ReadU32(&version));
  if (version != 1) {
    return Status::Corruption("unsupported manifest version " +
                              std::to_string(version));
  }
  LiveManifest m;
  GANSWER_RETURN_NOT_OK(r.ReadU64(&m.base_epoch));
  GANSWER_RETURN_NOT_OK(r.ReadString(&m.base_snapshot));
  GANSWER_RETURN_NOT_OK(r.ReadString(&m.wal));
  return m;
}

}  // namespace live
}  // namespace store
}  // namespace ganswer
