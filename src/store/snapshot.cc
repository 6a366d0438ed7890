#include "store/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <memory>
#include <vector>

#include "common/binary_io.h"

namespace ganswer {
namespace store {

namespace {

// Layout:
//   magic(8) | byte-order mark u32 | version u32 | section count u32
//   section table, one entry per section:
//     { id u32, encoding u32 (always 0, raw), offset u64, size u64,
//       crc32 u32 }
//   section payloads (offsets are absolute, payloads contiguous and start
//   on 8-byte boundaries: no reader needs the alignment, but it is part of
//   the v3 bytes, so the writer keeps it and the reader checks it)
// The fingerprint is the CRC32 of the section table, i.e. of all section
// CRCs — a cheap stable identity for the whole container.
constexpr char kMagic[8] = {'G', 'A', 'N', 'S', 'S', 'N', 'A', 'P'};
constexpr uint32_t kByteOrderMark = 0x01020304u;

enum SectionId : uint32_t {
  kGraphSection = 1,        // term dictionary + CSR adjacency + class bitmap
  kSignatureSection = 2,    // per-vertex signature arrays
  kEntityIndexSection = 3,  // label/token key tables + flat label table
  kDictionarySection = 4,   // paraphrase phrase records + inverted index
  kStatsSection = 5,        // planner cardinality statistics
};

struct SectionEntry {
  uint32_t id = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint32_t crc = 0;
};

constexpr size_t kTableEntrySize =
    3 * sizeof(uint32_t) + 2 * sizeof(uint64_t);

constexpr size_t kNumSections = 5;

}  // namespace

Status WriteSnapshot(const rdf::RdfGraph& graph,
                     const rdf::SignatureIndex& signatures,
                     const linking::EntityIndex& entity_index,
                     const paraphrase::ParaphraseDictionary& dict,
                     std::string* out, SnapshotStats* stats) {
  if (out == nullptr) return Status::InvalidArgument("null output");
  if (!graph.finalized()) {
    return Status::InvalidArgument("snapshot requires a finalized graph");
  }

  // The whole container is assembled in one writer: header, a zeroed
  // section table, then each payload appended directly. CRCs are taken over
  // the payload's final resting place and back-patched into the table, so
  // no section is ever staged in a side buffer (peak memory is the
  // container, not the container plus its largest section).
  BinaryWriter w;
  w.set_aligned(true);
  w.WriteBytes(std::string_view(kMagic, sizeof(kMagic)));
  w.WriteU32(kByteOrderMark);
  w.WriteU32(kSnapshotVersion);
  w.WriteU32(kNumSections);
  const size_t table_start = w.size();
  w.WriteZeros(kNumSections * kTableEntrySize);

  size_t section_sizes[kNumSections] = {};
  size_t section_index = 0;
  auto begin_section = [&]() {
    w.AlignTo(8);
    return w.size();
  };
  auto end_section = [&](uint32_t id, size_t offset) {
    size_t size = w.size() - offset;
    uint32_t crc = Crc32(w.buffer().data() + offset, size);
    size_t at = table_start + section_index * kTableEntrySize;
    w.PatchU32(at, id);
    w.PatchU32(at + sizeof(uint32_t),
               static_cast<uint32_t>(SectionEncoding::kRaw));
    at += 2 * sizeof(uint32_t);
    w.PatchU64(at, offset);
    w.PatchU64(at + sizeof(uint64_t), size);
    w.PatchU32(at + 2 * sizeof(uint64_t), crc);
    section_sizes[section_index] = size;
    ++section_index;
  };
  {
    size_t offset = begin_section();
    GANSWER_RETURN_NOT_OK(graph.SaveBinary(&w));
    end_section(kGraphSection, offset);
  }
  {
    size_t offset = begin_section();
    signatures.SaveBinary(&w);
    end_section(kSignatureSection, offset);
  }
  {
    size_t offset = begin_section();
    entity_index.SaveBinary(&w);
    end_section(kEntityIndexSection, offset);
  }
  {
    size_t offset = begin_section();
    dict.SaveBinary(&w);
    end_section(kDictionarySection, offset);
  }
  {
    // Statistics are a deterministic O(V + E) function of the graph, so the
    // writer always recomputes them rather than taking them as input —
    // a snapshot can never carry statistics from a different graph.
    size_t offset = begin_section();
    GANSWER_RETURN_NOT_OK(rdf::GraphStats::Compute(graph).SaveBinary(&w));
    end_section(kStatsSection, offset);
  }

  uint64_t fingerprint =
      Crc32(w.buffer().data() + table_start, kNumSections * kTableEntrySize);
  *out = w.Release();

  if (stats != nullptr) {
    stats->graph_bytes = section_sizes[0];
    stats->signature_bytes = section_sizes[1];
    stats->entity_index_bytes = section_sizes[2];
    stats->dictionary_bytes = section_sizes[3];
    stats->stats_bytes = section_sizes[4];
    stats->total_bytes = out->size();
    stats->fingerprint = fingerprint;
  }
  return Status::Ok();
}

Status WriteSnapshot(const rdf::RdfGraph& graph,
                     const paraphrase::ParaphraseDictionary& dict,
                     std::string* out, SnapshotStats* stats) {
  if (!graph.finalized()) {
    return Status::InvalidArgument("snapshot requires a finalized graph");
  }
  rdf::SignatureIndex signatures(graph);
  linking::EntityIndex entity_index(graph);
  return WriteSnapshot(graph, signatures, entity_index, dict, out, stats);
}

Status WriteSnapshotFile(const rdf::RdfGraph& graph,
                         const paraphrase::ParaphraseDictionary& dict,
                         const std::string& path, SnapshotStats* stats) {
  std::string bytes;
  GANSWER_RETURN_NOT_OK(WriteSnapshot(graph, dict, &bytes, stats));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) return Status::IoError("short write to '" + path + "'");
  return Status::Ok();
}

namespace {

// Fills \p out with the whole file at \p path: one buffer sized from the
// file's fstat size, filled by a read loop. A file that ends before that
// size is a short read.
Status ReadWholeFile(const std::string& path, std::string* out) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open '" + path +
                           "': " + std::strerror(errno));
  }
  std::unique_ptr<int, void (*)(int*)> close_fd(&fd,
                                                [](int* f) { ::close(*f); });
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return Status::IoError("cannot stat '" + path +
                           "': " + std::strerror(errno));
  }
  if (S_ISDIR(st.st_mode)) {
    return Status::IoError("cannot read '" + path + "': is a directory");
  }
  out->resize(static_cast<size_t>(st.st_size));
  size_t done = 0;
  while (done < out->size()) {
    ssize_t n = ::read(fd, out->data() + done, out->size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("read error on '" + path +
                             "': " + std::strerror(errno));
    }
    if (n == 0) {
      return Status::IoError("short read on '" + path + "': " +
                             std::to_string(done) + " of " +
                             std::to_string(out->size()) + " bytes");
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

StatusOr<Snapshot> ReadSnapshot(std::string_view bytes,
                                const nlp::Lexicon* lexicon) {
  if (lexicon == nullptr) return Status::InvalidArgument("null lexicon");
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("not a gAnswer snapshot (bad magic)");
  }
  BinaryReader header(bytes.substr(sizeof(kMagic)));
  uint32_t bom = 0, version = 0, section_count = 0;
  GANSWER_RETURN_NOT_OK(header.ReadU32(&bom));
  if (bom != kByteOrderMark) {
    return Status::Corruption("snapshot written with foreign byte order");
  }
  GANSWER_RETURN_NOT_OK(header.ReadU32(&version));
  if (version < kMinSupportedSnapshotVersion || version > kSnapshotVersion) {
    return Status::Corruption(
        "snapshot version " + std::to_string(version) +
        " is outside this binary's supported range [" +
        std::to_string(kMinSupportedSnapshotVersion) + ", " +
        std::to_string(kSnapshotVersion) + "]; rebuild the snapshot");
  }
  GANSWER_RETURN_NOT_OK(header.ReadU32(&section_count));
  if (section_count > 64) {
    return Status::Corruption("implausible snapshot section count");
  }

  size_t table_start = sizeof(kMagic) + 3 * sizeof(uint32_t);
  size_t table_bytes = section_count * kTableEntrySize;
  if (bytes.size() < table_start + table_bytes) {
    return Status::Corruption("truncated snapshot section table");
  }
  uint64_t fingerprint = Crc32(bytes.data() + table_start, table_bytes);

  std::vector<SectionEntry> table(section_count);
  for (SectionEntry& entry : table) {
    GANSWER_RETURN_NOT_OK(header.ReadU32(&entry.id));
    uint32_t encoding = 0;
    GANSWER_RETURN_NOT_OK(header.ReadU32(&encoding));
    if (encoding != static_cast<uint32_t>(SectionEncoding::kRaw)) {
      return Status::Corruption(
          "snapshot section " + std::to_string(entry.id) + " has encoding " +
          std::to_string(encoding) +
          "; this binary reads raw sections only; rebuild the snapshot");
    }
    GANSWER_RETURN_NOT_OK(header.ReadU64(&entry.offset));
    GANSWER_RETURN_NOT_OK(header.ReadU64(&entry.size));
    GANSWER_RETURN_NOT_OK(header.ReadU32(&entry.crc));
  }

  auto find_section = [&](uint32_t id, std::string_view* payload) -> Status {
    for (const SectionEntry& entry : table) {
      if (entry.id != id) continue;
      if (entry.offset > bytes.size() ||
          entry.size > bytes.size() - entry.offset) {
        return Status::Corruption("snapshot section " + std::to_string(id) +
                                  " out of bounds");
      }
      if (entry.offset % 8 != 0) {
        return Status::Corruption("snapshot section " + std::to_string(id) +
                                  " payload misaligned");
      }
      *payload = bytes.substr(entry.offset, entry.size);
      if (Crc32(payload->data(), payload->size()) != entry.crc) {
        return Status::Corruption("snapshot section " + std::to_string(id) +
                                  " checksum mismatch");
      }
      return Status::Ok();
    }
    return Status::Corruption("snapshot section " + std::to_string(id) +
                              " missing");
  };
  auto section_reader = [&](std::string_view payload) {
    BinaryReader r(payload);
    r.set_aligned(true);
    return r;
  };

  Snapshot snapshot;
  snapshot.fingerprint = fingerprint;

  std::string_view payload;
  GANSWER_RETURN_NOT_OK(find_section(kGraphSection, &payload));
  snapshot.graph = std::make_unique<rdf::RdfGraph>();
  {
    BinaryReader r = section_reader(payload);
    GANSWER_RETURN_NOT_OK(snapshot.graph->LoadBinary(&r));
  }

  GANSWER_RETURN_NOT_OK(find_section(kSignatureSection, &payload));
  {
    BinaryReader r = section_reader(payload);
    auto signatures = rdf::SignatureIndex::LoadBinary(&r);
    if (!signatures.ok()) return signatures.status();
    if (signatures->NumVertices() != snapshot.graph->dict().size()) {
      return Status::Corruption("signature index size does not match graph");
    }
    snapshot.signatures =
        std::make_unique<rdf::SignatureIndex>(std::move(signatures).value());
  }

  GANSWER_RETURN_NOT_OK(find_section(kEntityIndexSection, &payload));
  {
    BinaryReader r = section_reader(payload);
    auto index = linking::EntityIndex::LoadBinary(*snapshot.graph, &r);
    if (!index.ok()) return index.status();
    snapshot.entity_index = std::move(index).value();
  }

  GANSWER_RETURN_NOT_OK(find_section(kDictionarySection, &payload));
  snapshot.dictionary =
      std::make_unique<paraphrase::ParaphraseDictionary>(lexicon);
  {
    BinaryReader r = section_reader(payload);
    GANSWER_RETURN_NOT_OK(snapshot.dictionary->LoadBinary(
        &r, snapshot.graph->dict().size()));
  }

  GANSWER_RETURN_NOT_OK(find_section(kStatsSection, &payload));
  snapshot.stats = std::make_unique<rdf::GraphStats>();
  {
    BinaryReader r = section_reader(payload);
    GANSWER_RETURN_NOT_OK(snapshot.stats->LoadBinary(&r));
  }

  return snapshot;
}

StatusOr<Snapshot> ReadSnapshotFile(const std::string& path,
                                    const nlp::Lexicon* lexicon) {
  std::string bytes;
  GANSWER_RETURN_NOT_OK(ReadWholeFile(path, &bytes));
  return ReadSnapshot(bytes, lexicon);
}

}  // namespace store
}  // namespace ganswer
