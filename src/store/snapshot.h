#ifndef GANSWER_STORE_SNAPSHOT_H_
#define GANSWER_STORE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "linking/entity_index.h"
#include "nlp/lexicon.h"
#include "paraphrase/paraphrase_dictionary.h"
#include "rdf/graph_stats.h"
#include "rdf/rdf_graph.h"
#include "rdf/signature_index.h"

namespace ganswer {
namespace store {

/// Container format version. Bumped whenever a section's binary layout
/// changes or a section is added. Version 2 added the graph-statistics
/// section (rdf/graph_stats.h). Version 3 added a per-section encoding field,
/// 8-aligned section payloads and alignment-padded pod arrays (no reader
/// needs the alignment; it is part of the bytes). Version 4 stores the
/// entity index's labels as a flat table with each label's interned token
/// ids (linking/entity_index.h). Version 5 stores the entity index's label
/// and token postings as sorted key tables (a key blob, u32 key and
/// postings offsets, one postings array), loaded with bulk reads and no
/// rebuild. Version 5 is the only format this binary writes or reads:
/// older containers and versions newer than this binary's are rejected
/// with a "rebuild the snapshot" status.
inline constexpr uint32_t kSnapshotVersion = 5;
inline constexpr uint32_t kMinSupportedSnapshotVersion = 5;

/// The section table's encoding field. Raw sections are the pod layouts the
/// in-memory structures use, copied in with bulk reads. Raw is the only
/// encoding: the writer always stores it and the reader rejects any other
/// value with a "rebuild the snapshot" status.
enum class SectionEncoding : uint32_t { kRaw = 0 };

/// \brief Everything the online phase needs, reconstructed from one
/// snapshot: the finalized graph, both offline indexes and the paraphrase
/// dictionary. The indexes reference the owned graph, so the bundle keeps
/// them alive together; members are heap-allocated so moving the bundle
/// never invalidates those references.
struct Snapshot {
  std::unique_ptr<rdf::RdfGraph> graph;
  std::unique_ptr<rdf::SignatureIndex> signatures;
  std::unique_ptr<linking::EntityIndex> entity_index;
  std::unique_ptr<paraphrase::ParaphraseDictionary> dictionary;
  /// Planner statistics, read from the stats section; never null on
  /// success.
  std::unique_ptr<rdf::GraphStats> stats;
  /// Identity of the snapshot contents (derived from the per-section
  /// checksums). Two byte-identical snapshots share a fingerprint; use it
  /// to invalidate caches keyed on snapshot data.
  uint64_t fingerprint = 0;
};

/// Per-section byte counts of a written snapshot, for bench reporting.
struct SnapshotStats {
  size_t graph_bytes = 0;
  size_t signature_bytes = 0;
  size_t entity_index_bytes = 0;
  size_t dictionary_bytes = 0;
  size_t stats_bytes = 0;
  size_t total_bytes = 0;
  uint64_t fingerprint = 0;
};

/// Serializes \p graph (finalized) and \p dict together with prebuilt
/// indexes into one versioned, checksummed container in \p out. Section
/// CRCs are computed in place as each section lands in the shared output
/// buffer — no per-section staging copies, so peak writer memory is the
/// container itself.
Status WriteSnapshot(const rdf::RdfGraph& graph,
                     const rdf::SignatureIndex& signatures,
                     const linking::EntityIndex& entity_index,
                     const paraphrase::ParaphraseDictionary& dict,
                     std::string* out, SnapshotStats* stats = nullptr);

/// Convenience for offline builders that only hold the graph and the mined
/// dictionary: builds the SignatureIndex and EntityIndex (deterministic
/// functions of the graph) and writes the full container.
Status WriteSnapshot(const rdf::RdfGraph& graph,
                     const paraphrase::ParaphraseDictionary& dict,
                     std::string* out, SnapshotStats* stats = nullptr);

Status WriteSnapshotFile(const rdf::RdfGraph& graph,
                         const paraphrase::ParaphraseDictionary& dict,
                         const std::string& path,
                         SnapshotStats* stats = nullptr);

/// Reconstructs a Snapshot from container bytes. Rejects wrong magic,
/// foreign byte order, version mismatches, malformed section tables,
/// non-raw section encodings and per-section CRC failures with
/// Status::Corruption — a bad file can never produce a partially
/// initialized bundle. \p lexicon backs the paraphrase dictionary and must
/// outlive the returned bundle. The bytes are copied into owned structures;
/// the caller may drop them as soon as this returns.
StatusOr<Snapshot> ReadSnapshot(std::string_view bytes,
                                const nlp::Lexicon* lexicon);

/// Reads the whole file at \p path into one buffer sized from the file
/// size, then ReadSnapshot()s it. Returns Status::IoError when the file
/// cannot be opened or read (a missing path, a directory) and on a short
/// read; container defects are Status::Corruption as above.
StatusOr<Snapshot> ReadSnapshotFile(const std::string& path,
                                    const nlp::Lexicon* lexicon);

}  // namespace store
}  // namespace ganswer

#endif  // GANSWER_STORE_SNAPSHOT_H_
