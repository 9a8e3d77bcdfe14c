// Binary snapshots of a TripleStore — the persistence layer behind the
// pipeline's Phase 1 -> Phase 2 handoff and the serve path's cold start.
//
// One page-aligned, zero-copy wire format, "v2" (the streamed v1 archive
// of earlier builds is no longer read). The on-disk bytes *are* the
// serve-time structures: a flat dictionary arena (u64 offset table + u8
// kinds + contiguous term bytes), the raw triple array, and the three
// sorted permutation indexes (u32 order + the packed u64 prefix keys for
// SPO/POS/OSP — exactly what serve::KbView binary-searches), plus a
// varint claims blob for pipeline warm-starts.
// Every section starts on a 4 KiB boundary and carries its own CRC32c; a
// footer indexes the sections and a fixed trailer at EOF carries the
// footer location, the element counts, the total file size, and a
// whole-file CRC. Loading a snapshot into a serve view is therefore
// mmap + CRC/structure validation + pointer fixup — no parse, no sort —
// and N processes serving one snapshot share one physical copy through
// the page cache.
//
//   file    := header-page  (section, pad-to-4KiB)*  footer  trailer
//   header  := magic[8]="AKBSNAP2" u32le version=2 u32le header_crc
//              zero-pad to 4096
//   footer  := entry[11]; entry := u32 id, u32 0, u64 offset, u64 bytes,
//              u64 count, u32 crc32c, u32 0   (40 bytes each)
//   trailer := u64 footer_offset, u64 footer_bytes, u32 footer_crc,
//              u32 section_count, u64 terms, u64 triples, u64 claims,
//              u64 file_bytes, u32 file_crc, u32 0,
//              magic[8]="AKB2TRLR"             (72 bytes, at EOF)
//   claims  := record*; record := varint s, varint p, varint o,
//              u8 extractor, u64le confidence bits, varint source_len,
//              source bytes
//
// file_crc covers [0, footer end) — everything but the trailer, padding
// included — and every trailer field is either checked against the file
// or covered by a magic/CRC, so any single-byte corruption anywhere is a
// typed failure.
//
// Saves are crash-safe: the image is written to `path.tmp.<pid>`, fsynced,
// renamed over `path`, and the directory is fsynced. A reader that has the
// old file mapped keeps serving the old inode; a failed or interrupted
// save leaves `path` exactly as it was.
//
// Error taxonomy: kParseError = not a snapshot at all (bad magic);
// kUnimplemented = produced by a newer format version, or a v1 file
// (magic "AKBSNAP1") this build no longer reads; kDataLoss = right
// format, damaged bytes (CRC mismatch, truncation, structural
// corruption); kIoError = the filesystem failed. LoadSnapshot never
// leaves the target store partially filled.
#ifndef AKB_RDF_SNAPSHOT_H_
#define AKB_RDF_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "rdf/mmap_file.h"
#include "rdf/triple.h"

namespace akb::rdf {

/// The wire format a snapshot is written in; the numeric value is the
/// on-disk version number. There is one format, kept as a named value so
/// callers state what they write.
enum class SnapshotFormat : uint32_t {
  kV2 = 2,  ///< page-aligned zero-copy serve image — mmap on load
};

/// The wire version this build writes and reads.
inline constexpr uint32_t kSnapshotVersion = 2;

/// Sizes of one snapshot, reported by save/load/inspect. Section byte
/// counts are exact section lengths, excluding alignment padding.
struct SnapshotStats {
  uint32_t version = 0;
  uint64_t bytes = 0;    ///< total file size
  uint64_t terms = 0;    ///< dictionary entries
  uint64_t triples = 0;  ///< distinct triples
  uint64_t claims = 0;   ///< provenanced claims
  uint64_t dict_bytes = 0;     ///< dictionary sections (arena / terms)
  uint64_t triples_bytes = 0;  ///< triple array / triples section
  uint64_t index_bytes = 0;    ///< SPO/POS/OSP order + key arrays
  uint64_t claims_bytes = 0;   ///< claims section
};

/// Fully validates the snapshot at `path` (magic, version, structure,
/// every section CRC, and the claim records) and returns its sizes
/// without keeping the store.
Result<SnapshotStats> ReadSnapshotInfo(const std::string& path);

/// CRC32c (Castagnoli), bit-reflected, init/xor-out 0xFFFFFFFF. `seed` is
/// the running value from a previous call, 0 to start. Uses the SSE4.2
/// crc32 instruction when the CPU has it (same polynomial, identical
/// values), the sliced table otherwise. Exposed for tests.
uint32_t Crc32c(std::string_view data, uint32_t seed = 0);

// ---------------------------------------------------------------- v2 wire
// Constants exposed so fault-injection tests and tooling can do byte
// surgery with full knowledge of the layout. Little-endian throughout.
namespace snapshot_v2 {

inline constexpr char kMagic[8] = {'A', 'K', 'B', 'S', 'N', 'A', 'P', '2'};
inline constexpr char kTrailerMagic[8] = {'A', 'K', 'B', '2',
                                          'T', 'R', 'L', 'R'};
/// Every section starts on this boundary (and the header page is exactly
/// this long), so typed pointers into the mapping are always aligned.
inline constexpr uint64_t kSectionAlign = 4096;
inline constexpr uint64_t kHeaderBytes = 4096;
inline constexpr uint64_t kSectionEntryBytes = 40;
inline constexpr uint64_t kTrailerBytes = 72;
inline constexpr uint32_t kNumSections = 11;

/// Section ids in file order.
enum SectionId : uint32_t {
  kTermOffsets = 1,  ///< u64[terms + 1] offsets into the term-bytes arena
  kTermKinds = 2,    ///< u8[terms] TermKind values
  kTermBytes = 3,    ///< contiguous lexical bytes
  kTriples = 4,      ///< Triple[triples] (3 x u32le), store order
  kSpoOrder = 5,     ///< u32[triples]
  kSpoKeys = 6,      ///< u64[triples], packed (first << 32 | second)
  kPosOrder = 7,
  kPosKeys = 8,
  kOspOrder = 9,
  kOspKeys = 10,
  kClaims = 11,      ///< varint claim records (grammar above)
};

}  // namespace snapshot_v2

/// A fully validated, typed view over a mapped v2 snapshot. All pointers
/// alias `mapping`; holders must keep `mapping` alive for as long as they
/// dereference them (serve::KbView does this via the shared_ptr).
struct SnapshotV2View {
  std::shared_ptr<MmapFile> mapping;

  const uint64_t* term_offsets = nullptr;  ///< num_terms + 1 entries
  const uint8_t* term_kinds = nullptr;
  const char* term_bytes = nullptr;
  uint64_t num_terms = 0;

  const Triple* triples = nullptr;
  uint64_t num_triples = 0;

  /// Indexed by rdf::Permutation (kSpo, kPos, kOsp).
  const uint32_t* order[3] = {nullptr, nullptr, nullptr};
  const uint64_t* keys[3] = {nullptr, nullptr, nullptr};

  std::string_view claims;  ///< varint claim records, CRC-validated
  uint64_t num_claims = 0;

  SnapshotStats stats;
};

/// Maps the v2 snapshot at `path` and validates everything that can be
/// validated without parsing the claims blob: header, trailer, footer,
/// whole-file CRC, every section CRC, alignment, ranges, and the
/// structural invariants of the typed sections (offset-table monotonicity,
/// term-kind ranges, triple term-id bounds, order-entry bounds, key-array
/// sortedness). O(n) pointer-speed scans plus CRC — no allocation
/// proportional to the KB.
Result<SnapshotV2View> OpenSnapshotV2(const std::string& path);

}  // namespace akb::rdf

#endif  // AKB_RDF_SNAPSHOT_H_
