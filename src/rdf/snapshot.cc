#include "rdf/snapshot.h"

#include <array>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <type_traits>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rdf/perm_index.h"
#include "rdf/triple_store.h"

namespace akb::rdf {

// The v2 reader hands out typed pointers straight into the mapping and the
// writer memcpys arrays, so the in-memory layout must match the (little-
// endian) wire layout exactly.
static_assert(std::endian::native == std::endian::little,
              "v2 snapshots assume a little-endian host");
static_assert(sizeof(Triple) == 12 && std::is_trivially_copyable_v<Triple>,
              "v2 snapshots store raw Triple arrays");

namespace {

/// Magic of the retired streamed format, recognized only to name it in
/// the error.
constexpr char kMagicV1[8] = {'A', 'K', 'B', 'S', 'N', 'A', 'P', '1'};

// ------------------------------------------------------------ primitives

void AppendVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(char((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(char(v));
}

Status ParseVarint(std::string_view block, size_t* pos, uint64_t* out,
                   const char* what) {
  uint64_t v = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    if (*pos >= block.size()) {
      return Status::DataLoss(std::string("record overruns block in ") + what);
    }
    unsigned char c = static_cast<unsigned char>(block[(*pos)++]);
    v |= uint64_t(c & 0x7F) << shift;
    if (!(c & 0x80)) {
      *out = v;
      return Status::OK();
    }
    shift += 7;
  }
  return Status::DataLoss(std::string("overlong varint in ") + what);
}

Status ParseByte(std::string_view block, size_t* pos, uint8_t* out,
                 const char* what) {
  if (*pos >= block.size()) {
    return Status::DataLoss(std::string("record overruns block in ") + what);
  }
  *out = static_cast<uint8_t>(block[(*pos)++]);
  return Status::OK();
}

Status ParseBytes(std::string_view block, size_t* pos, uint64_t len,
                  std::string_view* out, const char* what) {
  if (len > block.size() - *pos) {
    return Status::DataLoss(std::string("record overruns block in ") + what);
  }
  *out = block.substr(*pos, len);
  *pos += len;
  return Status::OK();
}

Status ParseU64(std::string_view block, size_t* pos, uint64_t* out,
                const char* what) {
  std::string_view bytes;
  AKB_RETURN_IF_ERROR(ParseBytes(block, pos, 8, &bytes, what));
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(bytes[size_t(i)]);
  }
  *out = v;
  return Status::OK();
}

// -------------------------------------------------------------- CRC32c

/// Table-driven byte loop over the pre-xored running state.
uint32_t Crc32cSoftware(std::string_view data, uint32_t crc) {
  static const std::array<uint32_t, 256>& table = *[] {
    auto* t = new std::array<uint32_t, 256>();
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (c >> 1) ^ 0x82F63B78u : c >> 1;
      }
      (*t)[i] = c;
    }
    return t;
  }();
  for (unsigned char b : data) {
    crc = table[(crc ^ b) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)
/// The SSE4.2 crc32 instruction computes exactly the reflected Castagnoli
/// update the table loop does, 8 bytes per instruction — the difference
/// between ~0.4 GB/s and ~15 GB/s, which is what keeps whole-file CRC
/// validation cheap enough for an mmap cold start.
__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(
    std::string_view data, uint32_t crc) {
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint64_t state = crc;
  while (n >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    state = _mm_crc32_u64(state, chunk);
    p += 8;
    n -= 8;
  }
  uint32_t state32 = uint32_t(state);
  while (n > 0) {
    state32 = _mm_crc32_u8(state32, *p++);
    --n;
  }
  return state32;
}
#endif

}  // namespace

uint32_t Crc32c(std::string_view data, uint32_t seed) {
  uint32_t crc = seed ^ 0xFFFFFFFFu;
#if defined(__x86_64__)
  static const bool have_sse42 = __builtin_cpu_supports("sse4.2");
  if (have_sse42) {
    crc = Crc32cHardware(data, crc);
  } else {
    crc = Crc32cSoftware(data, crc);
  }
#else
  crc = Crc32cSoftware(data, crc);
#endif
  return crc ^ 0xFFFFFFFFu;
}

// ----------------------------------------------------------- v2 helpers

namespace {

namespace v2 = snapshot_v2;

uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t LoadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), 4);
}

void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), 8);
}

uint64_t AlignUp(uint64_t n, uint64_t align) {
  return (n + align - 1) / align * align;
}

const char* V2SectionName(uint32_t id) {
  switch (id) {
    case v2::kTermOffsets: return "term-offsets";
    case v2::kTermKinds: return "term-kinds";
    case v2::kTermBytes: return "term-bytes";
    case v2::kTriples: return "triples";
    case v2::kSpoOrder: return "spo-order";
    case v2::kSpoKeys: return "spo-keys";
    case v2::kPosOrder: return "pos-order";
    case v2::kPosKeys: return "pos-keys";
    case v2::kOspOrder: return "osp-order";
    case v2::kOspKeys: return "osp-keys";
    case v2::kClaims: return "claims";
  }
  return "?";
}

/// Writes the v2 byte stream while tracking the running offset, the
/// whole-file CRC, and the footer entry of each section. Sections are
/// opened with Begin (which pads to the alignment boundary), fed with
/// Append, and closed with End.
class V2Writer {
 public:
  explicit V2Writer(std::ostream* out) : out_(out) {}

  void WriteRaw(const char* data, uint64_t n) {
    out_->write(data, std::streamsize(n));
    file_crc_ = Crc32c(std::string_view(data, size_t(n)), file_crc_);
    offset_ += n;
  }

  void PadTo(uint64_t align) {
    static const std::string zeros(size_t(v2::kSectionAlign), '\0');
    uint64_t pad = AlignUp(offset_, align) - offset_;
    if (pad > 0) WriteRaw(zeros.data(), pad);
  }

  void Begin(uint32_t id, uint64_t count) {
    PadTo(v2::kSectionAlign);
    current_ = Entry{id, offset_, 0, count, 0};
  }

  void Append(const char* data, uint64_t n) {
    current_.crc =
        Crc32c(std::string_view(data, size_t(n)), current_.crc);
    current_.bytes += n;
    WriteRaw(data, n);
  }

  void End() { entries_.push_back(current_); }

  void WriteSection(uint32_t id, const void* data, uint64_t bytes,
                    uint64_t count) {
    Begin(id, count);
    Append(static_cast<const char*>(data), bytes);
    End();
  }

  uint64_t offset() const { return offset_; }
  uint32_t file_crc() const { return file_crc_; }

  struct Entry {
    uint32_t id = 0;
    uint64_t offset = 0;
    uint64_t bytes = 0;
    uint64_t count = 0;
    uint32_t crc = 0;
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::ostream* out_;
  uint64_t offset_ = 0;
  uint32_t file_crc_ = 0;
  Entry current_;
  std::vector<Entry> entries_;
};

}  // namespace

// ------------------------------------------------------------ v2 reader

Result<SnapshotV2View> OpenSnapshotV2(const std::string& path) {
  AKB_ASSIGN_OR_RETURN(std::shared_ptr<MmapFile> mapping,
                       MmapFile::Open(path));
  const char* base = mapping->data();
  const uint64_t size = mapping->size();

  if (size >= 8 && std::memcmp(base, kMagicV1, 8) == 0) {
    return Status::Unimplemented(
        "'" + path + "' is a v1 snapshot, which this build no longer "
        "reads; regenerate it with `akb_cli pipeline --save-kb`");
  }
  if (size < 8 || std::memcmp(base, v2::kMagic, 8) != 0) {
    return Status::ParseError("'" + path + "' is not an akb snapshot");
  }
  const uint64_t min_size = v2::kHeaderBytes +
                            v2::kNumSections * v2::kSectionEntryBytes +
                            v2::kTrailerBytes;
  if (size < min_size) {
    return Status::DataLoss("'" + path + "': truncated v2 snapshot (" +
                            std::to_string(size) + " bytes)");
  }
  const uint32_t version = LoadU32(base + 8);
  if (version > kSnapshotVersion) {
    return Status::Unimplemented(
        "snapshot format version " + std::to_string(version) +
        " is not supported (this build reads up to version " +
        std::to_string(kSnapshotVersion) + ")");
  }
  if (version != kSnapshotVersion) {
    return Status::DataLoss("v2 snapshot header carries version " +
                            std::to_string(version));
  }
  if (LoadU32(base + 12) != Crc32c(std::string_view(base, 12))) {
    return Status::DataLoss("v2 header CRC mismatch");
  }

  // Trailer: every field is either checked against the file or covered by
  // the trailer magic / footer CRC, so trailer corruption is always typed.
  const char* tr = base + size - v2::kTrailerBytes;
  if (std::memcmp(tr + 64, v2::kTrailerMagic, 8) != 0) {
    return Status::DataLoss("bad v2 trailer magic");
  }
  const uint64_t footer_offset = LoadU64(tr);
  const uint64_t footer_bytes = LoadU64(tr + 8);
  const uint32_t footer_crc = LoadU32(tr + 16);
  const uint32_t section_count = LoadU32(tr + 20);
  const uint64_t num_terms = LoadU64(tr + 24);
  const uint64_t num_triples = LoadU64(tr + 32);
  const uint64_t num_claims = LoadU64(tr + 40);
  const uint64_t file_bytes = LoadU64(tr + 48);
  const uint32_t file_crc = LoadU32(tr + 56);
  const uint32_t reserved = LoadU32(tr + 60);

  if (file_bytes != size) {
    return Status::DataLoss("v2 trailer claims " + std::to_string(file_bytes) +
                            " bytes but the file has " + std::to_string(size));
  }
  if (reserved != 0) {
    return Status::DataLoss("nonzero reserved field in v2 trailer");
  }
  if (section_count != v2::kNumSections ||
      footer_bytes != uint64_t(v2::kNumSections) * v2::kSectionEntryBytes) {
    return Status::DataLoss("unexpected v2 section count");
  }
  if (footer_offset % v2::kSectionAlign != 0 ||
      footer_offset < v2::kHeaderBytes ||
      footer_offset + footer_bytes != size - v2::kTrailerBytes) {
    return Status::DataLoss("v2 footer location out of place");
  }
  const std::string_view footer(base + footer_offset, size_t(footer_bytes));
  if (Crc32c(footer) != footer_crc) {
    return Status::DataLoss("v2 footer CRC mismatch");
  }
  if (Crc32c(std::string_view(base, size_t(footer_offset + footer_bytes))) !=
      file_crc) {
    return Status::DataLoss("v2 file CRC mismatch");
  }
  if (num_triples > UINT32_MAX) {
    return Status::DataLoss("v2 snapshot claims more than 2^32 triples");
  }

  // Footer entries: ids in order, reserved zero, offsets aligned and
  // exactly abutting (up to alignment padding), sizes consistent with the
  // trailer counts, every section CRC good.
  V2Writer::Entry secs[v2::kNumSections];
  uint64_t prev_end = v2::kHeaderBytes;
  for (uint32_t i = 0; i < v2::kNumSections; ++i) {
    const char* e = base + footer_offset + i * v2::kSectionEntryBytes;
    V2Writer::Entry& s = secs[i];
    s.id = LoadU32(e);
    const uint32_t reserved0 = LoadU32(e + 4);
    s.offset = LoadU64(e + 8);
    s.bytes = LoadU64(e + 16);
    s.count = LoadU64(e + 24);
    s.crc = LoadU32(e + 32);
    const uint32_t reserved1 = LoadU32(e + 36);
    if (s.id != i + 1) {
      return Status::DataLoss("v2 section ids out of order");
    }
    const char* name = V2SectionName(s.id);
    if (reserved0 != 0 || reserved1 != 0) {
      return Status::DataLoss(
          std::string("nonzero reserved field in v2 footer entry for ") +
          name);
    }
    if (s.offset != AlignUp(prev_end, v2::kSectionAlign)) {
      return Status::DataLoss(std::string("misaligned v2 section ") + name);
    }
    if (s.offset > footer_offset || s.bytes > footer_offset - s.offset) {
      return Status::DataLoss(std::string("v2 section ") + name +
                              " runs past the footer");
    }
    uint64_t expect_bytes = 0;
    uint64_t expect_count = 0;
    switch (s.id) {
      case v2::kTermOffsets:
        expect_count = num_terms + 1;
        expect_bytes = expect_count * 8;
        break;
      case v2::kTermKinds:
        expect_count = num_terms;
        expect_bytes = expect_count;
        break;
      case v2::kTermBytes:
        expect_count = s.bytes;  // count mirrors the byte length
        expect_bytes = s.bytes;
        break;
      case v2::kTriples:
        expect_count = num_triples;
        expect_bytes = expect_count * sizeof(Triple);
        break;
      case v2::kSpoOrder:
      case v2::kPosOrder:
      case v2::kOspOrder:
        expect_count = num_triples;
        expect_bytes = expect_count * 4;
        break;
      case v2::kSpoKeys:
      case v2::kPosKeys:
      case v2::kOspKeys:
        expect_count = num_triples;
        expect_bytes = expect_count * 8;
        break;
      case v2::kClaims:
        expect_count = num_claims;
        expect_bytes = s.bytes;  // varint blob, length is free-form
        break;
    }
    if (s.bytes != expect_bytes || s.count != expect_count) {
      return Status::DataLoss(std::string("v2 section ") + name +
                              " size disagrees with the trailer counts");
    }
    if (Crc32c(std::string_view(base + s.offset, size_t(s.bytes))) != s.crc) {
      return Status::DataLoss(std::string("CRC mismatch in v2 section ") +
                              name);
    }
    prev_end = s.offset + s.bytes;
  }
  if (footer_offset != AlignUp(prev_end, v2::kSectionAlign)) {
    return Status::DataLoss("unexpected gap between v2 sections and footer");
  }

  // Typed pointers — alignment is guaranteed by the 4 KiB section starts.
  SnapshotV2View view;
  view.num_terms = num_terms;
  view.num_triples = num_triples;
  view.num_claims = num_claims;
  view.term_offsets =
      reinterpret_cast<const uint64_t*>(base + secs[0].offset);
  view.term_kinds = reinterpret_cast<const uint8_t*>(base + secs[1].offset);
  view.term_bytes = base + secs[2].offset;
  view.triples = reinterpret_cast<const Triple*>(base + secs[3].offset);
  for (int p = 0; p < 3; ++p) {
    view.order[p] =
        reinterpret_cast<const uint32_t*>(base + secs[4 + 2 * p].offset);
    view.keys[p] =
        reinterpret_cast<const uint64_t*>(base + secs[5 + 2 * p].offset);
  }
  view.claims = std::string_view(base + secs[10].offset, size_t(secs[10].bytes));

  // Content invariants of the typed sections, so serve-side binary search
  // and decode can trust the bytes without further checks.
  if (view.term_offsets[0] != 0 ||
      view.term_offsets[num_terms] != secs[2].bytes) {
    return Status::DataLoss("v2 term offset table does not span the arena");
  }
  for (uint64_t i = 0; i < num_terms; ++i) {
    if (view.term_offsets[i] > view.term_offsets[i + 1]) {
      return Status::DataLoss("v2 term offset table is not monotone");
    }
    if (view.term_kinds[i] > uint8_t(TermKind::kBlank)) {
      return Status::DataLoss("term kind out of range");
    }
  }
  for (uint64_t i = 0; i < num_triples; ++i) {
    const Triple& t = view.triples[i];
    if (t.subject < 1 || t.subject > num_terms || t.predicate < 1 ||
        t.predicate > num_terms || t.object < 1 || t.object > num_terms) {
      return Status::DataLoss("term id out of range in v2 triples");
    }
  }
  for (int p = 0; p < 3; ++p) {
    const Permutation perm = Permutation(p);
    std::array<TermId, 3> prev_key = {0, 0, 0};
    for (uint64_t i = 0; i < num_triples; ++i) {
      const uint32_t ti = view.order[p][i];
      if (ti >= num_triples) {
        return Status::DataLoss("v2 index entry out of range");
      }
      const std::array<TermId, 3> key =
          PermutationKey(view.triples[ti], perm);
      if (view.keys[p][i] != (uint64_t(key[0]) << 32 | key[1])) {
        return Status::DataLoss("v2 index key disagrees with its triple");
      }
      if (i > 0 && !(prev_key < key)) {
        // Equality would mean a duplicate triple; order would mean an
        // unsorted index — either way binary search is unsound.
        return Status::DataLoss("v2 index is not strictly sorted");
      }
      prev_key = key;
    }
  }

  view.stats.version = kSnapshotVersion;
  view.stats.bytes = size;
  view.stats.terms = num_terms;
  view.stats.triples = num_triples;
  view.stats.claims = num_claims;
  view.stats.dict_bytes = secs[0].bytes + secs[1].bytes + secs[2].bytes;
  view.stats.triples_bytes = secs[3].bytes;
  for (int i = 4; i <= 9; ++i) view.stats.index_bytes += secs[i].bytes;
  view.stats.claims_bytes = secs[10].bytes;
  view.mapping = std::move(mapping);
  return view;
}

// --------------------------------------------------------------- writer

namespace {

/// Opens `path` with `flags` and fsyncs it — for a file, its data; for a
/// directory, its entries (so a rename into it is durable).
Status FsyncPath(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open '" + path +
                           "' to sync: " + std::strerror(errno));
  }
  const bool synced = ::fsync(fd) == 0;
  const int error = errno;
  ::close(fd);
  if (!synced) {
    return Status::IoError("fsync of '" + path +
                           "' failed: " + std::strerror(error));
  }
  return Status::OK();
}

/// Makes the fully written `tmp` durable, atomically replaces `path` with
/// it, and makes the rename durable. Readers that mapped the old `path`
/// keep its inode, so they go on serving the old bytes.
Status PublishFile(const std::string& tmp, const std::string& path) {
  AKB_RETURN_IF_ERROR(FsyncPath(tmp, O_RDONLY));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("cannot rename '" + tmp + "' over '" + path +
                           "': " + std::strerror(errno));
  }
  const std::string dir = std::filesystem::path(path).parent_path().string();
  return FsyncPath(dir.empty() ? "." : dir, O_RDONLY | O_DIRECTORY);
}

}  // namespace

Status TripleStore::SaveSnapshot(const std::string& path,
                                 SnapshotFormat /*format: kV2 only*/,
                                 SnapshotStats* stats) const {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  SnapshotStats written;
  Status status = WriteSnapshotFile(tmp, &written);
  if (status.ok()) status = PublishFile(tmp, path);
  if (!status.ok()) {
    std::remove(tmp.c_str());
    return status;
  }
  if (stats != nullptr) *stats = written;
  return Status::OK();
}

Status TripleStore::WriteSnapshotFile(const std::string& path,
                                      SnapshotStats* stats) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }

  // Header page.
  std::string header(size_t(v2::kHeaderBytes), '\0');
  std::memcpy(header.data(), v2::kMagic, 8);
  uint32_t version = kSnapshotVersion;
  std::memcpy(header.data() + 8, &version, 4);
  uint32_t header_crc = Crc32c(std::string_view(header.data(), 12));
  std::memcpy(header.data() + 12, &header_crc, 4);

  V2Writer writer(&out);
  writer.WriteRaw(header.data(), header.size());

  // Dictionary arena: offsets, kinds, contiguous bytes — id order, so
  // TermIds stay implicit.
  const uint64_t n_terms = dict_.size();
  std::vector<uint64_t> offsets(size_t(n_terms) + 1, 0);
  std::vector<uint8_t> kinds(size_t(n_terms), 0);
  std::string arena;
  {
    uint64_t total = 0;
    for (TermId id = 1; id <= n_terms; ++id) {
      total += dict_.Lookup(id).lexical.size();
    }
    arena.reserve(size_t(total));
  }
  for (TermId id = 1; id <= n_terms; ++id) {
    const Term& term = dict_.Lookup(id);
    offsets[id - 1] = arena.size();
    kinds[id - 1] = uint8_t(term.kind);
    arena += term.lexical;
  }
  offsets[size_t(n_terms)] = arena.size();
  writer.WriteSection(v2::kTermOffsets, offsets.data(), offsets.size() * 8,
                      offsets.size());
  writer.WriteSection(v2::kTermKinds, kinds.data(), kinds.size(),
                      kinds.size());
  writer.WriteSection(v2::kTermBytes, arena.data(), arena.size(),
                      arena.size());

  // Triple array, store order.
  writer.WriteSection(v2::kTriples, triples_.data(),
                      triples_.size() * sizeof(Triple), triples_.size());

  // Permutation indexes — built by the same code the in-memory serve view
  // uses, so the mapped and the built structures are byte-identical.
  constexpr uint32_t kOrderIds[3] = {v2::kSpoOrder, v2::kPosOrder,
                                     v2::kOspOrder};
  constexpr uint32_t kKeyIds[3] = {v2::kSpoKeys, v2::kPosKeys, v2::kOspKeys};
  std::array<PermIndexData, 3> perms;
  {
    obs::ScopedSpan span("snapshot.index");
    Stopwatch watch;
    perms = BuildPermIndexes(triples_.data(), triples_.size());
    AKB_HISTOGRAM_RECORD("akb.snapshot.index_build_micros",
                         watch.ElapsedMicros());
  }
  for (int p = 0; p < 3; ++p) {
    const PermIndexData& index = perms[p];
    writer.WriteSection(kOrderIds[p], index.order.data(),
                        index.order.size() * 4, index.order.size());
    writer.WriteSection(kKeyIds[p], index.keys.data(), index.keys.size() * 8,
                        index.keys.size());
  }

  // Claims blob, streamed in bounded chunks.
  writer.Begin(v2::kClaims, claims_.size());
  {
    constexpr size_t kChunkTarget = 4 * 1024 * 1024;
    std::string chunk;
    for (const Claim& c : claims_) {
      AppendVarint(&chunk, c.triple.subject);
      AppendVarint(&chunk, c.triple.predicate);
      AppendVarint(&chunk, c.triple.object);
      chunk.push_back(char(c.provenance.extractor));
      uint64_t bits = std::bit_cast<uint64_t>(c.provenance.confidence);
      for (int i = 0; i < 8; ++i) chunk.push_back(char((bits >> (8 * i)) & 0xFF));
      AppendVarint(&chunk, c.provenance.source.size());
      chunk += c.provenance.source;
      if (chunk.size() >= kChunkTarget) {
        writer.Append(chunk.data(), chunk.size());
        chunk.clear();
      }
    }
    if (!chunk.empty()) writer.Append(chunk.data(), chunk.size());
  }
  writer.End();

  // Footer + trailer.
  writer.PadTo(v2::kSectionAlign);
  const uint64_t footer_offset = writer.offset();
  std::string footer;
  footer.reserve(size_t(v2::kNumSections * v2::kSectionEntryBytes));
  for (const V2Writer::Entry& e : writer.entries()) {
    AppendU32(&footer, e.id);
    AppendU32(&footer, 0);
    AppendU64(&footer, e.offset);
    AppendU64(&footer, e.bytes);
    AppendU64(&footer, e.count);
    AppendU32(&footer, e.crc);
    AppendU32(&footer, 0);
  }
  const uint32_t footer_crc = Crc32c(footer);
  writer.WriteRaw(footer.data(), footer.size());

  std::string trailer;
  trailer.reserve(size_t(v2::kTrailerBytes));
  AppendU64(&trailer, footer_offset);
  AppendU64(&trailer, footer.size());
  AppendU32(&trailer, footer_crc);
  AppendU32(&trailer, v2::kNumSections);
  AppendU64(&trailer, n_terms);
  AppendU64(&trailer, triples_.size());
  AppendU64(&trailer, claims_.size());
  AppendU64(&trailer, writer.offset() + v2::kTrailerBytes);
  AppendU32(&trailer, writer.file_crc());
  AppendU32(&trailer, 0);
  trailer.append(v2::kTrailerMagic, 8);
  out.write(trailer.data(), std::streamsize(trailer.size()));

  out.close();
  if (!out) return Status::IoError("write to '" + path + "' failed");
  if (stats != nullptr) {
    *stats = SnapshotStats{};
    stats->version = kSnapshotVersion;
    stats->bytes = footer_offset + uint64_t(footer.size()) + v2::kTrailerBytes;
    stats->terms = n_terms;
    stats->triples = triples_.size();
    stats->claims = claims_.size();
    const auto& secs = writer.entries();
    stats->dict_bytes = secs[0].bytes + secs[1].bytes + secs[2].bytes;
    stats->triples_bytes = secs[3].bytes;
    for (int i = 4; i <= 9; ++i) stats->index_bytes += secs[i].bytes;
    stats->claims_bytes = secs[10].bytes;
  }
  return Status::OK();
}

// ----------------------------------------------------------------- loader

Status TripleStore::LoadSnapshot(const std::string& path,
                                 SnapshotStats* stats) {
  AKB_ASSIGN_OR_RETURN(SnapshotV2View v, OpenSnapshotV2(path));

  TripleStore loaded;
  for (uint64_t i = 0; i < v.num_terms; ++i) {
    Term term{TermKind(v.term_kinds[i]),
              std::string(v.term_bytes + v.term_offsets[i],
                          size_t(v.term_offsets[i + 1] - v.term_offsets[i]))};
    TermId id = loaded.dict_.Intern(term);
    if (id != i + 1) {
      return Status::DataLoss("duplicate term in v2 dictionary arena");
    }
  }
  for (uint64_t i = 0; i < v.num_triples; ++i) {
    // Distinctness and id ranges were validated against the sorted indexes
    // by OpenSnapshotV2.
    const Triple& t = v.triples[i];
    size_t ti = loaded.triples_.size();
    loaded.triples_.push_back(t);
    loaded.claims_of_.emplace_back();
    loaded.triple_index_.emplace(t, ti);
  }

  // The claims blob is CRC-clean; parse its records.
  const std::string_view block = v.claims;
  size_t pos = 0;
  auto parse_term_id = [&](size_t* p, TermId* out) -> Status {
    uint64_t id = 0;
    AKB_RETURN_IF_ERROR(ParseVarint(block, p, &id, "claims"));
    if (id < 1 || id > v.num_terms) {
      return Status::DataLoss("term id out of range in claims");
    }
    *out = TermId(id);
    return Status::OK();
  };
  for (uint64_t i = 0; i < v.num_claims; ++i) {
    Triple t;
    AKB_RETURN_IF_ERROR(parse_term_id(&pos, &t.subject));
    AKB_RETURN_IF_ERROR(parse_term_id(&pos, &t.predicate));
    AKB_RETURN_IF_ERROR(parse_term_id(&pos, &t.object));
    uint8_t extractor = 0;
    AKB_RETURN_IF_ERROR(ParseByte(block, &pos, &extractor, "claims"));
    if (extractor > uint8_t(ExtractorKind::kOther)) {
      return Status::DataLoss("extractor kind out of range");
    }
    uint64_t bits = 0;
    AKB_RETURN_IF_ERROR(ParseU64(block, &pos, &bits, "claims"));
    double confidence = std::bit_cast<double>(bits);
    if (!std::isfinite(confidence)) {
      return Status::DataLoss("non-finite claim confidence");
    }
    uint64_t len = 0;
    AKB_RETURN_IF_ERROR(ParseVarint(block, &pos, &len, "claims"));
    std::string_view source;
    AKB_RETURN_IF_ERROR(ParseBytes(block, &pos, len, &source, "claims"));
    auto it = loaded.triple_index_.find(t);
    if (it == loaded.triple_index_.end()) {
      return Status::DataLoss(
          "claim references a triple absent from the triples section");
    }
    loaded.claims_of_[it->second].push_back(loaded.claims_.size());
    loaded.claims_.push_back(
        Claim{t, Provenance{std::string(source), ExtractorKind(extractor),
                            confidence}});
  }
  if (pos != block.size()) {
    return Status::DataLoss("trailing bytes in v2 claims section");
  }

  if (stats != nullptr) *stats = v.stats;
  *this = std::move(loaded);
  return Status::OK();
}

Result<SnapshotStats> ReadSnapshotInfo(const std::string& path) {
  TripleStore store;
  SnapshotStats stats;
  Status status = store.LoadSnapshot(path, &stats);
  if (!status.ok()) return status;
  return stats;
}

}  // namespace akb::rdf
