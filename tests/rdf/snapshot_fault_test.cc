// Fault injection for the binary snapshot reader: every single-byte
// corruption and every truncation point of a real snapshot must produce a
// typed error — never a crash, hang, or silently partial store. Footer
// surgery with resealed CRCs proves the structural checks exist
// independently of the checksums.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "rdf/snapshot.h"
#include "rdf/triple_store.h"

namespace akb::rdf {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TripleStore SampleStore() {
  TripleStore store;
  store.InsertDecoded(Term::Iri("http://e/a"), Term::Iri("http://p/x"),
                      Term::Literal("value \"one\"\n"),
                      Provenance{"site-1", ExtractorKind::kDomTree, 0.75});
  store.InsertDecoded(Term::Iri("http://e/b"), Term::Iri("http://p/x"),
                      Term::Iri("http://e/a"),
                      Provenance{"kb", ExtractorKind::kExistingKb, 1.0});
  store.InsertDecoded(Term::Blank("n0"), Term::Iri("http://p/y"),
                      Term::Literal("two"),
                      Provenance{"text", ExtractorKind::kWebText, 0.5});
  return store;
}

std::string SaveSampleSnapshot(const std::string& name) {
  std::string path = TempPath(name);
  EXPECT_TRUE(SampleStore().SaveSnapshot(path).ok());
  return path;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
}

bool IsTypedSnapshotError(const Status& status) {
  return status.code() == StatusCode::kParseError ||
         status.code() == StatusCode::kUnimplemented ||
         status.code() == StatusCode::kDataLoss;
}

uint64_t LoadU64At(const std::string& bytes, size_t offset) {
  uint64_t v;
  std::memcpy(&v, bytes.data() + offset, sizeof v);
  return v;
}

void StoreU32At(std::string* bytes, size_t offset, uint32_t v) {
  std::memcpy(bytes->data() + offset, &v, sizeof v);
}

void StoreU64At(std::string* bytes, size_t offset, uint64_t v) {
  std::memcpy(bytes->data() + offset, &v, sizeof v);
}

/// Recomputes footer_crc and file_crc after structural surgery, so only
/// the structural validation — not a checksum — can reject the mutant.
void ResealV2(std::string* bytes) {
  size_t trailer = bytes->size() - snapshot_v2::kTrailerBytes;
  uint64_t footer_offset = LoadU64At(*bytes, trailer);
  uint64_t footer_bytes = LoadU64At(*bytes, trailer + 8);
  StoreU32At(bytes, trailer + 16,
             Crc32c(std::string_view(bytes->data() + footer_offset,
                                     size_t(footer_bytes))));
  StoreU32At(bytes, trailer + 56,
             Crc32c(std::string_view(bytes->data(),
                                     size_t(footer_offset + footer_bytes))));
}

/// Overwrites one byte of `path` in place (cheaper than rewriting the
/// whole page-aligned file per mutation in the exhaustive sweep).
void PatchByte(const std::string& path, size_t offset, char value) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(std::streampos(offset));
  f.put(value);
}

TEST(SnapshotFaultTest, EveryBitFlipFailsTypedOrLoadsFully) {
  // Single-bit flips at every byte, cycling through all eight bit
  // positions. The whole-file CRC detects every single-bit error, so no
  // flip may load — not even "fully".
  std::string path = SaveSampleSnapshot("flip.akbsnap");
  std::string pristine = ReadFile(path);
  ASSERT_FALSE(pristine.empty());
  for (size_t i = 0; i < pristine.size(); ++i) {
    const uint8_t bit = uint8_t(1u << (i % 8));
    PatchByte(path, i, char(uint8_t(pristine[i]) ^ bit));
    TripleStore store;
    Status status = store.LoadSnapshot(path);
    ASSERT_FALSE(status.ok()) << "flip of byte " << i << " loaded";
    EXPECT_TRUE(IsTypedSnapshotError(status))
        << "byte " << i << ": " << status.ToString();
    EXPECT_EQ(store.num_triples(), 0u) << "byte " << i;
    PatchByte(path, i, pristine[i]);
  }
  std::remove(path.c_str());
}

TEST(SnapshotFaultTest, EveryTruncationFailsTyped) {
  // Every prefix length, longest first, so each step is one ftruncate
  // instead of a rewrite of the page-aligned file.
  std::string path = SaveSampleSnapshot("trunc.akbsnap");
  const size_t size = ReadFile(path).size();
  for (size_t len = size; len-- > 0;) {
    std::filesystem::resize_file(path, len);
    TripleStore store;
    Status status = store.LoadSnapshot(path);
    ASSERT_FALSE(status.ok()) << "truncated to " << len << " bytes";
    EXPECT_TRUE(IsTypedSnapshotError(status))
        << "len " << len << ": " << status.ToString();
    // A failed load must not leave partial contents behind.
    EXPECT_EQ(store.num_triples(), 0u) << "len " << len;
    EXPECT_EQ(store.num_claims(), 0u) << "len " << len;
  }
  std::remove(path.c_str());
}

TEST(SnapshotV2FaultTest, EveryByteCorruptionFailsTyped) {
  std::string path = SaveSampleSnapshot("v2_flip.akbsnap");
  std::string pristine = ReadFile(path);
  ASSERT_GT(pristine.size(), snapshot_v2::kHeaderBytes);

  // file_crc covers every byte up to the footer's end (padding included)
  // and each trailer field is checked against the file or covered by the
  // trailer magic, so there is no "loads fully" escape hatch: every
  // single-byte corruption must fail, and must fail typed.
  for (size_t i = 0; i < pristine.size(); ++i) {
    PatchByte(path, i, char(uint8_t(pristine[i]) ^ 0xFF));
    TripleStore store;
    Status status = store.LoadSnapshot(path);
    ASSERT_FALSE(status.ok()) << "corrupt byte " << i << " loaded";
    EXPECT_TRUE(IsTypedSnapshotError(status))
        << "byte " << i << ": " << status.ToString();
    EXPECT_EQ(store.num_triples(), 0u) << "byte " << i;
    // The zero-copy open path shares the validator; spot-check it stays
    // in lockstep without doubling the sweep's cost.
    if (i % 483 == 0) {
      auto open = OpenSnapshotV2(path);
      ASSERT_FALSE(open.ok()) << "byte " << i;
      EXPECT_TRUE(IsTypedSnapshotError(open.status())) << "byte " << i;
    }
    PatchByte(path, i, pristine[i]);
  }

  // The restore loop must have healed the file exactly.
  TripleStore store;
  EXPECT_TRUE(store.LoadSnapshot(path).ok());
  EXPECT_EQ(store.num_triples(), 3u);
  std::remove(path.c_str());
}

TEST(SnapshotV2FaultTest, TruncationAtEveryBoundaryFailsTyped) {
  std::string path = SaveSampleSnapshot("v2_trunc.akbsnap");
  std::string pristine = ReadFile(path);
  std::string mutant_path = TempPath("v2_trunc_mutant.akbsnap");

  // Every page boundary (where sections start), each one +/- 1, the
  // trailer and footer edges, and the degenerate prefixes.
  std::set<size_t> cuts = {0, 1, 7, 8, 11, 12, 16, 100};
  for (size_t page = 0; page < pristine.size();
       page += snapshot_v2::kSectionAlign) {
    if (page > 0) cuts.insert(page - 1);
    cuts.insert(page);
    cuts.insert(page + 1);
  }
  size_t trailer = pristine.size() - snapshot_v2::kTrailerBytes;
  uint64_t footer_offset = LoadU64At(pristine, trailer);
  for (size_t cut : {size_t(footer_offset) - 1, size_t(footer_offset),
                     size_t(footer_offset) + 1, trailer - 1, trailer,
                     trailer + 1, pristine.size() - 8, pristine.size() - 1}) {
    cuts.insert(cut);
  }

  for (size_t len : cuts) {
    if (len >= pristine.size()) continue;
    WriteFile(mutant_path, pristine.substr(0, len));
    TripleStore store;
    Status status = store.LoadSnapshot(mutant_path);
    ASSERT_FALSE(status.ok()) << "truncated to " << len;
    EXPECT_TRUE(IsTypedSnapshotError(status))
        << "len " << len << ": " << status.ToString();
    EXPECT_EQ(store.num_triples(), 0u) << "len " << len;
    EXPECT_EQ(store.num_claims(), 0u) << "len " << len;
    auto open = OpenSnapshotV2(mutant_path);
    ASSERT_FALSE(open.ok()) << "len " << len;
    EXPECT_TRUE(IsTypedSnapshotError(open.status()))
        << "len " << len << ": " << open.status().ToString();
  }
  std::remove(path.c_str());
  std::remove(mutant_path.c_str());
}

TEST(SnapshotV2FaultTest, EveryAppendedByteValueFailsTyped) {
  std::string path = SaveSampleSnapshot("v2_append.akbsnap");
  std::string pristine = ReadFile(path);
  std::string mutant_path = TempPath("v2_append_mutant.akbsnap");
  for (int extra = 0; extra < 256; ++extra) {
    WriteFile(mutant_path, pristine + char(extra));
    TripleStore store;
    EXPECT_EQ(store.LoadSnapshot(mutant_path).code(), StatusCode::kDataLoss)
        << "appended " << extra;
  }
  std::remove(path.c_str());
  std::remove(mutant_path.c_str());
}

TEST(SnapshotV2FaultTest, ZeroLengthAndTinyFilesFailTyped) {
  std::string path = TempPath("v2_tiny.akbsnap");
  WriteFile(path, "");
  TripleStore store;
  EXPECT_EQ(store.LoadSnapshot(path).code(), StatusCode::kParseError);
  EXPECT_EQ(OpenSnapshotV2(path).status().code(), StatusCode::kParseError);

  // A bare v2 magic with nothing behind it is the right format, damaged.
  WriteFile(path, std::string(snapshot_v2::kMagic, 8));
  EXPECT_EQ(store.LoadSnapshot(path).code(), StatusCode::kDataLoss);
  EXPECT_EQ(OpenSnapshotV2(path).status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(SnapshotV2FaultTest, FormatMasqueradesFailTyped) {
  // A foreign body wearing the v2 magic: routed to the validator, which
  // rejects it as damaged.
  std::string mutant_path = TempPath("masq_mutant.akbsnap");
  std::string mutant(snapshot_v2::kMagic, 8);
  mutant += std::string(64 * 1024, '\0');
  WriteFile(mutant_path, mutant);
  TripleStore store;
  EXPECT_EQ(store.LoadSnapshot(mutant_path).code(), StatusCode::kDataLoss);

  // A v2 body wearing the retired v1 magic: named as a v1 file this build
  // no longer reads, by both the loader and the zero-copy open.
  std::string v2_path = SaveSampleSnapshot("masq_v2.akbsnap");
  mutant = ReadFile(v2_path);
  std::memcpy(mutant.data(), "AKBSNAP1", 8);
  WriteFile(mutant_path, mutant);
  Status retired = store.LoadSnapshot(mutant_path);
  EXPECT_EQ(retired.code(), StatusCode::kUnimplemented);
  EXPECT_NE(retired.message().find("no longer"), std::string::npos)
      << retired.ToString();
  EXPECT_NE(retired.message().find("pipeline --save-kb"), std::string::npos)
      << retired.ToString();
  EXPECT_EQ(OpenSnapshotV2(mutant_path).status().code(),
            StatusCode::kUnimplemented);

  // A v2 file claiming format version 3: forward-compat refusal, checked
  // before any checksum so future readers can extend the header.
  mutant = ReadFile(v2_path);
  StoreU32At(&mutant, 8, 3);
  WriteFile(mutant_path, mutant);
  EXPECT_EQ(store.LoadSnapshot(mutant_path).code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(OpenSnapshotV2(mutant_path).status().code(),
            StatusCode::kUnimplemented);

  std::remove(v2_path.c_str());
  std::remove(mutant_path.c_str());
}

TEST(SnapshotV2FaultTest, MisalignedSectionOffsetFailsStructurally) {
  std::string path = SaveSampleSnapshot("v2_misalign.akbsnap");
  std::string bytes = ReadFile(path);
  size_t trailer = bytes.size() - snapshot_v2::kTrailerBytes;
  uint64_t footer_offset = LoadU64At(bytes, trailer);

  // Shift the second section's offset by 8: still in bounds, but neither
  // 4 KiB-aligned nor where the previous section's end says it must be.
  // Reseal both CRCs so only the structural check can catch it.
  size_t entry = size_t(footer_offset) + snapshot_v2::kSectionEntryBytes;
  std::string mutant = bytes;
  StoreU64At(&mutant, entry + 8, LoadU64At(bytes, entry + 8) + 8);
  ResealV2(&mutant);
  WriteFile(path, mutant);
  TripleStore store;
  EXPECT_EQ(store.LoadSnapshot(path).code(), StatusCode::kDataLoss);
  EXPECT_EQ(OpenSnapshotV2(path).status().code(), StatusCode::kDataLoss);

  // Same surgery on a trailer count: the sections' byte lengths no longer
  // match what the counts imply.
  mutant = bytes;
  StoreU64At(&mutant, trailer + 24, LoadU64At(bytes, trailer + 24) + 1);
  ResealV2(&mutant);
  WriteFile(path, mutant);
  EXPECT_EQ(store.LoadSnapshot(path).code(), StatusCode::kDataLoss);

  // Control: resealing the pristine bytes must be a no-op that loads.
  mutant = bytes;
  ResealV2(&mutant);
  EXPECT_EQ(mutant, bytes);
  WriteFile(path, mutant);
  EXPECT_TRUE(store.LoadSnapshot(path).ok());
  std::remove(path.c_str());
}

TEST(SnapshotV2FaultTest, ReadSnapshotInfoRejectsCorruptionToo) {
  std::string path = SaveSampleSnapshot("v2_info.akbsnap");
  std::string pristine = ReadFile(path);
  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->version, kSnapshotVersion);
  EXPECT_EQ(info->triples, 3u);
  for (size_t i = 0; i < 4; ++i) {
    size_t at = pristine.size() * i / 4;
    PatchByte(path, at, char(uint8_t(pristine[at]) ^ 0x10));
    EXPECT_FALSE(ReadSnapshotInfo(path).ok()) << "quarter " << i;
    PatchByte(path, at, pristine[at]);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace akb::rdf
