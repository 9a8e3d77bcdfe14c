// Round-trip, error-taxonomy, and crash-safe-publish tests for the binary
// snapshot format.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "rdf/ntriples.h"
#include "rdf/snapshot.h"
#include "rdf/triple_store.h"

namespace akb::rdf {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
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

TripleStore SampleStore() {
  TripleStore store;
  store.InsertDecoded(Term::Iri("http://e/a"), Term::Iri("http://p/x"),
                      Term::Literal("v1"),
                      Provenance{"site-1", ExtractorKind::kDomTree, 0.75});
  store.InsertDecoded(Term::Iri("http://e/a"), Term::Iri("http://p/x"),
                      Term::Literal("v2"),
                      Provenance{"site-2", ExtractorKind::kWebText, 0.25});
  store.InsertDecoded(Term::Iri("http://e/b"), Term::Iri("http://p/y"),
                      Term::Iri("http://e/c"),
                      Provenance{"kb", ExtractorKind::kExistingKb, 1.0});
  store.InsertDecoded(Term::Blank("n0"), Term::Iri("http://p/y"),
                      Term::Literal("hostile \"quote\" \\ back\nnew\r\tend"),
                      Provenance{"", ExtractorKind::kOther, 0.0});
  return store;
}

// Claims compare field-by-field through the provenanced N-Triples text,
// which covers terms, triple ids, and provenance in one comparison.
std::string Fingerprint(const TripleStore& store) {
  NTriplesWriteOptions options;
  options.include_provenance = true;
  return WriteNTriples(store, options);
}

TEST(SnapshotTest, EmptyStoreRoundTrips) {
  std::string path = TempPath("empty.akbsnap");
  TripleStore store;
  SnapshotStats saved;
  ASSERT_TRUE(store.SaveSnapshot(path, SnapshotFormat::kV2, &saved).ok());
  EXPECT_EQ(saved.terms, 0u);
  EXPECT_EQ(saved.triples, 0u);
  EXPECT_EQ(saved.claims, 0u);
  EXPECT_GT(saved.bytes, 0u);

  TripleStore restored;
  SnapshotStats loaded;
  ASSERT_TRUE(restored.LoadSnapshot(path, &loaded).ok());
  EXPECT_EQ(restored.num_triples(), 0u);
  EXPECT_EQ(restored.num_claims(), 0u);
  EXPECT_EQ(loaded.bytes, saved.bytes);
  std::remove(path.c_str());
}

TEST(SnapshotTest, ClaimsAndProvenanceRoundTrip) {
  std::string path = TempPath("sample.akbsnap");
  TripleStore store = SampleStore();
  SnapshotStats saved;
  ASSERT_TRUE(store.SaveSnapshot(path, SnapshotFormat::kV2, &saved).ok());
  EXPECT_EQ(saved.version, kSnapshotVersion);
  EXPECT_EQ(saved.claims, store.num_claims());
  EXPECT_EQ(saved.triples, store.num_triples());
  EXPECT_EQ(saved.terms, store.dictionary().size());

  TripleStore restored;
  ASSERT_TRUE(restored.LoadSnapshot(path).ok());
  EXPECT_EQ(Fingerprint(restored), Fingerprint(store));

  // Dictionary ids survive verbatim (terms section is in id order).
  for (size_t i = 0; i < store.num_triples(); ++i) {
    EXPECT_EQ(restored.triple(i), store.triple(i)) << i;
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, ResaveIsByteIdentical) {
  std::string path1 = TempPath("gen1.akbsnap");
  std::string path2 = TempPath("gen2.akbsnap");
  TripleStore store = SampleStore();
  ASSERT_TRUE(store.SaveSnapshot(path1).ok());
  TripleStore restored;
  ASSERT_TRUE(restored.LoadSnapshot(path1).ok());
  ASSERT_TRUE(restored.SaveSnapshot(path2).ok());
  EXPECT_EQ(ReadFile(path1), ReadFile(path2));
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

TEST(SnapshotTest, LoadReplacesPriorContents) {
  std::string path = TempPath("replace.akbsnap");
  ASSERT_TRUE(SampleStore().SaveSnapshot(path).ok());
  TripleStore store;
  store.InsertDecoded(Term::Iri("http://e/old"), Term::Iri("http://p/old"),
                      Term::Literal("stale"), {});
  ASSERT_TRUE(store.LoadSnapshot(path).ok());
  EXPECT_EQ(Fingerprint(store), Fingerprint(SampleStore()));
  std::remove(path.c_str());
}

TEST(SnapshotTest, MissingFileIsIoError) {
  TripleStore store;
  Status status = store.LoadSnapshot("/nonexistent/dir/x.akbsnap");
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_EQ(store.SaveSnapshot("/nonexistent/dir/x.akbsnap").code(),
            StatusCode::kIoError);
}

TEST(SnapshotTest, BadMagicIsParseError) {
  std::string path = TempPath("notasnap.akbsnap");
  WriteFile(path, "<http://e/a> <http://p/x> \"v\" .\n");
  TripleStore store;
  EXPECT_EQ(store.LoadSnapshot(path).code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST(SnapshotTest, FutureVersionIsUnimplemented) {
  std::string path = TempPath("future.akbsnap");
  ASSERT_TRUE(TripleStore().SaveSnapshot(path).ok());
  std::string bytes = ReadFile(path);
  bytes[8] = char(kSnapshotVersion + 1);  // u32le version after the magic
  WriteFile(path, bytes);
  TripleStore store;
  EXPECT_EQ(store.LoadSnapshot(path).code(), StatusCode::kUnimplemented);
  std::remove(path.c_str());
}

/// Names in the directory of `path` that start with its file name plus
/// ".tmp." — leftovers of an unfinished save.
std::vector<std::string> TempSiblings(const std::string& path) {
  std::filesystem::path p(path);
  const std::string prefix = p.filename().string() + ".tmp.";
  std::vector<std::string> found;
  for (const auto& entry :
       std::filesystem::directory_iterator(p.parent_path())) {
    std::string name = entry.path().filename().string();
    if (name.compare(0, prefix.size(), prefix) == 0) found.push_back(name);
  }
  return found;
}

TEST(SnapshotTest, FailedSaveLeavesOldFileByteIdentical) {
  // A save that dies mid-write (here: the file-size limit, with SIGXFSZ
  // ignored so write(2) fails with EFBIG instead of killing the process)
  // must report kIoError, keep the last good snapshot, and clean up.
  std::string path = TempPath("crash_safe.akbsnap");
  ASSERT_TRUE(SampleStore().SaveSnapshot(path).ok());
  const std::string before = ReadFile(path);
  ASSERT_GT(before.size(), 8192u);
  EXPECT_TRUE(TempSiblings(path).empty()) << "a successful save left one";

  // Every snapshot is at least a dozen 4 KiB pages, so any store
  // overruns the limit below.
  TripleStore other = SampleStore();
  other.InsertDecoded(Term::Iri("http://e/new"), Term::Iri("http://p/x"),
                      Term::Literal("fresh"), {});
  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: no gtest assertions; report through the exit code.
    signal(SIGXFSZ, SIG_IGN);
    struct rlimit limit = {8192, 8192};
    if (setrlimit(RLIMIT_FSIZE, &limit) != 0) _exit(3);
    Status saved = other.SaveSnapshot(path);
    _exit(saved.code() == StatusCode::kIoError ? 0 : 1);
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFEXITED(wstatus)) << "child died with a signal";
  EXPECT_EQ(WEXITSTATUS(wstatus), 0) << "save did not fail with kIoError";

  EXPECT_EQ(ReadFile(path), before);
  EXPECT_TRUE(TempSiblings(path).empty());
  TripleStore store;
  ASSERT_TRUE(store.LoadSnapshot(path).ok());
  EXPECT_EQ(Fingerprint(store), Fingerprint(SampleStore()));
  std::remove(path.c_str());
}

TEST(SnapshotTest, FailedLoadLeavesStoreUntouched) {
  std::string path = TempPath("damaged.akbsnap");
  ASSERT_TRUE(SampleStore().SaveSnapshot(path).ok());
  std::string bytes = ReadFile(path);
  bytes[bytes.size() / 2] ^= 0x40;
  WriteFile(path, bytes);

  TripleStore store;
  store.InsertDecoded(Term::Iri("http://e/keep"), Term::Iri("http://p/k"),
                      Term::Literal("kept"), {});
  std::string before = Fingerprint(store);
  EXPECT_FALSE(store.LoadSnapshot(path).ok());
  EXPECT_EQ(Fingerprint(store), before);
  std::remove(path.c_str());
}

TEST(SnapshotTest, TrailingGarbageIsDataLoss) {
  std::string path = TempPath("trailing.akbsnap");
  ASSERT_TRUE(SampleStore().SaveSnapshot(path).ok());
  WriteFile(path, ReadFile(path) + "x");
  TripleStore store;
  EXPECT_EQ(store.LoadSnapshot(path).code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(SnapshotTest, ReadSnapshotInfoMatchesSaveStats) {
  std::string path = TempPath("info.akbsnap");
  TripleStore store = SampleStore();
  SnapshotStats saved;
  ASSERT_TRUE(store.SaveSnapshot(path, SnapshotFormat::kV2, &saved).ok());
  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->version, saved.version);
  EXPECT_EQ(info->bytes, saved.bytes);
  EXPECT_EQ(info->terms, saved.terms);
  EXPECT_EQ(info->triples, saved.triples);
  EXPECT_EQ(info->claims, saved.claims);
  std::remove(path.c_str());
}

TEST(SnapshotTest, LargeStoreSpansMultipleBlocks) {
  // ~150 KiB of term bytes: sections span many 4 KiB pages.
  std::string path = TempPath("large.akbsnap");
  TripleStore store;
  for (int i = 0; i < 2000; ++i) {
    store.InsertDecoded(
        Term::Iri("http://e/entity-" + std::to_string(i)),
        Term::Iri("http://p/attribute-" + std::to_string(i % 17)),
        Term::Literal("value " + std::string(64, char('a' + i % 26)) +
                      std::to_string(i)),
        Provenance{"source-" + std::to_string(i % 7),
                   ExtractorKind::kDomTree, 0.5 + (i % 100) / 256.0});
  }
  ASSERT_TRUE(store.SaveSnapshot(path).ok());
  TripleStore restored;
  ASSERT_TRUE(restored.LoadSnapshot(path).ok());
  EXPECT_EQ(Fingerprint(restored), Fingerprint(store));
  std::remove(path.c_str());
}

// Pins the exact bytes a save writes for a fixed, seeded store by their
// size and the trailer's whole-file CRC, so a change to the permutation
// build (or to any other section) that moves a byte fails here. 70,000
// interned terms put subject, predicate and object ids on both sides of
// 65,536, so both 16-bit halves of every component vary.
TEST(SnapshotTest, GoldenBytesOfSeededStore) {
  constexpr TermId kTerms = 70000;
  TripleStore store;
  for (TermId i = 1; i <= kTerms; ++i) {
    std::string iri = "http://e/t";
    iri += std::to_string(i);
    ASSERT_EQ(store.dictionary().Intern(Term::Iri(iri)), i);
  }
  SplitMix64 rng(20150531);
  for (int i = 0; i < 4000; ++i) {
    Triple t{TermId(1 + rng.Next() % kTerms),
             TermId(65500 + rng.Next() % 100),
             TermId(1 + rng.Next() % kTerms)};
    // A narrow subject range gives some subjects many triples.
    if (i % 5 == 0) t.subject = TermId(65530 + rng.Next() % 12);
    std::string source = "s";
    source += char('0' + rng.Next() % 9);
    store.Insert(t, Provenance{source, ExtractorKind::kDomTree,
                               double(rng.Next() % 1000) / 1000.0});
  }
  ASSERT_GT(store.num_triples(), 3000u);

  std::string path = TempPath("golden.akbsnap");
  ASSERT_TRUE(store.SaveSnapshot(path).ok());
  const std::string bytes = ReadFile(path);
  ASSERT_GE(bytes.size(), snapshot_v2::kTrailerBytes);
  // The trailer ends with u32 file_crc, u32 0, magic[8].
  uint32_t file_crc = 0;
  std::memcpy(&file_crc, bytes.data() + bytes.size() - 16, 4);
  EXPECT_EQ(bytes.size(), 1962496u);
  EXPECT_EQ(file_crc, 0xAF0CC837u);
  EXPECT_EQ(Crc32c(std::string_view(bytes.data(),
                                    bytes.size() - snapshot_v2::kTrailerBytes)),
            file_crc);
  std::remove(path.c_str());
}

TEST(SnapshotCrcTest, KnownVectorsAndSeedChaining) {
  // RFC 3720 test vector: 32 zero bytes.
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8A9136AAu);
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  // Chaining a split buffer equals one pass over the whole.
  std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= data.size(); ++split) {
    EXPECT_EQ(Crc32c(data.substr(split), Crc32c(data.substr(0, split))),
              Crc32c(data))
        << "split " << split;
  }
}

}  // namespace
}  // namespace akb::rdf
