// Pins the request streams the serve benchmark sends: GenerateBgpWorkload
// and GenerateQueryWorkload over a KB of the benchmark's shape must keep
// producing the same patterns, so a refactor of the generator (or of the
// store it samples from) cannot silently change what a benchmark run
// measures. The digests were captured before the generator last changed.
#include "synth/query_workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/random.h"

namespace akb::synth {
namespace {

constexpr size_t kClaims = 100000;
constexpr size_t kQueries = 5000;

// The serve benchmark's KB: about 60 facts per subject, few predicates,
// many objects, all drawn from one seeded Rng.
rdf::TripleStore BuildBenchKb(uint64_t seed) {
  rdf::TripleStore store;
  Rng rng(seed);
  size_t num_subjects = std::max<size_t>(16, kClaims / 60);
  size_t num_predicates = std::max<size_t>(8, kClaims / 2500);
  size_t num_objects = std::max<size_t>(16, kClaims / 15);
  std::vector<rdf::TermId> subjects, predicates, objects;
  for (size_t i = 0; i < num_subjects; ++i) {
    subjects.push_back(
        store.dictionary().InternIri("http://e/s" + std::to_string(i)));
  }
  for (size_t i = 0; i < num_predicates; ++i) {
    predicates.push_back(
        store.dictionary().InternIri("http://p/p" + std::to_string(i)));
  }
  for (size_t i = 0; i < num_objects; ++i) {
    objects.push_back(
        store.dictionary().InternLiteral("v" + std::to_string(i)));
  }
  for (size_t c = 0; c < kClaims; ++c) {
    store.Insert({rng.Pick(subjects), rng.Pick(predicates), rng.Pick(objects)},
                 rdf::Provenance{"bench", rdf::ExtractorKind::kOther, 1.0});
  }
  return store;
}

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(char((v >> (8 * i)) & 0xff));
}

uint64_t DigestPatterns(const std::vector<rdf::TriplePattern>& patterns) {
  std::string bytes;
  for (const rdf::TriplePattern& p : patterns) {
    AppendU32(&bytes, p.subject);
    AppendU32(&bytes, p.predicate);
    AppendU32(&bytes, p.object);
  }
  return Fnv1a64(bytes);
}

uint64_t DigestQueries(const std::vector<serve::BgpQuery>& queries) {
  std::string bytes;
  for (const serve::BgpQuery& q : queries) {
    AppendU32(&bytes, uint32_t(q.patterns().size()));
    for (const serve::BgpPattern& p : q.patterns()) {
      for (size_t pos = 0; pos < 3; ++pos) {
        const serve::BgpTerm& term = p.at(pos);
        bytes.push_back(term.is_var() ? 'v' : 't');
        AppendU32(&bytes, term.is_var() ? uint32_t(term.var) : term.term);
      }
    }
    for (const std::string& name : q.var_names()) bytes += name + ';';
  }
  return Fnv1a64(bytes);
}

struct Pinned {
  uint64_t kb_seed;
  uint64_t bgp_digest;
  uint64_t lookup_digest;
};

// Captured from the generator as the serve benchmark configures it:
// workload seed = kb_seed * 2 + 1, joins at Zipf 0, lookups at Zipf 1.2
// without predicate scans.
constexpr Pinned kPinned[] = {
    {7, 0xe84ff877ff855944ull, 0x6d719597ab37174full},
    {301, 0x4e7653ec7e1a22f8ull, 0x6fdfa0c9573dd254ull},
};

void PrintTo(const Pinned& pinned, std::ostream* os) {
  *os << "kb seed " << pinned.kb_seed;
}

class QueryWorkloadPinTest : public ::testing::TestWithParam<Pinned> {};

TEST_P(QueryWorkloadPinTest, BgpStreamIsStable) {
  const Pinned& pinned = GetParam();
  rdf::TripleStore store = BuildBenchKb(pinned.kb_seed);
  BgpWorkloadConfig config;
  config.num_queries = kQueries;
  config.seed = pinned.kb_seed * 2 + 1;
  config.zipf = 0.0;
  std::vector<serve::BgpQuery> queries = GenerateBgpWorkload(store, config);
  ASSERT_EQ(queries.size(), kQueries);
  EXPECT_EQ(DigestQueries(queries), pinned.bgp_digest)
      << std::hex << "0x" << DigestQueries(queries);
}

TEST_P(QueryWorkloadPinTest, LookupStreamIsStable) {
  const Pinned& pinned = GetParam();
  rdf::TripleStore store = BuildBenchKb(pinned.kb_seed);
  QueryWorkloadConfig config;
  config.num_queries = kQueries;
  config.seed = pinned.kb_seed * 2 + 1;
  config.zipf = 1.2;
  config.predicate_scan_weight = 0.0;
  std::vector<rdf::TriplePattern> patterns =
      GenerateQueryWorkload(store, config);
  ASSERT_EQ(patterns.size(), kQueries);
  EXPECT_EQ(DigestPatterns(patterns), pinned.lookup_digest)
      << std::hex << "0x" << DigestPatterns(patterns);
}

INSTANTIATE_TEST_SUITE_P(BenchKbSeeds, QueryWorkloadPinTest,
                         ::testing::ValuesIn(kPinned),
                         [](const ::testing::TestParamInfo<Pinned>& info) {
                           return "Seed" + std::to_string(info.param.kb_seed);
                         });

}  // namespace
}  // namespace akb::synth
