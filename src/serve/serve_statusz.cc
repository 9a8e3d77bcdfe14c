#include "serve/serve_statusz.h"

#include <utility>
#include <vector>

#include "obs/rolling.h"
#include "rdf/mmap_file.h"

namespace akb::serve {

namespace {

obs::Json KbSection(const KbView& view) {
  obs::Json kb = obs::Json::Object();
  kb.Set("triples", int64_t(view.num_triples()));
  kb.Set("dictionary_terms", int64_t(view.num_terms()));
  kb.Set("index_bytes", int64_t(view.IndexBytes()));
  kb.Set("mapped", view.mapped());
  kb.Set("mmap_active", rdf::MmapFile::active_mappings());
  const KbViewProvenance& prov = view.provenance();
  if (!prov.snapshot_path.empty()) {
    obs::Json snapshot = obs::Json::Object();
    snapshot.Set("path", prov.snapshot_path);
    snapshot.Set("version", int64_t(prov.snapshot_version));
    snapshot.Set("bytes", int64_t(prov.snapshot_bytes));
    obs::Json sections = obs::Json::Object();
    sections.Set("dict_bytes", int64_t(prov.dict_bytes));
    sections.Set("triples_bytes", int64_t(prov.triples_bytes));
    sections.Set("index_bytes", int64_t(prov.index_bytes));
    sections.Set("claims_bytes", int64_t(prov.claims_bytes));
    snapshot.Set("sections", std::move(sections));
    kb.Set("snapshot", std::move(snapshot));
  } else {
    kb.Set("source", "in-memory store");
  }
  return kb;
}

obs::Json CacheSection(const BgpResultCache* cache) {
  obs::Json section = obs::Json::Object();
  section.Set("enabled", cache != nullptr);
  if (cache == nullptr) return section;
  const CacheStats stats = cache->Stats();
  section.Set("shards", int64_t(cache->num_shards()));
  section.Set("shard_budget_bytes", int64_t(cache->shard_budget_bytes()));
  section.Set("entries", int64_t(stats.entries));
  section.Set("bytes", int64_t(stats.bytes));
  section.Set("hits", int64_t(stats.hits));
  section.Set("misses", int64_t(stats.misses));
  const uint64_t lookups = stats.hits + stats.misses;
  section.Set("hit_rate",
              lookups > 0 ? double(stats.hits) / double(lookups) : 0.0);
  section.Set("insertions", int64_t(stats.insertions));
  section.Set("evictions", int64_t(stats.evictions));
  section.Set("oversize", int64_t(stats.oversize));
  return section;
}

}  // namespace

void FillStatusReport(const QueryEngine& engine, obs::StatusReport* report) {
  report->AddSection("kb", KbSection(engine.view()));
  report->AddSection("bgp_cache", CacheSection(engine.bgp_cache()));

  const int64_t now = obs::NowMicros();
  const std::vector<std::pair<std::string, int64_t>> windows = {
      {"10s", 10 * 1'000'000LL},
      {"1m", 60 * 1'000'000LL},
      {"5m", 300 * 1'000'000LL},
  };
  std::vector<std::pair<std::string, obs::WindowStats>> latency;
  std::vector<std::pair<std::string, obs::WindowStats>> qps;
  for (const auto& [label, micros] : windows) {
    obs::WindowStats lat = engine.slo().latency().Over(micros, now);
    latency.emplace_back(label, lat);
    // Request counts ride on the latency histogram (one record per
    // request); strip the percentiles for the QPS view.
    obs::WindowStats counts;
    counts.window_micros = lat.window_micros;
    counts.count = lat.count;
    counts.sum = lat.count;
    counts.rate_per_sec = lat.rate_per_sec;
    qps.emplace_back(label, counts);
  }
  report->AddWindows("query_latency_micros", latency);
  report->AddWindows("qps", qps);

  report->AddSlo(engine.slo().Evaluate(now), engine.slo().config());

  obs::Json slow = engine.slow_log().ToJson();
  slow.Set("sampled_queries", int64_t(engine.sampled_queries()));
  report->AddSection("slow_queries", std::move(slow));
}

}  // namespace akb::serve
