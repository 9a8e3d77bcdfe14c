// Serve-side statusz sections — everything a QueryEngine knows about
// itself, folded into an obs::StatusReport.
//
// obs owns the report builder but cannot depend on serve, so this is the
// bridge: FillStatusReport contributes the "kb", "bgp_cache",
// "query_latency", "qps", "slo", and "slow_queries" sections from the
// engine's view, join cache, rolling windows, and slow-query log.
// Callers (the CLI's `statusz` command, serve-bench's --statusz-every)
// add the registry-wide metrics and fusion-source sections themselves
// when they want them.
#ifndef AKB_SERVE_SERVE_STATUSZ_H_
#define AKB_SERVE_SERVE_STATUSZ_H_

#include "obs/statusz.h"
#include "serve/query_engine.h"

namespace akb::serve {

/// Adds (or replaces) the engine-derived sections on `report`.
void FillStatusReport(const QueryEngine& engine, obs::StatusReport* report);

}  // namespace akb::serve

#endif  // AKB_SERVE_SERVE_STATUSZ_H_
