// Basic-graph-pattern (SPARQL-lite) join queries over KbView.
//
// A BgpQuery is a conjunction of up to kMaxBgpPatterns triple patterns
// whose positions are either bound term ids or shared variables:
//
//   BgpQuery q;
//   auto e = q.Var("e"), v = q.Var("v");
//   q.Add(e, BgpQuery::Bound(p_class), BgpQuery::Bound(c_film));  // ?e type Film
//   q.Add(e, BgpQuery::Bound(p_year), v);                         // ?e year ?v
//
// Execution is an index-nested-loop join: the planner (PlanBgp) orders
// the patterns most-selective-first using the *actual* index range sizes
// KbView::Count reads off the permutation indexes, then the executor
// substitutes bindings pattern by pattern, each probe resolving to one
// contiguous index range. Results stream in a deterministic order (for a
// fixed view and plan) and are materialized as BgpRows with columns in
// canonical variable order, so the row set for a given pattern multiset
// is comparable across join orders and variable namings.
//
// Errors are typed Status values, decided before or during execution:
//   kInvalidArgument  no patterns, more than kMaxBgpPatterns patterns,
//                     an unused variable, or an unbound cross-product
//                     (a pattern that cannot be connected to the join
//                     through a shared variable)
//   kOutOfRange       the row limit was exceeded mid-stream
//
// NaiveBgpEval is the correctness oracle: the same query evaluated by
// nested TripleStore::Match loops in written pattern order, sharing only
// the query model with the planner/executor. The differential property
// suite (tests/serve/bgp_differential_test.cc) holds the two equal as
// multisets over random stores, every join order, and cache states.
#ifndef AKB_SERVE_BGP_H_
#define AKB_SERVE_BGP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "rdf/triple_store.h"
#include "serve/kb_view.h"
#include "serve/query_trace.h"
#include "serve/sharded_lru.h"

namespace akb::serve {

/// Hard cap on patterns per query: 4 is enough for every join template in
/// the related work (star lookups, one- and two-hop paths) and bounds the
/// canonicalizer's permutation search at 4! = 24.
inline constexpr size_t kMaxBgpPatterns = 4;

/// One position of a BGP pattern: a bound TermId or a variable slot.
struct BgpTerm {
  rdf::TermId term = rdf::kInvalidTermId;  ///< valid when !is_var()
  int32_t var = -1;                        ///< >= 0: slot in the var table

  bool is_var() const { return var >= 0; }
  bool operator==(const BgpTerm& other) const {
    return term == other.term && var == other.var;
  }
};

struct BgpPattern {
  BgpTerm subject;
  BgpTerm predicate;
  BgpTerm object;

  /// Position access (0 = subject, 1 = predicate, 2 = object).
  const BgpTerm& at(size_t pos) const {
    return pos == 0 ? subject : pos == 1 ? predicate : object;
  }
};

/// A conjunctive query: patterns plus the variable name table. Variables
/// are interned by name — two Var("e") calls return the same slot, which
/// is what makes them join.
class BgpQuery {
 public:
  /// Interns `name` (without any leading '?') and returns its term.
  BgpTerm Var(std::string_view name);

  static BgpTerm Bound(rdf::TermId id) { return BgpTerm{id, -1}; }

  void Add(BgpTerm subject, BgpTerm predicate, BgpTerm object) {
    patterns_.push_back(BgpPattern{subject, predicate, object});
  }

  const std::vector<BgpPattern>& patterns() const { return patterns_; }
  const std::vector<std::string>& var_names() const { return var_names_; }
  size_t num_vars() const { return var_names_.size(); }

 private:
  std::vector<BgpPattern> patterns_;
  std::vector<std::string> var_names_;
};

struct BgpOptions {
  /// Maximum rows the query may produce. Producing one more row than this
  /// is a kOutOfRange error (not a silent truncation): a serving layer
  /// must fail loudly when a caller underestimates a join's output.
  size_t limit = 100'000;
};

/// Materialized result rows. Columns are ordered by canonical variable
/// rank (see CanonicalizeBgp) and named with the query's variable names,
/// so equivalent queries produce column-compatible row sets regardless of
/// join order or variable naming.
struct BgpRows {
  std::vector<std::string> vars;  ///< column names, canonical order
  std::vector<rdf::TermId> data;  ///< num_rows x vars.size(), row-major
  size_t num_rows = 0;

  size_t num_cols() const { return vars.size(); }
  rdf::TermId at(size_t row, size_t col) const {
    return data[row * vars.size() + col];
  }
};

/// Canonical form of a query's pattern multiset: `key` is a byte string
/// invariant under pattern reordering and variable renaming (the result
/// cache key), and `var_rank[slot]` maps each variable slot to its
/// canonical column. Computed by lexicographically-least serialization
/// over all pattern permutations (bounded by kMaxBgpPatterns! = 24).
struct BgpCanonical {
  std::string key;
  std::vector<uint32_t> var_rank;
};

/// Requires ValidateBgp(query).ok().
BgpCanonical CanonicalizeBgp(const BgpQuery& query);

/// Structural validation shared by every evaluator: 1..kMaxBgpPatterns
/// patterns, and every interned variable used by at least one pattern.
Status ValidateBgp(const BgpQuery& query);

/// An execution order over the query's patterns, plus the static index
/// range size the planner read for each (aligned with `order`).
struct BgpPlan {
  std::vector<size_t> order;
  std::vector<size_t> est_rows;
};

/// Most-selective-first greedy ordering from actual index range sizes:
/// start from the pattern with the smallest KbView::Count (variables as
/// wildcards), then repeatedly take the smallest-range pattern that is
/// connected (shares a variable with an already-placed pattern, or is
/// fully bound). Fully-bound patterns are connectivity-neutral existence
/// filters: they may be placed anywhere, and the first variable-bearing
/// pattern is always placeable no matter how many of them precede it.
/// Ties break to the lower pattern index — the plan is a pure function
/// of the counts and the written query, never of hash or iteration
/// order. A variable-bearing pattern that can never connect makes the
/// query an unbound cross-product: kInvalidArgument.
Result<BgpPlan> PlanBgp(const KbView& view, const BgpQuery& query);

/// Checks that `order` is a permutation of the pattern indices and that
/// it is connected in the PlanBgp sense (used by ExecuteBgpWithPlan to
/// accept externally chosen orders, e.g. the differential tests' sweep
/// over every permutation).
Status ValidateBgpOrder(const BgpQuery& query,
                        const std::vector<size_t>& order);

/// Plans and executes. Row order is deterministic for a (view, query):
/// the nested join enumerates each pattern's matches in the resolved
/// permutation's key order.
Result<BgpRows> ExecuteBgp(const KbView& view, const BgpQuery& query,
                           const BgpOptions& options = {});

/// Executes with a caller-supplied join order (`plan.est_rows` may be
/// empty). Binding multisets are identical for every valid order.
Result<BgpRows> ExecuteBgpWithPlan(const KbView& view, const BgpQuery& query,
                                   const BgpPlan& plan,
                                   const BgpOptions& options = {});

/// Reference evaluator: nested TripleStore::Match loops in written
/// pattern order, no planner, no permutation indexes. Deliberately
/// naive — it shares no execution code with ExecuteBgp, which is what
/// makes the differential tests meaningful. Applies the same validation
/// and limit semantics.
Result<BgpRows> NaiveBgpEval(const rdf::TripleStore& store,
                             const BgpQuery& query,
                             const BgpOptions& options = {});

/// Human-readable form for slow-query logs: "?e <p> <o> . ?e <q> ?v".
std::string DecodeBgp(const KbView& view, const BgpQuery& query);

/// Sharded LRU over canonicalized BGP results (see CanonicalizeBgp):
/// equivalent queries — any pattern order, any variable names — share
/// one entry. The sharded LRU core (serve/sharded_lru.h) counts hits,
/// misses and evictions under its shard locks; Stats() is the only copy
/// of them (statusz "bgp_cache", serve-bench), none goes to the registry.
class BgpResultCache {
 public:
  using RowsPtr = std::shared_ptr<const BgpRows>;

  explicit BgpResultCache(const ResultCacheConfig& config = {});

  BgpResultCache(const BgpResultCache&) = delete;
  BgpResultCache& operator=(const BgpResultCache&) = delete;

  RowsPtr Get(const std::string& key) { return Get(key, nullptr); }
  RowsPtr Get(const std::string& key, QueryTrace* trace);

  void Put(const std::string& key, RowsPtr value) {
    Put(key, std::move(value), nullptr);
  }
  void Put(const std::string& key, RowsPtr value, QueryTrace* trace);

  CacheStats Stats() const { return lru_.Stats(); }
  void Clear() { lru_.Clear(); }
  size_t num_shards() const { return lru_.num_shards(); }
  size_t shard_budget_bytes() const { return lru_.shard_budget_bytes(); }

  /// Byte charge: key + names + row payload + fixed overhead.
  static size_t EntryBytes(const std::string& key, const BgpRows& rows);

 private:
  ShardedLru<std::string, BgpRows, std::hash<std::string>> lru_;
};

}  // namespace akb::serve

#endif  // AKB_SERVE_BGP_H_
