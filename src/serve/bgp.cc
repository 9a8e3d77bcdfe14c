#include "serve/bgp.h"

#include <algorithm>
#include <numeric>

#include "common/stopwatch.h"

namespace akb::serve {

namespace {

using rdf::TermId;
using rdf::TriplePattern;

/// The pattern with every variable position widened to a wildcard — what
/// the planner feeds KbView::Count for the static range size.
TriplePattern Widened(const BgpPattern& pattern) {
  TriplePattern tp;
  tp.subject = pattern.subject.is_var() ? rdf::kInvalidTermId
                                        : pattern.subject.term;
  tp.predicate = pattern.predicate.is_var() ? rdf::kInvalidTermId
                                            : pattern.predicate.term;
  tp.object = pattern.object.is_var() ? rdf::kInvalidTermId
                                      : pattern.object.term;
  return tp;
}

bool HasVar(const BgpPattern& pattern) {
  return pattern.subject.is_var() || pattern.predicate.is_var() ||
         pattern.object.is_var();
}

/// True when `pattern` can join the patterns placed so far: it is fully
/// bound (degenerate existence check), or one of its variables is already
/// bound by a placed pattern.
bool Connectable(const BgpPattern& pattern, const std::vector<bool>& bound) {
  if (!HasVar(pattern)) return true;
  for (size_t pos = 0; pos < 3; ++pos) {
    const BgpTerm& term = pattern.at(pos);
    if (term.is_var() && bound[size_t(term.var)]) return true;
  }
  return false;
}

void MarkBound(const BgpPattern& pattern, std::vector<bool>* bound) {
  for (size_t pos = 0; pos < 3; ++pos) {
    const BgpTerm& term = pattern.at(pos);
    if (term.is_var()) (*bound)[size_t(term.var)] = true;
  }
}

Status LimitExceeded(size_t limit) {
  return Status::OutOfRange("bgp row limit exceeded (limit=" +
                            std::to_string(limit) + ")");
}

/// Column layout shared by every evaluator: rows.vars[rank] is the name
/// of the variable with canonical rank `rank`; returns rank -> slot.
std::vector<uint32_t> CanonicalColumns(const BgpQuery& query,
                                       const BgpCanonical& canon,
                                       BgpRows* rows) {
  rows->vars.resize(query.num_vars());
  std::vector<uint32_t> rank_to_slot(query.num_vars());
  for (size_t slot = 0; slot < query.num_vars(); ++slot) {
    const uint32_t rank = canon.var_rank[slot];
    rank_to_slot[rank] = uint32_t(slot);
    rows->vars[rank] = query.var_names()[slot];
  }
  return rank_to_slot;
}

/// Index-nested-loop join over KbView. Bindings live in `binding`
/// (kInvalidTermId = unbound); each level substitutes what is bound,
/// resolves one contiguous index range, and binds or checks the rest.
class ViewJoin {
 public:
  ViewJoin(const KbView& view, const BgpQuery& query,
           const std::vector<size_t>& order, size_t limit, BgpRows* out,
           std::vector<uint32_t> rank_to_slot)
      : view_(view),
        query_(query),
        order_(order),
        limit_(limit),
        out_(out),
        rank_to_slot_(std::move(rank_to_slot)),
        binding_(query.num_vars(), rdf::kInvalidTermId) {}

  Status Run() { return Descend(0); }

 private:
  Status Descend(size_t depth) {
    if (depth == order_.size()) {
      if (out_->num_rows == limit_) return LimitExceeded(limit_);
      for (uint32_t slot : rank_to_slot_) out_->data.push_back(binding_[slot]);
      ++out_->num_rows;
      return Status::OK();
    }
    const BgpPattern& pattern = query_.patterns()[order_[depth]];
    TriplePattern tp;
    tp.subject = Substitute(pattern.subject);
    tp.predicate = Substitute(pattern.predicate);
    tp.object = Substitute(pattern.object);
    for (size_t index : view_.Match(tp)) {
      const rdf::Triple& t = view_.triple(index);
      const TermId values[3] = {t.subject, t.predicate, t.object};
      // Bind this pattern's free variables, rejecting the triple if a
      // repeated variable (within the pattern or across patterns) would
      // need two different values.
      int32_t bound_here[3];
      size_t num_bound = 0;
      bool consistent = true;
      for (size_t pos = 0; pos < 3; ++pos) {
        const BgpTerm& term = pattern.at(pos);
        if (!term.is_var()) continue;
        TermId& slot = binding_[size_t(term.var)];
        if (slot == rdf::kInvalidTermId) {
          slot = values[pos];
          bound_here[num_bound++] = term.var;
        } else if (slot != values[pos]) {
          consistent = false;
          break;
        }
      }
      Status status = consistent ? Descend(depth + 1) : Status::OK();
      for (size_t i = num_bound; i > 0; --i) {
        binding_[size_t(bound_here[i - 1])] = rdf::kInvalidTermId;
      }
      if (!status.ok()) return status;
    }
    return Status::OK();
  }

  TermId Substitute(const BgpTerm& term) const {
    // An unbound variable stays a wildcard (kInvalidTermId).
    return term.is_var() ? binding_[size_t(term.var)] : term.term;
  }

  const KbView& view_;
  const BgpQuery& query_;
  const std::vector<size_t>& order_;
  const size_t limit_;
  BgpRows* out_;
  std::vector<uint32_t> rank_to_slot_;
  std::vector<TermId> binding_;
};

}  // namespace

BgpTerm BgpQuery::Var(std::string_view name) {
  for (size_t i = 0; i < var_names_.size(); ++i) {
    if (var_names_[i] == name) return BgpTerm{rdf::kInvalidTermId, int32_t(i)};
  }
  var_names_.emplace_back(name);
  return BgpTerm{rdf::kInvalidTermId, int32_t(var_names_.size() - 1)};
}

Status ValidateBgp(const BgpQuery& query) {
  if (query.patterns().empty()) {
    return Status::InvalidArgument("bgp query has no patterns");
  }
  if (query.patterns().size() > kMaxBgpPatterns) {
    return Status::InvalidArgument(
        "bgp query has " + std::to_string(query.patterns().size()) +
        " patterns, max is " + std::to_string(kMaxBgpPatterns));
  }
  std::vector<bool> used(query.num_vars(), false);
  for (const BgpPattern& pattern : query.patterns()) {
    for (size_t pos = 0; pos < 3; ++pos) {
      const BgpTerm& term = pattern.at(pos);
      if (term.is_var()) used[size_t(term.var)] = true;
    }
  }
  for (size_t slot = 0; slot < used.size(); ++slot) {
    if (!used[slot]) {
      return Status::InvalidArgument("bgp variable ?" +
                                     query.var_names()[slot] +
                                     " is not used by any pattern");
    }
  }
  return Status::OK();
}

BgpCanonical CanonicalizeBgp(const BgpQuery& query) {
  const auto& patterns = query.patterns();
  std::vector<size_t> perm(patterns.size());
  std::iota(perm.begin(), perm.end(), size_t{0});
  BgpCanonical best;
  std::vector<int32_t> rename(query.num_vars());
  std::string key;
  do {
    std::fill(rename.begin(), rename.end(), -1);
    int32_t next_rank = 0;
    key.clear();
    for (size_t pi : perm) {
      const BgpPattern& pattern = patterns[pi];
      for (size_t pos = 0; pos < 3; ++pos) {
        const BgpTerm& term = pattern.at(pos);
        if (term.is_var()) {
          int32_t& rank = rename[size_t(term.var)];
          if (rank < 0) rank = next_rank++;
          key += 'v';
          key += std::to_string(rank);
        } else {
          key += 'b';
          key += std::to_string(term.term);
        }
        key += pos == 2 ? ';' : ',';
      }
    }
    if (best.key.empty() || key < best.key) {
      best.key = key;
      best.var_rank.assign(rename.begin(), rename.end());
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

Result<BgpPlan> PlanBgp(const KbView& view, const BgpQuery& query) {
  Status valid = ValidateBgp(query);
  if (!valid.ok()) return valid;
  const auto& patterns = query.patterns();
  std::vector<size_t> range(patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    range[i] = view.Count(Widened(patterns[i]));
  }
  std::vector<bool> placed(patterns.size(), false);
  std::vector<bool> bound(query.num_vars(), false);
  // Fully-bound patterns bind no variables, so the connectivity gate only
  // arms once a variable-bearing pattern has been placed: the first var
  // pattern is always a legal start (wherever it lands in the order),
  // every later one must join what is already bound. Gating on step > 0
  // instead would dead-end any query whose cheapest pattern is fully
  // bound — greedy would place it first and then find nothing connectable.
  bool any_var_placed = false;
  BgpPlan plan;
  for (size_t step = 0; step < patterns.size(); ++step) {
    constexpr size_t kNone = size_t(-1);
    size_t best = kNone;
    for (size_t i = 0; i < patterns.size(); ++i) {
      if (placed[i]) continue;
      if (any_var_placed && !Connectable(patterns[i], bound)) continue;
      // Strict less-than: ties break to the lowest pattern index, so the
      // plan never depends on hash or iteration order.
      if (best == kNone || range[i] < range[best]) best = i;
    }
    if (best == kNone) {
      return Status::InvalidArgument(
          "unbound cross-product: no remaining pattern shares a variable "
          "with the patterns already joined");
    }
    placed[best] = true;
    MarkBound(patterns[best], &bound);
    if (HasVar(patterns[best])) any_var_placed = true;
    plan.order.push_back(best);
    plan.est_rows.push_back(range[best]);
  }
  return plan;
}

Status ValidateBgpOrder(const BgpQuery& query,
                        const std::vector<size_t>& order) {
  const auto& patterns = query.patterns();
  if (order.size() != patterns.size()) {
    return Status::InvalidArgument("bgp order size " +
                                   std::to_string(order.size()) +
                                   " != pattern count " +
                                   std::to_string(patterns.size()));
  }
  std::vector<bool> seen(patterns.size(), false);
  for (size_t i : order) {
    if (i >= patterns.size() || seen[i]) {
      return Status::InvalidArgument(
          "bgp order is not a permutation of the pattern indices");
    }
    seen[i] = true;
  }
  std::vector<bool> bound(query.num_vars(), false);
  // Same connectivity rule as PlanBgp: fully-bound patterns are neutral,
  // and the first variable-bearing pattern may appear at any step.
  bool any_var_placed = false;
  for (size_t step = 0; step < order.size(); ++step) {
    const BgpPattern& pattern = patterns[order[step]];
    if (any_var_placed && !Connectable(pattern, bound)) {
      return Status::InvalidArgument(
          "unbound cross-product: pattern " + std::to_string(order[step]) +
          " shares no bound variable at step " + std::to_string(step));
    }
    MarkBound(pattern, &bound);
    if (HasVar(pattern)) any_var_placed = true;
  }
  return Status::OK();
}

Result<BgpRows> ExecuteBgpWithPlan(const KbView& view, const BgpQuery& query,
                                   const BgpPlan& plan,
                                   const BgpOptions& options) {
  Status valid = ValidateBgp(query);
  if (!valid.ok()) return valid;
  valid = ValidateBgpOrder(query, plan.order);
  if (!valid.ok()) return valid;
  BgpCanonical canon = CanonicalizeBgp(query);
  BgpRows rows;
  std::vector<uint32_t> rank_to_slot = CanonicalColumns(query, canon, &rows);
  ViewJoin join(view, query, plan.order, options.limit, &rows,
                std::move(rank_to_slot));
  Status status = join.Run();
  if (!status.ok()) return status;
  return rows;
}

Result<BgpRows> ExecuteBgp(const KbView& view, const BgpQuery& query,
                           const BgpOptions& options) {
  auto plan = PlanBgp(view, query);
  if (!plan.ok()) return plan.status();
  return ExecuteBgpWithPlan(view, query, *plan, options);
}

Result<BgpRows> NaiveBgpEval(const rdf::TripleStore& store,
                             const BgpQuery& query,
                             const BgpOptions& options) {
  Status valid = ValidateBgp(query);
  if (!valid.ok()) return valid;
  BgpCanonical canon = CanonicalizeBgp(query);
  BgpRows rows;
  std::vector<uint32_t> rank_to_slot = CanonicalColumns(query, canon, &rows);

  // Deliberately independent of the KbView executor: written pattern
  // order, TripleStore::Match per level, no planner. Correct for any
  // query shape — a disconnected prefix just enumerates the cross
  // product — which is what makes it the oracle.
  const auto& patterns = query.patterns();
  std::vector<TermId> binding(query.num_vars(), rdf::kInvalidTermId);
  // Recursive lambda via explicit self-reference.
  struct Frame {
    const rdf::TripleStore& store;
    const std::vector<BgpPattern>& patterns;
    std::vector<TermId>& binding;
    const std::vector<uint32_t>& rank_to_slot;
    size_t limit;
    BgpRows* out;

    Status Eval(size_t depth) {
      if (depth == patterns.size()) {
        if (out->num_rows == limit) return LimitExceeded(limit);
        for (uint32_t slot : rank_to_slot) out->data.push_back(binding[slot]);
        ++out->num_rows;
        return Status::OK();
      }
      const BgpPattern& pattern = patterns[depth];
      TriplePattern tp;
      tp.subject = pattern.subject.is_var()
                       ? binding[size_t(pattern.subject.var)]
                       : pattern.subject.term;
      tp.predicate = pattern.predicate.is_var()
                         ? binding[size_t(pattern.predicate.var)]
                         : pattern.predicate.term;
      tp.object = pattern.object.is_var()
                      ? binding[size_t(pattern.object.var)]
                      : pattern.object.term;
      for (size_t index : store.Match(tp)) {
        const rdf::Triple& t = store.triple(index);
        const TermId values[3] = {t.subject, t.predicate, t.object};
        int32_t bound_here[3];
        size_t num_bound = 0;
        bool consistent = true;
        for (size_t pos = 0; pos < 3; ++pos) {
          const BgpTerm& term = pattern.at(pos);
          if (!term.is_var()) continue;
          TermId& slot = binding[size_t(term.var)];
          if (slot == rdf::kInvalidTermId) {
            slot = values[pos];
            bound_here[num_bound++] = term.var;
          } else if (slot != values[pos]) {
            consistent = false;
            break;
          }
        }
        Status status = consistent ? Eval(depth + 1) : Status::OK();
        for (size_t i = num_bound; i > 0; --i) {
          binding[size_t(bound_here[i - 1])] = rdf::kInvalidTermId;
        }
        if (!status.ok()) return status;
      }
      return Status::OK();
    }
  };
  Frame frame{store, patterns, binding, rank_to_slot, options.limit, &rows};
  Status status = frame.Eval(0);
  if (!status.ok()) return status;
  return rows;
}

std::string DecodeBgp(const KbView& view, const BgpQuery& query) {
  auto term_text = [&](const BgpTerm& term) -> std::string {
    if (term.is_var()) return "?" + query.var_names()[size_t(term.var)];
    return view.TermToString(term.term);
  };
  std::string out;
  for (const BgpPattern& pattern : query.patterns()) {
    if (!out.empty()) out += " . ";
    out += term_text(pattern.subject) + " " + term_text(pattern.predicate) +
           " " + term_text(pattern.object);
  }
  return out;
}

namespace {
// Fixed per-entry bookkeeping charge (list node, hash slot, shared_ptr
// control block), approximated once so byte budgets are deterministic
// across platforms instead of chasing allocator internals.
constexpr size_t kBgpEntryOverheadBytes = 160;
}  // namespace

size_t BgpResultCache::EntryBytes(const std::string& key,
                                  const BgpRows& rows) {
  size_t names = 0;
  for (const std::string& name : rows.vars) names += name.size() + 16;
  return kBgpEntryOverheadBytes + key.size() + names +
         rows.data.size() * sizeof(rdf::TermId);
}

BgpResultCache::BgpResultCache(const ResultCacheConfig& config)
    : lru_(config.num_shards, config.max_bytes,
           EntryBytes(std::string(), BgpRows{})) {}

BgpResultCache::RowsPtr BgpResultCache::Get(const std::string& key,
                                            QueryTrace* trace) {
  if (trace == nullptr) return lru_.Get(key);
  Stopwatch watch;
  RowsPtr value = lru_.Get(key);
  trace->cache_get_nanos = watch.ElapsedNanos();
  trace->cache_hit = value != nullptr;
  return value;
}

void BgpResultCache::Put(const std::string& key, RowsPtr value,
                         QueryTrace* trace) {
  if (!value) return;
  const size_t bytes = EntryBytes(key, *value);
  if (trace == nullptr) {
    lru_.Put(key, std::move(value), bytes);
    return;
  }
  Stopwatch watch;
  lru_.Put(key, std::move(value), bytes);
  trace->cache_put_nanos = watch.ElapsedNanos();
}

}  // namespace akb::serve
