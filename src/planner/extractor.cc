#include "planner/extractor.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "common/cancel.h"
#include "common/faultpoints.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "datalog/parser.h"
#include "datalog/validator.h"
#include "planner/extractor_internal.h"
#include "planner/incremental.h"
#include "planner/join_analysis.h"
#include "planner/preprocess.h"
#include "planner/segmenter.h"
#include "planner/typed_maps.h"
#include "query/executor.h"

namespace graphgen::planner {

// Executes every plan, independent queries concurrently: on the shared
// pool when one is provided (deadlock-free — RunBatch lets the caller
// participate), else on scoped threads; inline when serial. Results land
// at the plan's index, so callers consume them in deterministic order.
// The thread budget is split between rule fan-out and intra-query
// parallelism rather than multiplied (N concurrent rules each get
// ~budget/N operator threads; a lone rule gets the whole budget). The
// split never changes results — output is identical for every count.
std::vector<ExecOutput> RunPlans(
    const rel::Database& db, const std::vector<const query::PlanNode*>& plans,
    const ExtractOptions& options,
    const std::vector<obs::ProfileNode*>* profs) {
  const size_t n = plans.size();
  const size_t budget =
      options.threads == 0 ? DefaultThreadCount() : options.threads;
  const size_t fan_out =
      (n <= 1 || options.threads == 1) ? 1 : std::min(n, budget);
  const query::Executor executor(
      &db, {.threads = std::max<size_t>(1, budget / fan_out),
            .ctx = options.ctx});
  std::vector<ExecOutput> outs(plans.size());
  // Per-plan profile slots are pre-created by the caller (deque children:
  // stable pointers), so each worker writes only its own subtree — no
  // synchronization needed on the profile during the fan-out.
  // The catch keeps pool workers throw-free: an injected or real
  // std::bad_alloc inside a query surfaces as this plan's Status instead
  // of terminating the process (ThreadPool tasks must not throw).
  auto run_one = [&executor, &plans, &outs, &options, profs](size_t i) {
    obs::ProfileNode* prof =
        (profs != nullptr && i < profs->size()) ? (*profs)[i] : nullptr;
    obs::Span span(prof);
    try {
      auto result = executor.ExecuteColumnar(*plans[i], prof);
      outs[i].status = result.status();
      if (result.ok()) outs[i].rows = std::move(result).ValueOrDie();
    } catch (const std::exception& e) {
      outs[i].status = Status::ExecutionError(
          std::string("extraction query threw: ") + e.what());
    } catch (...) {
      outs[i].status =
          Status::ExecutionError("extraction query threw a non-exception");
    }
  };
  if (fan_out <= 1) {
    for (size_t i = 0; i < n; ++i) run_one(i);
    return outs;
  }
  // Bound concurrency to fan_out even on a pool larger than the thread
  // budget: submit fan_out drainers over a shared index, not one task
  // per plan.
  std::atomic<size_t> next{0};
  auto drain = [&run_one, &next, n] {
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= n) return;
      run_one(i);
    }
  };
  if (options.pool != nullptr) {
    std::vector<std::function<void()>> tasks(fan_out, drain);
    options.pool->RunBatch(std::move(tasks));
    return outs;
  }
  ParallelInvoke(fan_out, [&drain](size_t) { drain(); });
  return outs;
}

Result<std::unique_ptr<query::PlanNode>> BuildNodesPlan(const dsl::Rule& rule,
                                                        size_t row_begin,
                                                        size_t row_end) {
  if (rule.body.size() != 1) {
    return Status::Unsupported(
        "Nodes rules with multiple body atoms are not supported; define a "
        "view table or use a single atom");
  }
  const dsl::Atom& atom = rule.body[0];
  // A scan has no way to state an equality between two of its columns.
  for (size_t i = 0; i < atom.args.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (atom.args[i].kind == dsl::Term::Kind::kVariable &&
          atom.args[j].kind == dsl::Term::Kind::kVariable &&
          atom.args[i].variable == atom.args[j].variable) {
        return Status::Unsupported("variable " + atom.args[i].variable +
                                   " repeats in a Nodes rule body");
      }
    }
  }

  // Map head args to body columns.
  std::vector<size_t> columns;
  for (const std::string& head_var : rule.head_args) {
    std::optional<size_t> col;
    for (size_t i = 0; i < atom.args.size(); ++i) {
      if (atom.args[i].kind == dsl::Term::Kind::kVariable &&
          atom.args[i].variable == head_var) {
        col = i;
        break;
      }
    }
    if (!col.has_value()) {
      return Status::PlanError("head variable " + head_var +
                               " not found in Nodes body");
    }
    columns.push_back(*col);
  }

  // Predicates: constants in args + comparisons.
  std::vector<query::Predicate> predicates;
  for (size_t c = 0; c < atom.args.size(); ++c) {
    if (atom.args[c].kind == dsl::Term::Kind::kConstant) {
      predicates.push_back({c, query::CompareOp::kEq, atom.args[c].constant});
    }
  }
  for (const dsl::Comparison& cmp : rule.comparisons) {
    if (cmp.rhs_is_var) {
      return Status::Unsupported(
          "variable-variable comparisons are not supported in Nodes rules");
    }
    for (size_t i = 0; i < atom.args.size(); ++i) {
      if (atom.args[i].kind == dsl::Term::Kind::kVariable &&
          atom.args[i].variable == cmp.lhs_var) {
        query::CompareOp op = query::CompareOp::kEq;
        switch (cmp.op) {
          case dsl::PredOp::kEq: op = query::CompareOp::kEq; break;
          case dsl::PredOp::kNe: op = query::CompareOp::kNe; break;
          case dsl::PredOp::kLt: op = query::CompareOp::kLt; break;
          case dsl::PredOp::kLe: op = query::CompareOp::kLe; break;
          case dsl::PredOp::kGt: op = query::CompareOp::kGt; break;
          case dsl::PredOp::kGe: op = query::CompareOp::kGe; break;
        }
        predicates.push_back({i, op, cmp.rhs_const});
        break;
      }
    }
  }

  auto scan = std::make_unique<query::ScanNode>(atom.relation, predicates);
  if (row_begin != 0 || row_end != SIZE_MAX) {
    scan->SetRowRange(row_begin, row_end);
  }
  return std::unique_ptr<query::PlanNode>(std::make_unique<query::ProjectNode>(
      std::move(scan), columns, rule.head_args, /*distinct=*/true));
}

namespace {

// Executes the Nodes rules: creates real nodes, assigns properties, and
// fills the typed external-key → NodeId table. Queries run concurrently
// (phase 2); node-id assignment applies their results serially in rule
// order (phase 3), so ids are deterministic. Key resolution is typed:
// int64 keys probe the flat table, dictionary keys resolve once per
// distinct code, and only mixed columns touch Values.
// With `capture` set (and a single Nodes rule), every applied DISTINCT
// tuple is also recorded (fingerprint and table row) so the incremental
// path can later skip delta rows the basis already saw.
Status ExecuteNodesRules(const rel::Database& db, const dsl::Program& program,
                         const ExtractOptions& options,
                         ExtractionResult& result, TypedIdMap& node_ids,
                         obs::ProfileNode* stage, IncrementalState* capture) {
  GRAPHGEN_FAULT_POINT("extract.nodes.plan");
  GRAPHGEN_RETURN_NOT_OK(options.ctx.Check());
  CondensedStorage& storage = result.storage;

  // Phase 1: translate each rule into a DISTINCT projection plan.
  std::vector<std::unique_ptr<query::PlanNode>> plans;
  for (const dsl::Rule& rule : program.nodes_rules) {
    GRAPHGEN_ASSIGN_OR_RETURN(std::unique_ptr<query::PlanNode> plan,
                              BuildNodesPlan(rule));
    result.sql.push_back(plan->ToSql());
    plans.push_back(std::move(plan));
  }

  // Phase 2: run the node queries concurrently, one profile slot per rule
  // (created up front so worker threads never append to a shared node).
  std::vector<const query::PlanNode*> refs;
  refs.reserve(plans.size());
  for (const auto& p : plans) refs.push_back(p.get());
  std::vector<obs::ProfileNode*> profs;
  if (stage != nullptr) {
    profs.reserve(plans.size());
    for (size_t r = 0; r < plans.size(); ++r) {
      profs.push_back(stage->AddChild("rule", result.sql[r]));
    }
  }
  std::vector<ExecOutput> outs =
      RunPlans(db, refs, options, stage != nullptr ? &profs : nullptr);

  // Phase 3: apply serially in rule order.
  GRAPHGEN_FAULT_POINT("extract.nodes.apply");
  const bool poll = NeedsCtxPoll(options.ctx);
  const bool record = capture != nullptr && program.nodes_rules.size() == 1;
  std::vector<std::pair<uint64_t, uint32_t>> tuples;
  std::string tuple_bytes;
  for (size_t r = 0; r < program.nodes_rules.size(); ++r) {
    const dsl::Rule& rule = program.nodes_rules[r];
    GRAPHGEN_RETURN_NOT_OK(options.ctx.Check());
    GRAPHGEN_RETURN_NOT_OK(outs[r].status);
    result.rows_scanned += outs[r].NumRows();
    if (stage != nullptr) {
      profs[r]->rows = static_cast<int64_t>(outs[r].NumRows());
    }

    // Property columns registered once.
    std::vector<size_t> prop_cols;
    for (size_t i = 1; i < rule.head_args.size(); ++i) {
      prop_cols.push_back(storage.properties().AddColumn(rule.head_args[i]));
    }

    const query::RowIdResult& rows = outs[r].rows;
    EndpointColumn key_col(outs[r], 0);
    // Dictionary key columns memoize the resolved node id per code.
    std::vector<int64_t> code_cache;
    if (key_col.kind() == EndpointColumn::Kind::kDict) {
      code_cache.assign(key_col.dict().size(), -1);
    }
    for (size_t ri = 0; ri < rows.NumRows(); ++ri) {
      if (poll && ri % kCancelStrideRows == 0) {
        GRAPHGEN_RETURN_NOT_OK(options.ctx.Check());
      }
      if (key_col.IsNull(ri)) continue;
      if (record) {
        const uint32_t row = NodeTupleRow(rows, ri);
        EncodeNodeTuple(rows, row, rule.head_args.size(), tuple_bytes);
        tuples.emplace_back(NodeTupleFingerprint(tuple_bytes), row);
      }
      bool fresh = false;
      auto alloc = [&] {
        fresh = true;
        return storage.AddRealNode();
      };
      NodeId id = 0;
      switch (key_col.kind()) {
        case EndpointColumn::Kind::kInt64:
          id = node_ids.ints.GetOrInsert(key_col.Int64(ri), alloc);
          break;
        case EndpointColumn::Kind::kDict: {
          int64_t& c = code_cache[key_col.Code(ri)];
          if (c < 0) {
            const std::string& s = key_col.dict().At(key_col.Code(ri));
            auto it = node_ids.strings.find(std::string_view(s));
            if (it == node_ids.strings.end()) {
              it = node_ids.strings.emplace(s, alloc()).first;
            }
            c = it->second;
          }
          id = static_cast<NodeId>(c);
          break;
        }
        case EndpointColumn::Kind::kValue:
          id = node_ids.GetOrInsertValue(key_col.ValueAt(ri), alloc);
          break;
      }
      if (fresh) {
        // ToStringAt renders dictionary-encoded keys straight from the
        // dictionary entry (identical text to Value::ToString).
        storage.properties().SetExternalKey(id, rows.ToStringAt(ri, 0));
      }
      for (size_t i = 1; i < rule.head_args.size(); ++i) {
        storage.properties().Set(
            id, prop_cols[i - 1],
            rows.IsNullAt(ri, i) ? "" : rows.ToStringAt(ri, i));
      }
    }
  }
  if (record) SpliceNodeTuples(capture->node_tuples, tuples);
  // The column block is final: trim it once, since every representation
  // and captured state built from this graph shares it.
  storage.properties().ShrinkToFit();
  result.real_nodes = storage.NumRealNodes();
  return Status::OK();
}

bool CompareCount(int64_t count, dsl::PredOp op, int64_t threshold) {
  switch (op) {
    case dsl::PredOp::kEq: return count == threshold;
    case dsl::PredOp::kNe: return count != threshold;
    case dsl::PredOp::kLt: return count < threshold;
    case dsl::PredOp::kLe: return count <= threshold;
    case dsl::PredOp::kGt: return count > threshold;
    case dsl::PredOp::kGe: return count >= threshold;
  }
  return false;
}

struct CountPlanParts {
  std::unique_ptr<query::PlanNode> plan;
  std::string sql;
};

// Case 2 of §3.3: a COUNT aggregate forces the full join. Builds the
// whole-chain plan projecting DISTINCT (src, dst, aggvar) so each
// binding counts once per pair.
Result<CountPlanParts> BuildCountConstraintPlan(
    const JoinChain& chain, const dsl::AggregateConstraint& agg) {
  // Column offsets of each atom in the concatenated join output.
  std::vector<size_t> offsets(chain.atoms.size(), 0);
  for (size_t i = 1; i < chain.atoms.size(); ++i) {
    offsets[i] = offsets[i - 1] + chain.atoms[i - 1].atom->args.size();
  }
  // Locate the aggregate variable.
  size_t agg_col = 0;
  bool found = false;
  for (size_t i = 0; i < chain.atoms.size() && !found; ++i) {
    const dsl::Atom& atom = *chain.atoms[i].atom;
    for (size_t c = 0; c < atom.args.size(); ++c) {
      if (atom.args[c].kind == dsl::Term::Kind::kVariable &&
          atom.args[c].variable == agg.variable) {
        agg_col = offsets[i] + c;
        found = true;
        break;
      }
    }
  }
  if (!found) {
    return Status::PlanError("COUNT variable not found in join chain");
  }

  // Full left-deep join over the entire chain.
  std::unique_ptr<query::PlanNode> plan = std::make_unique<query::ScanNode>(
      chain.atoms[0].atom->relation, chain.atoms[0].predicates);
  for (size_t k = 1; k < chain.atoms.size(); ++k) {
    auto right = std::make_unique<query::ScanNode>(
        chain.atoms[k].atom->relation, chain.atoms[k].predicates);
    size_t left_col = offsets[k - 1] + chain.atoms[k - 1].out_col;
    plan = std::make_unique<query::HashJoinNode>(
        std::move(plan), std::move(right), left_col, chain.atoms[k].in_col);
  }
  size_t src_col = chain.atoms.front().in_col;
  size_t dst_col = offsets.back() + chain.atoms.back().out_col;
  auto project = std::make_unique<query::ProjectNode>(
      std::move(plan), std::vector<size_t>{src_col, dst_col, agg_col},
      std::vector<std::string>{"src", "dst", agg.variable},
      /*distinct=*/true);
  CountPlanParts parts;
  parts.sql = project->ToSql() + "  -- GROUP BY src, dst HAVING COUNT(" +
              agg.variable + ") " + std::string(dsl::PredOpToString(agg.op)) +
              " " + std::to_string(agg.threshold);
  parts.plan = std::move(project);
  return parts;
}

// GROUP BY (src, dst) HAVING COUNT(aggvar) <op> threshold over the
// distinct (src, dst, aggvar) bindings, NULL aggvar values not counted;
// adds a direct edge per passing pair ("co-authored multiple papers
// together", §1). Edges are emitted in ascending (src, dst) order — the
// counting map iterates in hash-layout order, which must never leak into
// the stored adjacency. `captured` (nullable) receives the emitted pairs,
// packed and sorted: the rule's one pair set.
Status ApplyCountConstraint(const ExecOutput& out,
                            const dsl::AggregateConstraint& agg,
                            const TypedIdMap& node_ids, const ExecContext& ctx,
                            ExtractionResult& result,
                            std::vector<uint64_t>* captured) {
  GRAPHGEN_FAULT_POINT("extract.edges.count");
  GRAPHGEN_RETURN_NOT_OK(ctx.Check());
  EndpointColumn src_col(out, 0);
  EndpointColumn dst_col(out, 1);
  EndpointColumn agg_col(out, 2);
  RealNodeResolver src(src_col, node_ids);
  RealNodeResolver dst(dst_col, node_ids);
  const size_t n = out.NumRows();
  // The pair-count map is count-constraint scratch, refunded on return;
  // sized for the worst case of all-distinct pairs.
  ScopedCharge scratch;
  GRAPHGEN_RETURN_NOT_OK(scratch.Acquire(
      ctx, n * (sizeof(uint64_t) + sizeof(int64_t)), "COUNT pair map"));
  const bool poll = NeedsCtxPoll(ctx);
  std::unordered_map<uint64_t, int64_t> counts;  // (src << 32 | dst) → count
  for (size_t ri = 0; ri < n; ++ri) {
    if (poll && ri % kCancelStrideRows == 0) {
      GRAPHGEN_RETURN_NOT_OK(ctx.Check());
    }
    if (src_col.IsNull(ri) || dst_col.IsNull(ri)) continue;
    NodeId s = 0;
    NodeId d = 0;
    if (!src.Resolve(ri, &s) || !dst.Resolve(ri, &d)) continue;
    if (s == d) continue;  // self pairs never edges
    // The pair is a group either way; COUNT skips a NULL binding.
    int64_t& count = counts[(static_cast<uint64_t>(s) << 32) | d];
    if (!agg_col.IsNull(ri)) ++count;
  }
  std::vector<uint64_t> passing;
  passing.reserve(counts.size());
  for (const auto& [pair, count] : counts) {
    if (CompareCount(count, agg.op, agg.threshold)) passing.push_back(pair);
  }
  std::sort(passing.begin(), passing.end());
  // Parity assertion: pairs are unique map keys, so the sorted emission
  // order must be strictly increasing.
  assert(std::adjacent_find(passing.begin(), passing.end()) == passing.end());
  std::vector<std::pair<NodeRef, NodeRef>> batch;
  batch.reserve(passing.size());
  for (uint64_t pair : passing) {
    batch.emplace_back(NodeRef::Real(static_cast<NodeId>(pair >> 32)),
                       NodeRef::Real(static_cast<NodeId>(pair & 0xffffffffull)));
  }
  result.storage.AddEdges(batch);
  // Real refs are their ids, so `passing` is already PackPair-packed.
  if (captured != nullptr) *captured = passing;
  return Status::OK();
}

// Planned work for one Edges rule: either a segment list or a
// count-constraint plan, plus the index of its first query unit.
struct EdgeRuleWork {
  std::vector<Segment> segments;
  std::unique_ptr<query::PlanNode> count_plan;
  size_t first_unit = 0;
};

// The full §4.2 pipeline; `capture` (nullable) additionally records the
// incremental-extraction state: node tuples, per-segment emitted pairs,
// boundary maps, node counts, property columns, and the basis version
// vector.
Result<ExtractionResult> ExtractImpl(const rel::Database& db,
                                     const dsl::Program& program,
                                     const ExtractOptions& options,
                                     IncrementalState* capture) {
  ExtractionResult result;
  TypedIdMap node_ids;
  if (capture != nullptr) {
    *capture = IncrementalState{};
    capture->program = program;
    capture->edge_rules.resize(program.edges_rules.size());
  }

  // One flight-recorder stage node per pipeline phase; all null (and all
  // recording skipped) when observability is off.
  const bool profiling = obs::Enabled();
  obs::ProfileNode* nodes_stage =
      profiling ? result.profile.root.AddChild("nodes") : nullptr;

  {
    obs::Span span(nodes_stage);
    GRAPHGEN_RETURN_NOT_OK(
        ExecuteNodesRules(db, program, options, result, node_ids, nodes_stage,
                          capture));
  }
  if (nodes_stage != nullptr) {
    nodes_stage->rows = static_cast<int64_t>(result.real_nodes);
  }

  WallTimer timer;
  obs::ProfileNode* edges_stage =
      profiling ? result.profile.root.AddChild("edges") : nullptr;

  // Phase 1: analyze every Edges rule and collect all query units.
  std::vector<EdgeRuleWork> works;
  std::vector<const query::PlanNode*> units;
  std::vector<obs::ProfileNode*> unit_profs;
  obs::ProfileNode* plan_node =
      edges_stage != nullptr ? edges_stage->AddChild("plan") : nullptr;
  {
    obs::Span plan_span(plan_node);
    GRAPHGEN_FAULT_POINT("extract.edges.plan");
    for (size_t rule_idx = 0; rule_idx < program.edges_rules.size();
         ++rule_idx) {
      GRAPHGEN_RETURN_NOT_OK(options.ctx.Check());
      const dsl::Rule& rule = program.edges_rules[rule_idx];
      GRAPHGEN_ASSIGN_OR_RETURN(
          JoinChain chain,
          AnalyzeEdgesRule(rule, db, options.large_output_factor));

      EdgeRuleWork work;
      work.first_unit = units.size();
      if (rule.count_constraint.has_value()) {
        GRAPHGEN_ASSIGN_OR_RETURN(
            CountPlanParts parts,
            BuildCountConstraintPlan(chain, *rule.count_constraint));
        result.sql.push_back(parts.sql);
        work.count_plan = std::move(parts.plan);
        units.push_back(work.count_plan.get());
        if (edges_stage != nullptr) {
          unit_profs.push_back(
              edges_stage->AddChild("count_query", parts.sql));
        }
        // A COUNT recount cannot be patched from deltas; its emitted
        // pairs are kept so an untouched rule survives the rebuild.
        if (capture != nullptr) {
          capture->edge_rules[rule_idx].patchable = false;
          capture->edge_rules[rule_idx].seen_pairs.resize(1);
        }
      } else {
        GRAPHGEN_ASSIGN_OR_RETURN(work.segments, BuildSegments(chain));
        for (const Segment& seg : work.segments) {
          result.sql.push_back(seg.sql);
          units.push_back(seg.plan.get());
          if (edges_stage != nullptr) {
            unit_profs.push_back(edges_stage->AddChild("segment", seg.sql));
          }
        }
        if (capture != nullptr) {
          EdgeRuleState& ers = capture->edge_rules[rule_idx];
          for (const Segment& seg : work.segments) {
            ers.segment_shape.emplace_back(seg.first_atom, seg.last_atom);
          }
          ers.seen_pairs.resize(work.segments.size());
        }
      }
      works.push_back(std::move(work));
    }
    if (plan_node != nullptr) {
      plan_node->AddStat("rules",
                         static_cast<double>(program.edges_rules.size()));
      plan_node->AddStat("queries", static_cast<double>(units.size()));
    }
  }

  // Phase 2: execute all segment/count queries, rules concurrently.
  std::vector<ExecOutput> outs = RunPlans(
      db, units, options, edges_stage != nullptr ? &unit_profs : nullptr);

  // Phase 3: assemble the condensed graph serially in (rule, segment,
  // row) order. Endpoint keys stay typed end to end: dictionary codes and
  // raw int64 keys resolve through flat maps and per-code caches; no
  // Value is constructed on this loop for typed columns. Emission order
  // does not leak into the result — the canonicalization pass below
  // renumbers virtual ids and sorts adjacency.
  std::unordered_map<uint64_t, TypedIdMap> virtual_maps;
  uint32_t num_virtual = 0;
  auto boundary_map = [&virtual_maps](size_t rule,
                                      size_t boundary) -> TypedIdMap& {
    return virtual_maps[(static_cast<uint64_t>(rule) << 32) | boundary];
  };
  obs::ProfileNode* assembly_node =
      edges_stage != nullptr ? edges_stage->AddChild("assembly") : nullptr;
  WallTimer assembly_timer;
  GRAPHGEN_FAULT_POINT("extract.edges.assembly");
  const bool assembly_poll = NeedsCtxPoll(options.ctx);
  for (size_t rule_idx = 0; rule_idx < works.size(); ++rule_idx) {
    EdgeRuleWork& work = works[rule_idx];
    GRAPHGEN_RETURN_NOT_OK(options.ctx.Check());
    if (work.count_plan != nullptr) {
      ExecOutput& out = outs[work.first_unit];
      GRAPHGEN_RETURN_NOT_OK(out.status);
      result.rows_scanned += out.NumRows();
      if (assembly_node != nullptr) {
        unit_profs[work.first_unit]->rows =
            static_cast<int64_t>(out.NumRows());
      }
      GRAPHGEN_RETURN_NOT_OK(ApplyCountConstraint(
          out, *program.edges_rules[rule_idx].count_constraint, node_ids,
          options.ctx, result,
          capture != nullptr ? &capture->edge_rules[rule_idx].seen_pairs[0]
                             : nullptr));
      continue;
    }

    for (size_t si = 0; si < work.segments.size(); ++si) {
      const Segment& seg = work.segments[si];
      ExecOutput& out = outs[work.first_unit + si];
      GRAPHGEN_RETURN_NOT_OK(out.status);
      result.rows_scanned += out.NumRows();
      if (assembly_node != nullptr) {
        unit_profs[work.first_unit + si]->rows =
            static_cast<int64_t>(out.NumRows());
      }

      const bool first = si == 0;
      const bool last = si + 1 == work.segments.size();

      EndpointColumn src_col(out, 0);
      EndpointColumn dst_col(out, 1);
      std::optional<RealNodeResolver> src_real;
      std::optional<VirtualNodeResolver> src_virt;
      if (first) {
        src_real.emplace(src_col, node_ids);
      } else {
        src_virt.emplace(
            src_col,
            boundary_map(rule_idx, work.segments[si - 1].last_atom),
            num_virtual);
      }
      std::optional<RealNodeResolver> dst_real;
      std::optional<VirtualNodeResolver> dst_virt;
      if (last) {
        dst_real.emplace(dst_col, node_ids);
      } else {
        dst_virt.emplace(dst_col, boundary_map(rule_idx, seg.last_atom),
                         num_virtual);
      }

      const size_t nrows = out.NumRows();
      // Edge batch scratch: refunded after AddEdges copies it into the
      // adjacency lists.
      ScopedCharge batch_charge;
      GRAPHGEN_RETURN_NOT_OK(batch_charge.Acquire(
          options.ctx, nrows * sizeof(std::pair<NodeRef, NodeRef>),
          "assembly edge batch"));
      std::vector<std::pair<NodeRef, NodeRef>> batch;
      batch.reserve(nrows);
      for (size_t ri = 0; ri < nrows; ++ri) {
        if (assembly_poll && ri % kCancelStrideRows == 0) {
          GRAPHGEN_RETURN_NOT_OK(options.ctx.Check());
        }
        // Both NULL checks come before any virtual-node allocation, and a
        // dangling src skips the row before dst is resolved — the patch
        // path mirrors this order exactly.
        if (src_col.IsNull(ri) || dst_col.IsNull(ri)) continue;

        NodeRef from;
        if (first) {
          NodeId id = 0;
          if (!src_real->Resolve(ri, &id)) continue;  // dangling key
          from = NodeRef::Real(id);
        } else {
          from = src_virt->Resolve(ri);
        }
        NodeRef to;
        if (last) {
          NodeId id = 0;
          if (!dst_real->Resolve(ri, &id)) continue;
          to = NodeRef::Real(id);
        } else {
          to = dst_virt->Resolve(ri);
        }
        batch.emplace_back(from, to);
      }
      if (capture != nullptr) {
        // Emission-order ids; canonicalization below renumbers and sorts.
        std::vector<uint64_t>& pairs =
            capture->edge_rules[rule_idx].seen_pairs[si];
        pairs.reserve(batch.size());
        for (const auto& [from, to] : batch) {
          pairs.push_back(PackPair(from, to));
        }
      }
      // Batched append: adjacency lists reserve their exact final size,
      // edge order identical to per-row AddEdge.
      result.storage.AddVirtualNodes(num_virtual -
                                     result.storage.NumVirtualNodes());
      result.storage.AddEdges(batch);
    }
  }

  // Canonicalization: renumber virtual ids into key-sorted (rule,
  // boundary) order and sort every adjacency list. This runs on every
  // extraction, so the graph is a pure function of the database contents
  // — the delta-patch path, whose emission order necessarily differs,
  // converges on the identical bits.
  {
    GRAPHGEN_RETURN_NOT_OK(options.ctx.Check());
    std::vector<BoundaryMapRef> maps;
    maps.reserve(virtual_maps.size());
    for (auto& [key, map] : virtual_maps) maps.push_back({key, &map});
    const std::vector<uint32_t> perm =
        CanonicalVirtualOrder(result.storage.NumVirtualNodes(),
                              std::move(maps));
    result.storage.PermuteVirtualNodes(perm);
    result.storage.SortAdjacency();
    if (capture != nullptr) {
      for (EdgeRuleState& ers : capture->edge_rules) {
        for (auto& pairs : ers.seen_pairs) RemapPairSet(pairs, perm);
      }
      for (auto& [key, map] : virtual_maps) {
        capture->edge_rules[key >> 32]
            .boundaries[static_cast<size_t>(key & 0xffffffffu)] =
            std::move(map);
      }
    }
  }

  if (assembly_node != nullptr) {
    assembly_node->seconds = assembly_timer.Seconds();
    assembly_node->AddStat("rows_scanned_total",
                           static_cast<double>(result.rows_scanned));
  }
  if (edges_stage != nullptr) edges_stage->seconds = timer.Seconds();

  if (capture != nullptr) {
    // Record the canonical pre-preprocess graph's node counts and its
    // (shared) property columns, the key tables, and the basis version
    // vector (every referenced table). Its edges are the pair sets.
    capture->node_ids = std::move(node_ids);
    capture->num_real_nodes =
        static_cast<uint32_t>(result.storage.NumRealNodes());
    capture->num_virtual_nodes =
        static_cast<uint32_t>(result.storage.NumVirtualNodes());
    capture->properties = result.storage.properties();
    capture->rows_scanned = result.rows_scanned;
    auto record_table = [&](const std::string& name) -> Status {
      if (capture->basis.contains(name)) return Status::OK();
      GRAPHGEN_ASSIGN_OR_RETURN(rel::TableVersion tv, db.VersionOf(name));
      capture->basis[name] =
          TableBasis{tv.version, tv.rebase_version, tv.rows};
      return Status::OK();
    };
    for (const dsl::Rule& rule : program.nodes_rules) {
      for (const dsl::Atom& atom : rule.body) {
        GRAPHGEN_RETURN_NOT_OK(record_table(atom.relation));
      }
    }
    for (const dsl::Rule& rule : program.edges_rules) {
      for (const dsl::Atom& atom : rule.body) {
        GRAPHGEN_RETURN_NOT_OK(record_table(atom.relation));
      }
    }
  }

  if (options.preprocess) {
    GRAPHGEN_FAULT_POINT("extract.preprocess");
    GRAPHGEN_RETURN_NOT_OK(options.ctx.Check());
    timer.Restart();
    obs::ProfileNode* pp_node =
        profiling ? result.profile.root.AddChild("preprocess") : nullptr;
    PreprocessResult pp =
        ExpandSmallVirtualNodes(result.storage, options.threads);
    if (pp_node != nullptr) {
      pp_node->seconds = timer.Seconds();
      pp_node->AddStat("expanded_virtual_nodes",
                       static_cast<double>(pp.expanded_virtual_nodes));
      pp_node->AddStat("rounds", static_cast<double>(pp.rounds));
    }
  }

  result.condensed_edges = result.storage.CountCondensedEdges();
  result.virtual_nodes = result.storage.NumVirtualNodes();
  if (edges_stage != nullptr) {
    edges_stage->rows = static_cast<int64_t>(result.condensed_edges);
    edges_stage->AddStat("virtual_nodes",
                         static_cast<double>(result.virtual_nodes));
  }
  return result;
}

}  // namespace

Result<ExtractionResult> Extract(const rel::Database& db,
                                 const dsl::Program& program,
                                 const ExtractOptions& options) {
  return ExtractImpl(db, program, options, nullptr);
}

Result<ExtractionResult> ExtractWithCapture(const rel::Database& db,
                                            const dsl::Program& program,
                                            const ExtractOptions& options,
                                            IncrementalState& capture) {
  return ExtractImpl(db, program, options, &capture);
}

Result<ExtractionResult> ExtractFromQuery(const rel::Database& db,
                                          std::string_view datalog,
                                          const ExtractOptions& options,
                                          IncrementalState* capture) {
  GRAPHGEN_FAULT_POINT("extract.parse");
  GRAPHGEN_ASSIGN_OR_RETURN(dsl::Program program, dsl::Parse(datalog));
  GRAPHGEN_RETURN_NOT_OK(dsl::Validate(program, db));
  GRAPHGEN_ASSIGN_OR_RETURN(ExtractionResult result,
                            ExtractImpl(db, program, options, capture));
  result.profile.query = std::string(datalog);
  return result;
}

std::string DiffExtraction(const ExtractionResult& a,
                           const ExtractionResult& b,
                           bool compare_scan_counts) {
  auto num = [](uint64_t v) { return std::to_string(v); };
  if (a.real_nodes != b.real_nodes) {
    return "real_nodes: " + num(a.real_nodes) + " vs " + num(b.real_nodes);
  }
  if (a.virtual_nodes != b.virtual_nodes) {
    return "virtual_nodes: " + num(a.virtual_nodes) + " vs " +
           num(b.virtual_nodes);
  }
  if (a.condensed_edges != b.condensed_edges) {
    return "condensed_edges: " + num(a.condensed_edges) + " vs " +
           num(b.condensed_edges);
  }
  if (compare_scan_counts && a.rows_scanned != b.rows_scanned) {
    return "rows_scanned: " + num(a.rows_scanned) + " vs " +
           num(b.rows_scanned);
  }
  const CondensedStorage& sa = a.storage;
  const CondensedStorage& sb = b.storage;
  if (sa.NumRealNodes() != sb.NumRealNodes() ||
      sa.NumVirtualNodes() != sb.NumVirtualNodes()) {
    return "storage node counts differ";
  }
  for (size_t i = 0; i < sa.NumRealNodes(); ++i) {
    const NodeRef r = NodeRef::Real(static_cast<uint32_t>(i));
    if (sa.OutEdges(r) != sb.OutEdges(r)) {
      return "out-adjacency of real node " + num(i) + " differs";
    }
    if (sa.InEdges(r) != sb.InEdges(r)) {
      return "in-adjacency of real node " + num(i) + " differs";
    }
  }
  for (size_t v = 0; v < sa.NumVirtualNodes(); ++v) {
    const NodeRef r = NodeRef::Virtual(static_cast<uint32_t>(v));
    if (sa.OutEdges(r) != sb.OutEdges(r)) {
      return "out-adjacency of virtual node " + num(v) + " differs";
    }
    if (sa.InEdges(r) != sb.InEdges(r)) {
      return "in-adjacency of virtual node " + num(v) + " differs";
    }
  }
  const PropertyTable& pa = sa.properties();
  const PropertyTable& pb = sb.properties();
  if (pa.ColumnNames() != pb.ColumnNames()) return "property columns differ";
  const std::vector<std::string> cols = pa.ColumnNames();
  for (size_t i = 0; i < sa.NumRealNodes(); ++i) {
    const NodeId u = static_cast<NodeId>(i);
    if (pa.ExternalKey(u) != pb.ExternalKey(u)) {
      return "external key of node " + num(i) + " differs";
    }
    for (const std::string& c : cols) {
      if (pa.GetByName(u, c) != pb.GetByName(u, c)) {
        return "property '" + c + "' of node " + num(i) + " differs";
      }
    }
  }
  return "";
}

}  // namespace graphgen::planner
