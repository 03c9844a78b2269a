#ifndef GRAPHGEN_TESTS_REFERENCE_EXTRACTOR_H_
#define GRAPHGEN_TESTS_REFERENCE_EXTRACTOR_H_

// A deliberately naive reference evaluator for the extraction Datalog of
// paper §3.2, used by the test suites as the ground truth for extraction.
//
// It evaluates every rule as the conjunctive query it denotes, straight
// from Table::row(i): a Nodes rule is a filtered single-atom scan, an
// Edges rule is a backtracking search over its body atoms in written
// order, where each atom's rows are indexed (std::map) by the values of
// the variables earlier atoms already bound. The extracted graph is the
// set of (ID1, ID2) bindings whose endpoints are both real nodes — the
// expanded edge set a condensed extraction must reproduce. Nothing here
// knows about join chains, segments, large-output boundaries, virtual
// nodes, delta patches or the COUNT plan, and nothing is included
// from the planner, query or core layers: a bug in the Datalog→plan
// translation therefore shows up as a disagreement with this oracle.
//
// The semantics it implements (documented on dsl::Rule):
//  * a constant argument keeps rows whose cell equals it; `_` binds nothing;
//  * a variable occurring in several body positions is an equi-join, and
//    NULL joins nothing;
//  * `Var op const` and `Var op Var` compare with rel::Value semantics
//    (NULL sorts first; equality never crosses int64/double/string);
//  * `COUNT(Var) op N` counts the distinct non-NULL values of Var over
//    the bindings of each (ID1, ID2) pair;
//  * Nodes rules apply their DISTINCT head tuples in row order, rules in
//    program order: the first tuple of a key creates the node, later
//    tuples overwrite its properties (NULL renders as "");
//  * a NULL or dangling endpoint drops the edge, and self pairs are never
//    edges.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "datalog/ast.h"
#include "graph/storage.h"
#include "relational/database.h"
#include "relational/table.h"
#include "relational/value.h"

namespace graphgen::testing {

/// What an extraction means, independent of how it is stored.
struct ReferenceGraph {
  /// External key (rel::Value::ToString of the node key) → property name
  /// → rendered property value.
  std::map<std::string, std::map<std::string, std::string>> nodes;
  /// Expanded edges as sorted, unique (external key, external key) pairs.
  std::vector<std::pair<std::string, std::string>> edges;
};

namespace reference_detail {

// A strict order whose equivalence is exactly rel::Value equality (types
// first, so int64 1 and double 1.0 stay distinct keys).
struct ValueLess {
  bool operator()(const rel::Value& a, const rel::Value& b) const {
    if (a.type() != b.type()) return a.type() < b.type();
    switch (a.type()) {
      case rel::ValueType::kInt64:
        return a.AsInt64() < b.AsInt64();
      case rel::ValueType::kDouble:
        return a.AsDouble() < b.AsDouble();
      case rel::ValueType::kString:
        return a.AsString() < b.AsString();
      case rel::ValueType::kNull:
        break;
    }
    return false;
  }
};

struct TupleLess {
  bool operator()(const std::vector<rel::Value>& a,
                  const std::vector<rel::Value>& b) const {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end(), ValueLess{});
  }
};

inline bool Holds(const rel::Value& lhs, dsl::PredOp op,
                  const rel::Value& rhs) {
  switch (op) {
    case dsl::PredOp::kEq: return lhs == rhs;
    case dsl::PredOp::kNe: return lhs != rhs;
    case dsl::PredOp::kLt: return lhs < rhs;
    case dsl::PredOp::kLe: return lhs < rhs || lhs == rhs;
    case dsl::PredOp::kGt: return rhs < lhs;
    case dsl::PredOp::kGe: return rhs < lhs || lhs == rhs;
  }
  return false;
}

inline bool Holds(int64_t lhs, dsl::PredOp op, int64_t rhs) {
  return Holds(rel::Value(lhs), op, rel::Value(rhs));
}

// One rule body, compiled for backtracking: variables are numbered as
// atoms first bind them, and every atom knows which of its columns are
// already bound when the search reaches it.
class RuleEvaluator {
 public:
  using Binding = std::vector<rel::Value>;

  static Result<RuleEvaluator> Compile(const rel::Database& db,
                                       const dsl::Rule& rule) {
    RuleEvaluator ev;
    for (const dsl::Atom& atom : rule.body) {
      GRAPHGEN_ASSIGN_OR_RETURN(const rel::Table* table,
                                db.GetTable(atom.relation));
      if (atom.args.size() != table->NumColumns()) {
        return Status::InvalidArgument("arity mismatch for " + atom.relation);
      }
      Atom a;
      std::map<std::string, size_t> first_here;  // var → first column here
      for (size_t c = 0; c < atom.args.size(); ++c) {
        const dsl::Term& t = atom.args[c];
        if (t.kind == dsl::Term::Kind::kConstant) {
          a.constants.emplace_back(c, t.constant);
        } else if (t.kind == dsl::Term::Kind::kVariable) {
          if (auto it = ev.vars_.find(t.variable); it != ev.vars_.end()) {
            a.key_cols.push_back(c);
            a.key_vars.push_back(it->second);
          } else if (auto h = first_here.find(t.variable);
                     h != first_here.end()) {
            a.same_cols.emplace_back(h->second, c);
          } else {
            first_here[t.variable] = c;
          }
        }
      }
      // Variables first bound by this atom become visible to later atoms
      // only after the whole atom is compiled.
      for (const auto& [name, col] : first_here) {
        const size_t v = ev.vars_.size();
        ev.vars_[name] = v;
        a.binds.emplace_back(col, v);
      }
      for (size_t i = 0; i < table->NumRows(); ++i) {
        rel::Row row = table->row(i);
        if (!a.Keeps(row)) continue;
        std::vector<rel::Value> key;
        bool null_key = false;
        for (size_t c : a.key_cols) {
          null_key |= row[c].is_null();  // NULL joins nothing
          key.push_back(row[c]);
        }
        if (null_key) continue;
        a.index[std::move(key)].push_back(std::move(row));
      }
      ev.atoms_.push_back(std::move(a));
    }
    for (const dsl::Comparison& cmp : rule.comparisons) {
      Check check;
      GRAPHGEN_ASSIGN_OR_RETURN(check.lhs, ev.Var(cmp.lhs_var));
      check.op = cmp.op;
      if (cmp.rhs_is_var) {
        GRAPHGEN_ASSIGN_OR_RETURN(size_t rhs, ev.Var(cmp.rhs_var));
        check.rhs_var = rhs;
      } else {
        check.rhs_const = cmp.rhs_const;
      }
      ev.atoms_[ev.DepthOf(check)].checks.push_back(std::move(check));
    }
    return ev;
  }

  Result<size_t> Var(const std::string& name) const {
    auto it = vars_.find(name);
    if (it == vars_.end()) {
      return Status::InvalidArgument("variable " + name + " is not bound");
    }
    return it->second;
  }

  /// Calls emit(binding) once per satisfying assignment, in row order of
  /// the first atom.
  void ForEachBinding(const std::function<void(const Binding&)>& emit) const {
    Binding binding(vars_.size());
    Search(0, binding, emit);
  }

 private:
  struct Check {
    size_t lhs = 0;
    dsl::PredOp op = dsl::PredOp::kEq;
    std::optional<size_t> rhs_var;
    rel::Value rhs_const;
  };

  struct Atom {
    std::vector<std::pair<size_t, rel::Value>> constants;
    std::vector<std::pair<size_t, size_t>> same_cols;  // repeated new var
    std::vector<size_t> key_cols;  // columns whose variable is bound
    std::vector<size_t> key_vars;
    std::vector<std::pair<size_t, size_t>> binds;  // (column, new variable)
    std::vector<Check> checks;  // comparisons decidable at this depth
    std::map<std::vector<rel::Value>, std::vector<rel::Row>, TupleLess> index;

    bool Keeps(const rel::Row& row) const {
      for (const auto& [c, v] : constants) {
        if (row[c] != v) return false;
      }
      for (const auto& [a, b] : same_cols) {
        if (row[a].is_null() || row[a] != row[b]) return false;
      }
      return true;
    }
  };

  // The first depth at which every variable of the check is bound.
  size_t DepthOf(const Check& check) const {
    auto depth_of_var = [this](size_t v) {
      for (size_t d = 0; d < atoms_.size(); ++d) {
        for (const auto& [col, var] : atoms_[d].binds) {
          if (var == v) return d;
        }
      }
      return atoms_.size() - 1;
    };
    size_t d = depth_of_var(check.lhs);
    if (check.rhs_var.has_value()) d = std::max(d, depth_of_var(*check.rhs_var));
    return d;
  }

  void Search(size_t depth, Binding& binding,
              const std::function<void(const Binding&)>& emit) const {
    if (depth == atoms_.size()) {
      emit(binding);
      return;
    }
    const Atom& atom = atoms_[depth];
    std::vector<rel::Value> key;
    for (size_t v : atom.key_vars) key.push_back(binding[v]);
    auto it = atom.index.find(key);
    if (it == atom.index.end()) return;
    for (const rel::Row& row : it->second) {
      for (const auto& [col, var] : atom.binds) binding[var] = row[col];
      bool ok = true;
      for (const Check& c : atom.checks) {
        const rel::Value& rhs =
            c.rhs_var.has_value() ? binding[*c.rhs_var] : c.rhs_const;
        if (!Holds(binding[c.lhs], c.op, rhs)) {
          ok = false;
          break;
        }
      }
      if (ok) Search(depth + 1, binding, emit);
    }
  }

  std::map<std::string, size_t> vars_;
  std::vector<Atom> atoms_;
};

}  // namespace reference_detail

/// Evaluates `program` over `db` with the reference semantics above.
inline Result<ReferenceGraph> ReferenceExtract(const rel::Database& db,
                                               const dsl::Program& program) {
  using reference_detail::RuleEvaluator;
  using reference_detail::TupleLess;
  using reference_detail::ValueLess;

  struct Node {
    std::string key;
    std::map<std::string, std::string> props;
  };
  std::map<rel::Value, Node, ValueLess> nodes;
  std::set<std::string> prop_names;
  for (const dsl::Rule& rule : program.nodes_rules) {
    if (rule.body.size() != 1) {
      return Status::Unsupported("Nodes rules scan exactly one atom");
    }
    GRAPHGEN_ASSIGN_OR_RETURN(RuleEvaluator ev, RuleEvaluator::Compile(db, rule));
    std::vector<size_t> head;
    for (const std::string& var : rule.head_args) {
      GRAPHGEN_ASSIGN_OR_RETURN(size_t v, ev.Var(var));
      head.push_back(v);
    }
    for (size_t i = 1; i < rule.head_args.size(); ++i) {
      prop_names.insert(rule.head_args[i]);
    }
    std::set<std::vector<rel::Value>, TupleLess> seen;
    ev.ForEachBinding([&](const RuleEvaluator::Binding& b) {
      std::vector<rel::Value> tuple;
      for (size_t v : head) tuple.push_back(b[v]);
      if (tuple[0].is_null() || !seen.insert(tuple).second) return;
      Node& node = nodes[tuple[0]];
      if (node.key.empty()) node.key = tuple[0].ToString();
      for (size_t i = 1; i < tuple.size(); ++i) {
        node.props[rule.head_args[i]] =
            tuple[i].is_null() ? "" : tuple[i].ToString();
      }
    });
  }

  ReferenceGraph out;
  for (auto& [value, node] : nodes) {
    for (const std::string& p : prop_names) node.props.try_emplace(p, "");
    if (!out.nodes.emplace(node.key, node.props).second) {
      return Status::Unsupported("two node keys render as " + node.key);
    }
  }

  std::set<std::pair<std::string, std::string>> edges;
  for (const dsl::Rule& rule : program.edges_rules) {
    if (rule.head_args.size() < 2) {
      return Status::InvalidArgument("Edges rules name two IDs");
    }
    GRAPHGEN_ASSIGN_OR_RETURN(RuleEvaluator ev, RuleEvaluator::Compile(db, rule));
    GRAPHGEN_ASSIGN_OR_RETURN(size_t id1, ev.Var(rule.head_args[0]));
    GRAPHGEN_ASSIGN_OR_RETURN(size_t id2, ev.Var(rule.head_args[1]));
    std::optional<size_t> agg;
    if (rule.count_constraint.has_value()) {
      GRAPHGEN_ASSIGN_OR_RETURN(agg, ev.Var(rule.count_constraint->variable));
    }
    // (ID1, ID2) → distinct non-NULL values of the COUNT variable.
    std::map<std::vector<rel::Value>, std::set<rel::Value, ValueLess>,
             TupleLess>
        pairs;
    ev.ForEachBinding([&](const RuleEvaluator::Binding& b) {
      auto& counted = pairs[{b[id1], b[id2]}];
      if (agg.has_value() && !b[*agg].is_null()) counted.insert(b[*agg]);
    });
    for (const auto& [pair, counted] : pairs) {
      if (rule.count_constraint.has_value() &&
          !reference_detail::Holds(static_cast<int64_t>(counted.size()),
                                   rule.count_constraint->op,
                                   rule.count_constraint->threshold)) {
        continue;
      }
      auto src = nodes.find(pair[0]);
      auto dst = nodes.find(pair[1]);
      if (src == nodes.end() || dst == nodes.end() || src == dst) continue;
      edges.emplace(src->second.key, dst->second.key);
    }
  }
  out.edges.assign(edges.begin(), edges.end());
  return out;
}

/// Renders an extracted condensed graph in ReferenceGraph form: external
/// keys and properties of every real node, and the expanded edge set
/// mapped through the external keys.
inline ReferenceGraph RenderExtracted(const CondensedStorage& storage) {
  ReferenceGraph out;
  const PropertyTable& props = storage.properties();
  const std::vector<std::string> columns = props.ColumnNames();
  for (size_t i = 0; i < storage.NumRealNodes(); ++i) {
    const NodeId u = static_cast<NodeId>(i);
    std::map<std::string, std::string>& p = out.nodes[props.ExternalKey(u)];
    for (const std::string& c : columns) {
      p[c] = props.GetByName(u, c).value_or("");
    }
  }
  for (const auto& [u, v] : storage.ExpandedEdgeSet()) {
    out.edges.emplace_back(props.ExternalKey(u), props.ExternalKey(v));
  }
  std::sort(out.edges.begin(), out.edges.end());
  return out;
}

/// "" when `storage` holds exactly the reference graph, else the first
/// difference found.
inline std::string DiffAgainstReference(const CondensedStorage& storage,
                                        const ReferenceGraph& want) {
  const ReferenceGraph got = RenderExtracted(storage);
  if (got.nodes.size() != storage.NumRealNodes()) {
    return "duplicate external keys among " +
           std::to_string(storage.NumRealNodes()) + " real nodes";
  }
  for (const auto& [key, props] : want.nodes) {
    auto it = got.nodes.find(key);
    if (it == got.nodes.end()) return "missing node " + key;
    if (it->second != props) return "properties of node " + key + " differ";
  }
  for (const auto& [key, props] : got.nodes) {
    if (!want.nodes.contains(key)) return "unexpected node " + key;
  }
  std::vector<std::pair<std::string, std::string>> missing;
  std::vector<std::pair<std::string, std::string>> extra;
  std::set_difference(want.edges.begin(), want.edges.end(), got.edges.begin(),
                      got.edges.end(), std::back_inserter(missing));
  std::set_difference(got.edges.begin(), got.edges.end(), want.edges.begin(),
                      want.edges.end(), std::back_inserter(extra));
  if (!missing.empty() || !extra.empty()) {
    const auto& e = missing.empty() ? extra.front() : missing.front();
    return std::to_string(missing.size()) + " edges missing, " +
           std::to_string(extra.size()) + " unexpected (first: " +
           (missing.empty() ? "unexpected " : "missing ") + e.first + " -> " +
           e.second + ")";
  }
  return "";
}

}  // namespace graphgen::testing

#endif  // GRAPHGEN_TESTS_REFERENCE_EXTRACTOR_H_
