#ifndef GRAPHGEN_DATALOG_AST_H_
#define GRAPHGEN_DATALOG_AST_H_

#include <optional>
#include <string>
#include <vector>

#include "relational/value.h"

namespace graphgen::dsl {

/// Comparison operators in body predicates (e.g. `year > 2010`).
enum class PredOp { kEq, kNe, kLt, kLe, kGt, kGe };

std::string_view PredOpToString(PredOp op);

/// An argument of a body or head atom.
struct Term {
  enum class Kind { kVariable, kConstant, kWildcard };
  Kind kind = Kind::kVariable;
  std::string variable;  // for kVariable
  rel::Value constant;   // for kConstant

  static Term Var(std::string name) {
    Term t;
    t.kind = Kind::kVariable;
    t.variable = std::move(name);
    return t;
  }
  static Term Const(rel::Value v) {
    Term t;
    t.kind = Kind::kConstant;
    t.constant = std::move(v);
    return t;
  }
  static Term Wildcard() {
    Term t;
    t.kind = Kind::kWildcard;
    return t;
  }

  std::string ToString() const;
};

/// `Relation(arg, arg, ...)`.
struct Atom {
  std::string relation;
  std::vector<Term> args;

  std::string ToString() const;
};

/// `Var <op> constant` or `Var <op> Var` filter literal.
struct Comparison {
  std::string lhs_var;
  PredOp op = PredOp::kEq;
  bool rhs_is_var = false;
  std::string rhs_var;    // when rhs_is_var
  rel::Value rhs_const;   // otherwise

  std::string ToString() const;
};

/// `COUNT(Var) <op> N`: keep an edge only when the join produces at
/// least/exactly/... N distinct non-NULL values of Var for the same
/// (ID1, ID2) pair (SQL `COUNT(DISTINCT Var)`; a pair whose bindings all
/// have a NULL Var counts 0) — the paper's "co-authored multiple papers
/// together" motivation (§1).
/// Aggregations put the rule in Case 2 of §3.3: the planner must execute
/// the full join instead of condensing.
struct AggregateConstraint {
  std::string variable;
  PredOp op = PredOp::kGe;
  int64_t threshold = 1;

  std::string ToString() const;
};

/// One `Nodes(...) :- body.` or `Edges(...) :- body.` rule.
///
/// A rule denotes the conjunctive query over its body; any correct
/// extraction reproduces these semantics, whatever plan it runs (the test
/// suites check the planner against a naive evaluator of exactly this):
///  * a constant argument keeps rows whose cell equals it; `_` binds
///    nothing;
///  * a variable occurring in several body positions is an equi-join, and
///    NULL joins nothing (the chain planner plans one join variable per
///    pair of adjacent atoms and rejects any other repetition as
///    Unsupported rather than drop the equality);
///  * comparisons use rel::Value semantics: equality never crosses
///    int64/double/string, ordering is numeric across int64/double, and
///    NULL sorts below every value (so `X < 5` and `X != 5` keep NULL);
///  * Nodes rules apply their DISTINCT head tuples in row order, rules in
///    program order: a key's first tuple creates the node, later tuples
///    overwrite its properties; a NULL key makes no node;
///  * an Edges binding whose ID1 or ID2 is NULL or names no node is
///    dropped, and ID1 == ID2 is never an edge.
struct Rule {
  enum class Kind { kNodes, kEdges };
  Kind kind = Kind::kNodes;
  /// Head argument names: first (Nodes) / first two (Edges) are IDs, the
  /// rest become vertex properties (paper §3.2).
  std::vector<std::string> head_args;
  std::vector<Atom> body;
  std::vector<Comparison> comparisons;
  std::optional<AggregateConstraint> count_constraint;

  std::string ToString() const;
};

/// A full extraction program: >=1 Nodes rule then >=1 Edges rule.
struct Program {
  std::vector<Rule> nodes_rules;
  std::vector<Rule> edges_rules;

  std::string ToString() const;
};

}  // namespace graphgen::dsl

#endif  // GRAPHGEN_DATALOG_AST_H_
