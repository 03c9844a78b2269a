#ifndef GRAPHGEN_PLANNER_JOIN_ANALYSIS_H_
#define GRAPHGEN_PLANNER_JOIN_ANALYSIS_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/ast.h"
#include "query/plan.h"
#include "relational/database.h"

namespace graphgen::planner {

/// One atom of an Edges rule after chain ordering. `in_col` is the column
/// joining with the previous atom (or binding ID1 for the first atom);
/// `out_col` joins with the next atom (or binds ID2 for the last).
struct ChainAtom {
  const dsl::Atom* atom = nullptr;
  size_t in_col = 0;
  size_t out_col = 0;
  /// Selection predicates from constant arguments and comparisons.
  std::vector<query::Predicate> predicates;
};

/// One join boundary between consecutive chain atoms.
struct JoinBoundary {
  std::string variable;
  uint64_t left_rows = 0;
  uint64_t right_rows = 0;
  uint64_t distinct_values = 0;
  double estimated_output = 0.0;
  /// |L||R|/d > factor*(|L|+|R|) — the paper's uniform-distribution test
  /// (§4.2 Step 2).
  bool large_output = false;
};

/// An Edges rule rewritten as a join chain R1(ID1,a1) ⋈ R2(a1,a2) ⋈ ...
/// with per-boundary selectivity analysis.
struct JoinChain {
  std::vector<ChainAtom> atoms;
  std::vector<JoinBoundary> boundaries;  // size = atoms.size() - 1
};

/// Orders the body atoms of an acyclic Edges rule into a chain from the
/// atom binding `ID1` to the atom binding `ID2` and classifies each join
/// boundary as large-output or not using catalog statistics. A body whose
/// variables state any equality other than one join variable per pair of
/// adjacent chain atoms is Unsupported: the chain plan cannot express it.
/// `large_output_factor` is the constant 2 of the paper's formula;
/// set to 0 to force every boundary large (always condense).
Result<JoinChain> AnalyzeEdgesRule(const dsl::Rule& rule,
                                   const rel::Database& db,
                                   double large_output_factor = 2.0);

}  // namespace graphgen::planner

#endif  // GRAPHGEN_PLANNER_JOIN_ANALYSIS_H_
