#include "planner/join_analysis.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

namespace graphgen::planner {

namespace {

// Returns the column index where `var` appears in `atom`, if any.
std::optional<size_t> FindVar(const dsl::Atom& atom, const std::string& var) {
  for (size_t i = 0; i < atom.args.size(); ++i) {
    if (atom.args[i].kind == dsl::Term::Kind::kVariable &&
        atom.args[i].variable == var) {
      return i;
    }
  }
  return std::nullopt;
}

// Variables shared between two atoms.
std::vector<std::string> SharedVars(const dsl::Atom& a, const dsl::Atom& b) {
  std::vector<std::string> shared;
  for (const dsl::Term& ta : a.args) {
    if (ta.kind != dsl::Term::Kind::kVariable) continue;
    if (FindVar(b, ta.variable).has_value()) shared.push_back(ta.variable);
  }
  std::sort(shared.begin(), shared.end());
  shared.erase(std::unique(shared.begin(), shared.end()), shared.end());
  return shared;
}

// DFS for a simple path visiting all atoms from `start` to `end`.
bool FindHamiltonianPath(const std::vector<const dsl::Atom*>& atoms,
                         const std::vector<std::vector<bool>>& adj,
                         size_t current, size_t end,
                         std::vector<bool>& used, std::vector<size_t>& path) {
  if (path.size() == atoms.size()) return current == end;
  for (size_t next = 0; next < atoms.size(); ++next) {
    if (used[next] || !adj[current][next]) continue;
    used[next] = true;
    path.push_back(next);
    if (FindHamiltonianPath(atoms, adj, next, end, used, path)) return true;
    path.pop_back();
    used[next] = false;
  }
  return false;
}

query::CompareOp ToCompareOp(dsl::PredOp op) {
  switch (op) {
    case dsl::PredOp::kEq: return query::CompareOp::kEq;
    case dsl::PredOp::kNe: return query::CompareOp::kNe;
    case dsl::PredOp::kLt: return query::CompareOp::kLt;
    case dsl::PredOp::kLe: return query::CompareOp::kLe;
    case dsl::PredOp::kGt: return query::CompareOp::kGt;
    case dsl::PredOp::kGe: return query::CompareOp::kGe;
  }
  return query::CompareOp::kEq;
}

}  // namespace

Result<JoinChain> AnalyzeEdgesRule(const dsl::Rule& rule,
                                   const rel::Database& db,
                                   double large_output_factor) {
  if (rule.kind != dsl::Rule::Kind::kEdges || rule.head_args.size() < 2) {
    return Status::PlanError("AnalyzeEdgesRule requires an Edges rule");
  }
  const std::string& id1 = rule.head_args[0];
  const std::string& id2 = rule.head_args[1];
  const size_t n = rule.body.size();

  std::vector<const dsl::Atom*> atoms;
  atoms.reserve(n);
  for (const dsl::Atom& a : rule.body) atoms.push_back(&a);

  // Locate the atoms binding ID1 and ID2.
  size_t start = n;
  size_t end = n;
  for (size_t i = 0; i < n; ++i) {
    if (start == n && FindVar(*atoms[i], id1).has_value()) start = i;
  }
  // Prefer a different atom for ID2 (self-join chains like [Q1] bind the
  // IDs in distinct atoms of the same relation).
  for (size_t i = 0; i < n; ++i) {
    if (i != start && FindVar(*atoms[i], id2).has_value()) end = i;
  }
  if (end == n && FindVar(*atoms[start], id2).has_value()) end = start;
  if (start == n || end == n) {
    return Status::PlanError("Edges rule does not bind both head IDs");
  }

  // Order atoms into a chain.
  std::vector<size_t> path = {start};
  if (n > 1) {
    if (start == end) {
      return Status::Unsupported(
          "Edges rules with both IDs in one atom plus extra join atoms are "
          "not supported (non-chain query)");
    }
    std::vector<std::vector<bool>> adj(n, std::vector<bool>(n, false));
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        if (!SharedVars(*atoms[i], *atoms[j]).empty()) {
          adj[i][j] = adj[j][i] = true;
        }
      }
    }
    std::vector<bool> used(n, false);
    used[start] = true;
    if (!FindHamiltonianPath(atoms, adj, start, end, used, path)) {
      return Status::Unsupported(
          "Edges rule body cannot be ordered into an acyclic join chain "
          "(Case 2 of §3.3 — cyclic or branching queries are future work)");
    }
  }

  JoinChain chain;
  chain.atoms.resize(path.size());
  for (size_t i = 0; i < path.size(); ++i) {
    chain.atoms[i].atom = atoms[path[i]];
  }

  // Join variables between consecutive atoms (must be unique).
  std::vector<std::string> join_vars;
  for (size_t i = 0; i + 1 < chain.atoms.size(); ++i) {
    std::vector<std::string> shared =
        SharedVars(*chain.atoms[i].atom, *chain.atoms[i + 1].atom);
    // The head IDs never act as join attributes in a chain.
    shared.erase(std::remove(shared.begin(), shared.end(), id1), shared.end());
    shared.erase(std::remove(shared.begin(), shared.end(), id2), shared.end());
    if (shared.size() != 1) {
      return Status::Unsupported(
          "expected exactly one join variable between " +
          chain.atoms[i].atom->relation + " and " +
          chain.atoms[i + 1].atom->relation + ", found " +
          std::to_string(shared.size()) +
          " (multi-attribute joins are not supported)");
    }
    join_vars.push_back(shared[0]);
  }

  // The chain plan joins adjacent atoms on their one join variable and
  // nothing else, so any other occurrence of a variable in two positions
  // (repeated within an atom, shared across non-adjacent atoms, or a head
  // ID bound twice) states an equality the plan would silently drop.
  std::map<std::string, std::vector<size_t>> positions;
  for (size_t i = 0; i < chain.atoms.size(); ++i) {
    for (const dsl::Term& t : chain.atoms[i].atom->args) {
      if (t.kind == dsl::Term::Kind::kVariable) {
        positions[t.variable].push_back(i);
      }
    }
  }
  for (const auto& [var, at] : positions) {
    if (at.size() == 1) continue;
    if (at.size() == 2 && at[1] == at[0] + 1 && join_vars[at[0]] == var) {
      continue;
    }
    return Status::Unsupported("variable " + var +
                               " joins body positions the join chain does "
                               "not connect");
  }

  // in/out columns per atom.
  for (size_t i = 0; i < chain.atoms.size(); ++i) {
    ChainAtom& ca = chain.atoms[i];
    const std::string& in_var = i == 0 ? id1 : join_vars[i - 1];
    const std::string& out_var =
        i + 1 == chain.atoms.size() ? id2 : join_vars[i];
    auto in_col = FindVar(*ca.atom, in_var);
    auto out_col = FindVar(*ca.atom, out_var);
    if (!in_col.has_value() || !out_col.has_value()) {
      return Status::PlanError("chain variable lookup failed for atom " +
                               ca.atom->relation);
    }
    ca.in_col = *in_col;
    ca.out_col = *out_col;
    // Constant arguments become selection predicates.
    for (size_t c = 0; c < ca.atom->args.size(); ++c) {
      if (ca.atom->args[c].kind == dsl::Term::Kind::kConstant) {
        ca.predicates.push_back(
            {c, query::CompareOp::kEq, ca.atom->args[c].constant});
      }
    }
    // Comparisons on variables bound in this atom.
    for (const dsl::Comparison& cmp : rule.comparisons) {
      if (cmp.rhs_is_var) {
        // Var-var comparisons other than ID1 != ID2 are unsupported; that
        // one is implied (self edges are never logical edges).
        bool is_id_pair = (cmp.lhs_var == id1 && cmp.rhs_var == id2) ||
                          (cmp.lhs_var == id2 && cmp.rhs_var == id1);
        if (!is_id_pair || cmp.op != dsl::PredOp::kNe) {
          return Status::Unsupported(
              "variable-variable comparisons other than ID1 != ID2 are not "
              "supported");
        }
        continue;
      }
      auto col = FindVar(*ca.atom, cmp.lhs_var);
      if (col.has_value()) {
        ca.predicates.push_back({*col, ToCompareOp(cmp.op), cmp.rhs_const});
      }
    }
  }

  // Selectivity analysis per boundary (§4.2 Step 2).
  chain.boundaries.resize(join_vars.size());
  for (size_t i = 0; i < join_vars.size(); ++i) {
    JoinBoundary& b = chain.boundaries[i];
    b.variable = join_vars[i];
    const ChainAtom& left = chain.atoms[i];
    const ChainAtom& right = chain.atoms[i + 1];
    GRAPHGEN_ASSIGN_OR_RETURN(rel::TableStats lstats,
                              db.catalog().GetStats(left.atom->relation));
    GRAPHGEN_ASSIGN_OR_RETURN(rel::TableStats rstats,
                              db.catalog().GetStats(right.atom->relation));
    b.left_rows = lstats.row_count;
    b.right_rows = rstats.row_count;
    uint64_t d_left = lstats.columns[left.out_col].n_distinct;
    uint64_t d_right = rstats.columns[right.in_col].n_distinct;
    b.distinct_values = std::max<uint64_t>(1, std::max(d_left, d_right));
    b.estimated_output = static_cast<double>(b.left_rows) *
                         static_cast<double>(b.right_rows) /
                         static_cast<double>(b.distinct_values);
    if (large_output_factor <= 0.0) {
      b.large_output = true;
    } else {
      b.large_output =
          b.estimated_output >
          large_output_factor * static_cast<double>(b.left_rows + b.right_rows);
    }
  }
  return chain;
}

}  // namespace graphgen::planner
