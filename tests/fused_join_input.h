#ifndef GRAPHGEN_TESTS_FUSED_JOIN_INPUT_H_
#define GRAPHGEN_TESTS_FUSED_JOIN_INPUT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "relational/database.h"
#include "relational/table.h"

namespace graphgen::testing {

/// Physical encoding of the Hub key column: each selects a different
/// typed-key instantiation of the hash join. kMixed stores one key group
/// as an int64 among strings, so the column falls back to owned Values.
enum class HubKey { kInt64, kDouble, kString, kMixed };

/// Extracts the co-membership graph over the Hub tables: a single-segment
/// self-join on `k` when no join is postponed (large_output_factor 1e18).
inline constexpr char kHubCoMembership[] =
    "Nodes(ID, Name) :- Member(ID, Name).\n"
    "Edges(ID1, ID2) :- Hub(ID1, K), Hub(ID2, K).\n";

/// Adds (or replaces) a self-join input whose DISTINCT-over-join output
/// just crosses the executor's fusion threshold (32 MB of row-id tuples),
/// so a DISTINCT directly over `Hub ⋈ Hub` on `k` takes the fused
/// pipeline under default options — the way production selects it.
///
/// `Hub(id, k)` holds 9000 rows in 16 key groups (~4.3M join matches,
/// ~34.5 MB of (left, right) row-id pairs). Every 13th key is NULL, and
/// its row carries an id (1000 + row) that no keyed row uses, so a NULL
/// key that joined anything would show up in the output. Keyed rows carry
/// id = row % 37, and `Member(id, name)` names ids 0..36. `HubR` holds
/// Hub's rows in reverse order, so its string keys get their own
/// dictionary with different codes: `Hub ⋈ HubR` has the self-join's
/// output set but must translate probe codes across dictionaries.
inline void PutHubTables(rel::Database& db, HubKey key) {
  using rel::Value;
  using rel::ValueType;
  const rel::Schema schema(
      {{"id", ValueType::kInt64},
       {"k", key == HubKey::kInt64    ? ValueType::kInt64
             : key == HubKey::kDouble ? ValueType::kDouble
                                      : ValueType::kString}});
  auto key_of = [key](int64_t group) {
    switch (key) {
      case HubKey::kInt64:
        return Value(group);
      case HubKey::kDouble:
        return Value(static_cast<double>(group) + 0.5);
      case HubKey::kMixed:
        if (group == 0) return Value(group);
        break;
      case HubKey::kString:
        break;
    }
    return Value("g" + std::to_string(group));
  };
  std::vector<rel::Row> rows;
  for (int64_t i = 0; i < 9000; ++i) {
    if (i % 13 == 0) {
      rows.push_back({Value(1000 + i), Value()});
    } else {
      rows.push_back({Value(i % 37), key_of(i % 16)});
    }
  }
  rel::Table hub("Hub", schema);
  for (const rel::Row& row : rows) hub.AppendUnchecked(row);
  db.PutTable(std::move(hub));
  rel::Table reversed("HubR", schema);
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) {
    reversed.AppendUnchecked(*it);
  }
  db.PutTable(std::move(reversed));
  rel::Table member("Member", rel::Schema({{"id", ValueType::kInt64},
                                           {"name", ValueType::kString}}));
  for (int64_t id = 0; id < 37; ++id) {
    member.AppendUnchecked({Value(id), Value("m" + std::to_string(id))});
  }
  db.PutTable(std::move(member));
  db.AnalyzeAll();
}

}  // namespace graphgen::testing

#endif  // GRAPHGEN_TESTS_FUSED_JOIN_INPUT_H_
