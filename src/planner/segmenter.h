#ifndef GRAPHGEN_PLANNER_SEGMENTER_H_
#define GRAPHGEN_PLANNER_SEGMENTER_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "planner/join_analysis.h"

namespace graphgen::planner {

/// One executable segment of a join chain (§4.2 Step 3): a maximal run of
/// atoms with only small-output joins between them. The segment's joins
/// are handed to the database; the large-output joins at its ends are
/// *postponed* and realized as virtual nodes.
struct Segment {
  size_t first_atom = 0;
  size_t last_atom = 0;
  std::unique_ptr<query::PlanNode> plan;  // projects (in_value, out_value)
  std::string sql;
};

/// Splits the chain at its large-output boundaries and builds one
/// DISTINCT-projecting query plan per segment. A chain with no
/// large-output joins yields a single segment computing (ID1, ID2)
/// directly (the "expand via the database" case).
Result<std::vector<Segment>> BuildSegments(const JoinChain& chain);

/// The (first_atom, last_atom) pairs BuildSegments would produce, without
/// building plans. The incremental patch path compares this against the
/// shape its basis was extracted with: catalog statistics move as tables
/// grow, and a changed large-output split voids the cached per-segment
/// state (segmentation drift → full re-extraction).
std::vector<std::pair<size_t, size_t>> SegmentShapes(const JoinChain& chain);

/// Restricts one atom's scan to the half-open row window [begin, end) —
/// the delta-scan mode of incremental extraction.
struct AtomRange {
  size_t atom = 0;
  size_t begin = 0;
  size_t end = SIZE_MAX;
};

/// A semi-join key filter attached to one atom's scan column. The
/// incremental patch path seeds these from a delta's join keys and
/// propagates them outward (Yannakakis-style reduction), so a pass whose
/// delta touches a handful of rows scans the neighboring atoms with
/// near-empty filters instead of re-running the full joins. Dropping
/// rows by join-key membership is sound because a row whose key is
/// outside the set (or NULL) cannot join with the delta side at all.
struct AtomSemiJoin {
  size_t atom = 0;
  size_t column = 0;
  std::shared_ptr<const query::KeyFilter> keys;
};

/// Builds a single segment plan over atoms [first_atom, last_atom] with
/// per-atom row ranges. The incremental patch path uses this for its
/// delta passes: one pass per changed atom (that atom's scan ranged past
/// the basis watermark, the others full), plus new-node passes where
/// `src_keys`/`dst_keys` carry only the keys that just became real nodes.
/// `dst_keys` attaches regardless of segment position — sound for
/// patching because every boundary virtual node a filtered-out row would
/// have allocated already exists in the basis.
Result<Segment> BuildSegmentVariant(
    const JoinChain& chain, size_t first_atom, size_t last_atom,
    std::shared_ptr<const query::KeyFilter> src_keys,
    std::shared_ptr<const query::KeyFilter> dst_keys,
    const std::vector<AtomRange>& ranges,
    const std::vector<AtomSemiJoin>& filters = {});

}  // namespace graphgen::planner

#endif  // GRAPHGEN_PLANNER_SEGMENTER_H_
