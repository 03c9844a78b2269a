#include "planner/segmenter.h"

namespace graphgen::planner {

namespace {

// Builds the plan for atoms [first, last] of the chain: left-deep hash
// joins over the segment's small-output boundaries, then a DISTINCT
// projection of the segment's endpoint columns. `src_keys`/`dst_keys`
// attach Nodes-filter semi-joins to the endpoint scans; `ranges`
// (nullable) restricts individual atoms' scans to a row window.
std::unique_ptr<query::PlanNode> BuildSegmentPlan(
    const JoinChain& chain, size_t first, size_t last,
    const std::shared_ptr<const query::KeyFilter>& src_keys,
    const std::shared_ptr<const query::KeyFilter>& dst_keys,
    const std::vector<AtomRange>* ranges,
    const std::vector<AtomSemiJoin>* filters = nullptr) {
  auto apply_range = [ranges, filters](query::ScanNode* scan,
                                       size_t atom_idx) {
    if (ranges != nullptr) {
      for (const AtomRange& r : *ranges) {
        if (r.atom == atom_idx) scan->SetRowRange(r.begin, r.end);
      }
    }
    if (filters != nullptr) {
      for (const AtomSemiJoin& f : *filters) {
        if (f.atom == atom_idx) scan->AddSemiJoin(f.column, f.keys);
      }
    }
  };
  auto first_scan = std::make_unique<query::ScanNode>(
      chain.atoms[first].atom->relation, chain.atoms[first].predicates);
  apply_range(first_scan.get(), first);
  if (src_keys != nullptr) {
    first_scan->AddSemiJoin(chain.atoms[first].in_col, src_keys);
  }
  if (dst_keys != nullptr && first == last) {
    first_scan->AddSemiJoin(chain.atoms[last].out_col, dst_keys);
  }
  std::unique_ptr<query::PlanNode> plan = std::move(first_scan);
  // Offset of each atom's columns in the concatenated join output.
  size_t prev_offset = 0;
  size_t width = chain.atoms[first].atom->args.size();
  for (size_t k = first + 1; k <= last; ++k) {
    auto right = std::make_unique<query::ScanNode>(
        chain.atoms[k].atom->relation, chain.atoms[k].predicates);
    apply_range(right.get(), k);
    if (dst_keys != nullptr && k == last) {
      right->AddSemiJoin(chain.atoms[k].out_col, dst_keys);
    }
    size_t left_col = prev_offset + chain.atoms[k - 1].out_col;
    plan = std::make_unique<query::HashJoinNode>(
        std::move(plan), std::move(right), left_col, chain.atoms[k].in_col);
    prev_offset = width;
    width += chain.atoms[k].atom->args.size();
  }
  size_t in_col = chain.atoms[first].in_col;  // offset of first atom is 0
  size_t out_col = prev_offset + chain.atoms[last].out_col;
  return std::make_unique<query::ProjectNode>(
      std::move(plan), std::vector<size_t>{in_col, out_col},
      std::vector<std::string>{"src", "dst"}, /*distinct=*/true);
}

}  // namespace

std::vector<std::pair<size_t, size_t>> SegmentShapes(const JoinChain& chain) {
  std::vector<std::pair<size_t, size_t>> shapes;
  size_t first = 0;
  for (size_t i = 0; i <= chain.boundaries.size(); ++i) {
    const bool cut =
        i == chain.boundaries.size() || chain.boundaries[i].large_output;
    if (!cut) continue;
    shapes.emplace_back(first, i);
    first = i + 1;
  }
  return shapes;
}

Result<std::vector<Segment>> BuildSegments(const JoinChain& chain) {
  const std::vector<std::pair<size_t, size_t>> shapes = SegmentShapes(chain);
  std::vector<Segment> segments;
  segments.reserve(shapes.size());
  for (const auto& [first, last] : shapes) {
    Segment seg;
    seg.first_atom = first;
    seg.last_atom = last;
    seg.plan = BuildSegmentPlan(chain, first, last, /*src_keys=*/nullptr,
                                /*dst_keys=*/nullptr, /*ranges=*/nullptr);
    seg.sql = seg.plan->ToSql();
    segments.push_back(std::move(seg));
  }
  return segments;
}

Result<Segment> BuildSegmentVariant(
    const JoinChain& chain, size_t first_atom, size_t last_atom,
    std::shared_ptr<const query::KeyFilter> src_keys,
    std::shared_ptr<const query::KeyFilter> dst_keys,
    const std::vector<AtomRange>& ranges,
    const std::vector<AtomSemiJoin>& filters) {
  if (last_atom >= chain.atoms.size() || first_atom > last_atom) {
    return Status::PlanError("segment atom range out of bounds");
  }
  Segment seg;
  seg.first_atom = first_atom;
  seg.last_atom = last_atom;
  seg.plan = BuildSegmentPlan(chain, first_atom, last_atom, src_keys,
                              dst_keys, &ranges, &filters);
  seg.sql = seg.plan->ToSql();
  return seg;
}

}  // namespace graphgen::planner
