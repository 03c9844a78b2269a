#ifndef GRAPHGEN_ALGOS_TRIANGLES_H_
#define GRAPHGEN_ALGOS_TRIANGLES_H_

#include <cstdint>

#include "graph/graph.h"

namespace graphgen {

/// Counts triangles in the (symmetric) graph: unordered vertex triples
/// {u, v, w} with all three edges present. Duplicate-sensitive — running
/// it on a duplicated representation without dedup would overcount, which
/// is exactly why the paper's DEDUP representations exist. One kernel:
/// forward counting over a degree-ordered orientation of the graph's
/// sorted neighbor spans (detail::BuildOrientedCsr), closing each wedge
/// with one bit test against the root's flagged out-neighborhood. Graphs
/// without flat adjacency are first snapshotted with ExpandGraph, which
/// costs one callback traversal plus 4 bytes per edge while the kernel
/// runs. Each triangle is counted exactly once.
uint64_t CountTriangles(const Graph& graph);

}  // namespace graphgen

#endif  // GRAPHGEN_ALGOS_TRIANGLES_H_
