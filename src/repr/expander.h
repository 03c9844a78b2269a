#ifndef GRAPHGEN_REPR_EXPANDER_H_
#define GRAPHGEN_REPR_EXPANDER_H_

#include "graph/graph.h"
#include "graph/storage.h"
#include "repr/expanded_graph.h"

namespace graphgen {

/// Materializes the fully expanded graph (EXP) from a condensed graph:
/// for every real node, all distinct reachable real targets become direct
/// edges and the virtual nodes are dropped. This is the step the paper's
/// condensed representations exist to avoid; it is provided both as the
/// evaluation baseline and for the "expand if the increase is small"
/// policy of §4.2 Step 6 / §6.5.
ExpandedGraph ExpandCondensed(const CondensedStorage& storage);

/// Snapshots any representation's expanded view as an EXP graph with flat
/// adjacency (live vertices, live targets, sorted ranges, no properties):
/// the adapter behind the NeighborSpan fast path. CountTriangles and
/// LocalClusteringCoefficients take one, for the length of the kernel,
/// when handed a graph without flat adjacency. The cost is one
/// ForEachNeighbor sweep per range plus a per-range sort; the footprint is
/// EXP's, (n+1)·8 + 4·E + n bytes. The snapshot reflects `g` at build
/// time; only const methods of `g` are called.
ExpandedGraph ExpandGraph(const Graph& g, size_t threads = 0);

}  // namespace graphgen

#endif  // GRAPHGEN_REPR_EXPANDER_H_
