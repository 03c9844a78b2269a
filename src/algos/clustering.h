#ifndef GRAPHGEN_ALGOS_CLUSTERING_H_
#define GRAPHGEN_ALGOS_CLUSTERING_H_

#include <vector>

#include "graph/graph.h"

namespace graphgen {

/// Local clustering coefficient of every vertex: the fraction of a
/// vertex's neighbor pairs that are themselves connected. 0 for vertices
/// of degree < 2. Duplicate-sensitive (overcounts on raw C-DUP paths
/// without its hash-set dedup). Treats the graph as undirected. One
/// kernel: every triangle is enumerated once over a degree-ordered
/// orientation of the graph's sorted neighbor spans and credited to all
/// three corners; high-degree roots close wedges against a flagged
/// bitmap, low-degree roots by sorted-list intersection. Graphs without
/// flat adjacency are first snapshotted with ExpandGraph, which costs one
/// callback traversal plus 4 bytes per edge while the kernel runs.
std::vector<double> LocalClusteringCoefficients(const Graph& graph);

/// Mean of the local coefficients over live vertices of degree >= 2.
double AverageClusteringCoefficient(const Graph& graph);

}  // namespace graphgen

#endif  // GRAPHGEN_ALGOS_CLUSTERING_H_
