#ifndef GRAPHGEN_BSP_BSP_PROGRAMS_H_
#define GRAPHGEN_BSP_BSP_PROGRAMS_H_

#include "bsp/bsp_engine.h"
#include "repr/bitmap_graph.h"
#include "repr/dedup1_graph.h"

namespace graphgen::bsp {

/// Engine factories for the three representations compared in §6.4.
BspEngine MakeExpandedEngine(const ExpandedGraph& graph, size_t threads = 0);
BspEngine MakeDedup1Engine(const Dedup1Graph& graph, size_t threads = 0);
BspEngine MakeBitmapEngine(const BitmapGraph& graph, size_t threads = 0);

}  // namespace graphgen::bsp

#endif  // GRAPHGEN_BSP_BSP_PROGRAMS_H_
