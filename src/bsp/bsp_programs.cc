#include "bsp/bsp_programs.h"

namespace graphgen::bsp {

BspEngine MakeExpandedEngine(const ExpandedGraph& graph, size_t threads) {
  return BspEngine(BspGraph(&graph), threads);
}

BspEngine MakeDedup1Engine(const Dedup1Graph& graph, size_t threads) {
  return BspEngine(BspGraph(&graph), threads);
}

BspEngine MakeBitmapEngine(const BitmapGraph& graph, size_t threads) {
  return BspEngine(BspGraph(&graph), threads);
}

}  // namespace graphgen::bsp
