#ifndef GRAPHGEN_BSP_BSP_GRAPH_H_
#define GRAPHGEN_BSP_BSP_GRAPH_H_

#include <cstdint>

#include "repr/bitmap_graph.h"
#include "repr/condensed_graph.h"
#include "repr/expanded_graph.h"

namespace graphgen::bsp {

/// Which in-memory representation a BSP run executes against (the three
/// compared in the paper's Giraph experiments, §6.4).
enum class BspMode { kExpanded, kDedup1, kBitmap };

std::string_view BspModeToString(BspMode mode);

/// Read-only topology adapter unifying the three representations for the
/// BSP engine. Virtual nodes are first-class BSP vertices that aggregate
/// messages (§6.4).
class BspGraph {
 public:
  /// EXP: direct adjacency only.
  explicit BspGraph(const ExpandedGraph* expanded)
      : mode_(BspMode::kExpanded), expanded_(expanded) {}
  /// DEDUP-1 (or C-DUP for duplicate-insensitive programs).
  explicit BspGraph(const CondensedGraph* condensed)
      : mode_(BspMode::kDedup1), condensed_(condensed) {}
  /// BITMAP: condensed structure plus per-source bitmaps.
  explicit BspGraph(const BitmapGraph* bitmap)
      : mode_(BspMode::kBitmap), condensed_(bitmap), bitmap_(bitmap) {}

  BspMode mode() const { return mode_; }
  const ExpandedGraph* expanded() const { return expanded_; }
  const CondensedGraph* condensed() const { return condensed_; }
  const BitmapGraph* bitmap() const { return bitmap_; }

  size_t NumReal() const {
    return mode_ == BspMode::kExpanded ? expanded_->NumVertices()
                                       : condensed_->NumVertices();
  }
  size_t NumVirtual() const {
    return mode_ == BspMode::kExpanded ? 0 : condensed_->NumVirtualNodes();
  }

  /// The graph's heap footprint; the engine adds its per-run transpose.
  size_t MemoryBytes() const {
    return mode_ == BspMode::kExpanded ? expanded_->MemoryBytes()
                                       : condensed_->MemoryBytes();
  }

 private:
  BspMode mode_;
  const ExpandedGraph* expanded_ = nullptr;
  const CondensedGraph* condensed_ = nullptr;
  const BitmapGraph* bitmap_ = nullptr;
};

}  // namespace graphgen::bsp

#endif  // GRAPHGEN_BSP_BSP_GRAPH_H_
