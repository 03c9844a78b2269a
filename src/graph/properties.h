#ifndef GRAPHGEN_GRAPH_PROPERTIES_H_
#define GRAPHGEN_GRAPH_PROPERTIES_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "graph/node_ref.h"

namespace graphgen {

/// Columnar string properties attached to real vertices (paper §3.2: head
/// arguments beyond the IDs become vertex properties, e.g. Name). Also
/// holds the external database key each vertex was extracted from.
///
/// Copies share one column block: copying a table (into a representation,
/// an incremental-state snapshot or a patch successor) costs a reference,
/// not the strings. A mutator clones the block first unless this table is
/// its only owner, so a table never observes another's writes. Reads of a
/// shared block from many threads are safe; as with any value type, a
/// table object itself must not be mutated while another thread reads it.
class PropertyTable {
 public:
  /// Registers a property column; returns its index (idempotent by name).
  size_t AddColumn(const std::string& name);

  bool HasColumn(const std::string& name) const {
    return block().index.contains(name);
  }
  std::vector<std::string> ColumnNames() const;

  /// Ensures capacity for `n` vertices in every column.
  void ResizeVertices(size_t n);

  void Set(NodeId node, size_t column, std::string value);
  Status SetByName(NodeId node, const std::string& column, std::string value);

  /// Value of `column` for `node` ("" when unset).
  const std::string& Get(NodeId node, size_t column) const;
  std::optional<std::string> GetByName(NodeId node,
                                       const std::string& column) const;

  void SetExternalKey(NodeId node, std::string key);
  const std::string& ExternalKey(NodeId node) const;
  /// Finds the first vertex with the given external key, if any (a
  /// linear scan).
  std::optional<NodeId> FindByExternalKey(const std::string& key) const;

  /// Drops the growth slack of every column, so the block tables share
  /// afterwards is exact-sized. Called once a builder stops adding rows.
  void ShrinkToFit();

  size_t NumColumns() const { return block().columns.size(); }
  size_t MemoryBytes() const;

 private:
  struct Block {
    std::vector<std::string> column_names;
    std::unordered_map<std::string, size_t> index;
    std::vector<std::vector<std::string>> columns;
    std::vector<std::string> external_keys;
  };

  /// Null (an empty table, or a moved-from one) reads as kEmptyBlock.
  const Block& block() const { return block_ ? *block_ : kEmptyBlock; }
  /// The block for writing: cloned first unless this table owns it alone.
  Block& MutableBlock();

  std::shared_ptr<Block> block_;
  inline static const Block kEmptyBlock{};
  inline static const std::string kEmpty{};
};

}  // namespace graphgen

#endif  // GRAPHGEN_GRAPH_PROPERTIES_H_
