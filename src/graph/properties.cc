#include "graph/properties.h"

namespace graphgen {

PropertyTable::Block& PropertyTable::MutableBlock() {
  if (block_ == nullptr) {
    block_ = std::make_shared<Block>();
  } else if (block_.use_count() != 1) {
    block_ = std::make_shared<Block>(*block_);
  }
  return *block_;
}

size_t PropertyTable::AddColumn(const std::string& name) {
  auto it = block().index.find(name);
  if (it != block().index.end()) return it->second;
  Block& b = MutableBlock();
  size_t idx = b.column_names.size();
  b.column_names.push_back(name);
  b.index[name] = idx;
  b.columns.emplace_back();
  if (!b.external_keys.empty()) b.columns.back().resize(b.external_keys.size());
  return idx;
}

std::vector<std::string> PropertyTable::ColumnNames() const {
  return block().column_names;
}

void PropertyTable::ResizeVertices(size_t n) {
  Block& b = MutableBlock();
  for (auto& col : b.columns) col.resize(n);
  b.external_keys.resize(n);
}

void PropertyTable::Set(NodeId node, size_t column, std::string value) {
  auto& col = MutableBlock().columns[column];
  if (node >= col.size()) col.resize(node + 1);
  col[node] = std::move(value);
}

Status PropertyTable::SetByName(NodeId node, const std::string& column,
                                std::string value) {
  auto it = block().index.find(column);
  if (it == block().index.end()) {
    return Status::NotFound("no property column named " + column);
  }
  Set(node, it->second, std::move(value));
  return Status::OK();
}

const std::string& PropertyTable::Get(NodeId node, size_t column) const {
  const auto& col = block().columns[column];
  if (node >= col.size()) return kEmpty;
  return col[node];
}

std::optional<std::string> PropertyTable::GetByName(
    NodeId node, const std::string& column) const {
  auto it = block().index.find(column);
  if (it == block().index.end()) return std::nullopt;
  return Get(node, it->second);
}

void PropertyTable::SetExternalKey(NodeId node, std::string key) {
  auto& keys = MutableBlock().external_keys;
  if (node >= keys.size()) keys.resize(node + 1);
  keys[node] = std::move(key);
}

const std::string& PropertyTable::ExternalKey(NodeId node) const {
  const auto& keys = block().external_keys;
  if (node >= keys.size()) return kEmpty;
  return keys[node];
}

std::optional<NodeId> PropertyTable::FindByExternalKey(
    const std::string& key) const {
  const auto& keys = block().external_keys;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!keys[i].empty() && keys[i] == key) return static_cast<NodeId>(i);
  }
  return std::nullopt;
}

void PropertyTable::ShrinkToFit() {
  if (block_ == nullptr) return;
  Block& b = MutableBlock();
  for (auto& col : b.columns) col.shrink_to_fit();
  b.external_keys.shrink_to_fit();
}

size_t PropertyTable::MemoryBytes() const {
  const Block& b = block();
  size_t total = 0;
  for (const auto& col : b.columns) {
    total += col.capacity() * sizeof(std::string);
    for (const auto& s : col) total += s.capacity();
  }
  total += b.external_keys.capacity() * sizeof(std::string);
  for (const auto& s : b.external_keys) total += s.capacity();
  return total;
}

}  // namespace graphgen
