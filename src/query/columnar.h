#ifndef GRAPHGEN_QUERY_COLUMNAR_H_
#define GRAPHGEN_QUERY_COLUMNAR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/plan.h"
#include "relational/column.h"
#include "relational/table.h"

namespace graphgen::query {

/// Binds one output column of an operator to a physical column of one of
/// the base tables underneath it. Projection only rewrites bindings — no
/// value is touched until the final consumer reads it.
struct ColumnBinding {
  uint32_t source = 0;  // index into RowIdResult::sources
  uint32_t column = 0;  // column of that base table
};

/// A binding resolved against its physical storage: the typed base-table
/// column plus the tuple slot holding its row id. Operators resolve each
/// output column once and then read raw arrays instead of re-chasing
/// the binding per cell.
struct BoundColumn {
  const rel::ColumnVector* col = nullptr;
  uint32_t slot = 0;  // == ColumnBinding::source
};

/// The copy-light intermediate of the extraction pipeline. Instead of
/// materializing `rel::Row` copies at every operator, a result is
///  * a list of base tables (`sources`, one per scan under the operator),
///  * one row-id tuple per logical row (`tuples`, row-major, Width() ids
///    each — a scan's selection vector, a join's concatenated tuples), and
///  * lazy column bindings mapping output columns onto source columns.
/// Values are read in place from the base tables' typed column vectors;
/// only the row-id tuples (4 bytes per source per row) are ever copied
/// between operators.
struct RowIdResult {
  rel::Schema schema;
  /// Base table name per output column (join-column qualification).
  std::vector<std::string> origins;
  std::vector<const rel::Table*> sources;
  std::vector<ColumnBinding> columns;
  std::vector<uint32_t> tuples;

  size_t Width() const { return sources.size(); }
  size_t NumRows() const {
    return sources.empty() ? 0 : tuples.size() / sources.size();
  }
  BoundColumn Bind(size_t col) const {
    const ColumnBinding& b = columns[col];
    return {&sources[b.source]->column(b.column), b.source};
  }
  /// Row id of `row` in the base table behind `b`.
  size_t RowId(const BoundColumn& b, size_t row) const {
    return tuples[row * sources.size() + b.slot];
  }
  /// Materializes one cell (a copy — the storage is typed columns, so
  /// there is no Value to reference).
  rel::Value ValueAt(size_t row, size_t col) const {
    const BoundColumn b = Bind(col);
    return b.col->ValueAt(RowId(b, row));
  }
  bool IsNullAt(size_t row, size_t col) const {
    const BoundColumn b = Bind(col);
    return b.col->encoding() == rel::ColumnVector::Encoding::kEmpty ||
           b.col->IsNull(RowId(b, row));
  }
  /// SQL-literal text of the cell, identical to ValueAt(row, col)
  /// .ToString() — but a dictionary-encoded string renders straight from
  /// the dictionary entry (one final string build, no intermediate Value
  /// copy). This is how the extractor materializes node properties.
  std::string ToStringAt(size_t row, size_t col) const;

  /// Copies the bound values out into a classic materialized ResultSet
  /// (the one place the pipeline pays per-value copies).
  ResultSet Materialize(size_t threads = 1) const;
};

}  // namespace graphgen::query

#endif  // GRAPHGEN_QUERY_COLUMNAR_H_
