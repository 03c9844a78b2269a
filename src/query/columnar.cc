#include "query/columnar.h"

#include "common/parallel.h"

namespace graphgen::query {

ResultSet RowIdResult::Materialize(size_t threads) const {
  ResultSet out;
  out.schema = schema;
  const size_t n = NumRows();
  const size_t m = columns.size();
  std::vector<BoundColumn> bound;
  bound.reserve(m);
  for (size_t c = 0; c < m; ++c) bound.push_back(Bind(c));
  out.rows.resize(n);
  ParallelFor(
      n,
      [&](size_t begin, size_t end) {
        for (size_t r = begin; r < end; ++r) {
          rel::Row row;
          row.reserve(m);
          for (size_t c = 0; c < m; ++c) {
            row.push_back(bound[c].col->ValueAt(RowId(bound[c], r)));
          }
          out.rows[r] = std::move(row);
        }
      },
      threads);
  return out;
}

std::string RowIdResult::ToStringAt(size_t row, size_t col) const {
  if (IsNullAt(row, col)) return "NULL";
  const BoundColumn b = Bind(col);
  const size_t id = RowId(b, row);
  using Encoding = rel::ColumnVector::Encoding;
  switch (b.col->encoding()) {
    case Encoding::kInt64:
      return std::to_string(b.col->Int64At(id));
    case Encoding::kDictString:
      return "'" + b.col->StringAt(id) + "'";
    default:
      return b.col->ValueAt(id).ToString();
  }
}

}  // namespace graphgen::query
