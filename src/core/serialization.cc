#include "core/serialization.h"

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <new>
#include <vector>

#include "common/faultpoints.h"

namespace graphgen {
namespace {

// Closes a file opened for writing. A write error left on the stream or a
// failed final flush (a full disk) means the file is truncated.
Status FinishWrite(FILE* f, const std::string& path) {
  const bool write_failed = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || write_failed) {
    return Status::ExecutionError("write failed: " + path);
  }
  return Status::OK();
}

}  // namespace

Status SerializeEdgeList(const Graph& graph, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::ExecutionError("cannot open " + path + " for writing");
  }
  graph.ForEachVertex([&](NodeId u) {
    graph.ForEachNeighbor(u, [&](NodeId v) {
      std::fprintf(f, "%u %u\n", u, v);
    });
  });
  return FinishWrite(f, path);
}

Status SerializeCondensed(const CondensedStorage& storage,
                          const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::ExecutionError("cannot open " + path + " for writing");
  }
  std::fprintf(f, "graphgen-condensed 1\n");
  std::fprintf(f, "%zu %zu\n", storage.NumRealNodes(),
               storage.NumVirtualNodes());
  // One line per source node: "<kind><index> <raw-ref>*".
  for (NodeId u = 0; u < storage.NumRealNodes(); ++u) {
    const auto& out = storage.OutEdges(NodeRef::Real(u));
    if (out.empty() && !storage.IsDeleted(u)) continue;
    std::fprintf(f, "r%u%s", u, storage.IsDeleted(u) ? " D" : "");
    for (NodeRef r : out) std::fprintf(f, " %" PRIu32, r.raw());
    std::fputc('\n', f);
  }
  for (uint32_t v = 0; v < storage.NumVirtualNodes(); ++v) {
    const auto& out = storage.OutEdges(NodeRef::Virtual(v));
    if (out.empty()) continue;
    std::fprintf(f, "v%u", v);
    for (NodeRef r : out) std::fprintf(f, " %" PRIu32, r.raw());
    std::fputc('\n', f);
  }
  return FinishWrite(f, path);
}

// Hostile input fails cleanly: every index and reference is checked
// against the header's counts before it touches the adjacency arrays, and
// an allocation the header asks for but the process cannot satisfy is
// ResourceExhausted rather than an escaping std::bad_alloc.
Result<CondensedStorage> LoadCondensed(const std::string& path) {
  std::unique_ptr<FILE, int (*)(FILE*)> file(std::fopen(path.c_str(), "r"),
                                             &std::fclose);
  FILE* f = file.get();
  if (f == nullptr) {
    return Status::NotFound("cannot open " + path);
  }
  auto bad = [&path](const std::string& what) {
    return Status::ParseError(what + " in " + path);
  };
  char magic[64];
  int version = 0;
  if (std::fscanf(f, "%63s %d", magic, &version) != 2 ||
      std::string(magic) != "graphgen-condensed" || version != 1) {
    return Status::ParseError("not a graphgen condensed file: " + path);
  }
  size_t num_real = 0;
  size_t num_virtual = 0;
  if (std::fscanf(f, "%zu %zu", &num_real, &num_virtual) != 2) {
    return bad("bad header");
  }
  if (num_real > NodeRef::kVirtualBit || num_virtual > NodeRef::kVirtualBit) {
    return bad("node counts beyond the 31-bit NodeRef index range");
  }
  auto in_range = [&](NodeRef r) {
    return r.index() < (r.is_virtual() ? num_virtual : num_real);
  };
  try {
    GRAPHGEN_FAULT_POINT("core.load_condensed");
    CondensedStorage storage;
    storage.AddRealNodes(num_real);
    for (size_t v = 0; v < num_virtual; ++v) storage.AddVirtualNode();

    char kind = 0;
    while (std::fscanf(f, " %c", &kind) == 1) {
      if (kind != 'r' && kind != 'v') return bad("unknown line kind");
      uint32_t index = 0;
      if (std::fscanf(f, "%" SCNu32, &index) != 1) {
        return bad("missing node index");
      }
      const NodeRef from =
          kind == 'r' ? NodeRef::Real(index) : NodeRef::Virtual(index);
      if (index >= NodeRef::kVirtualBit || !in_range(from)) {
        return bad("node index out of range");
      }
      // Remainder of the line: optional D marker + raw refs.
      int c = 0;
      while ((c = std::fgetc(f)) != EOF && c != '\n') {
        if (c == ' ') continue;
        if (c == 'D') {
          if (from.is_virtual()) return bad("deletion marker on virtual node");
          storage.DeleteRealNode(index);
          continue;
        }
        std::ungetc(c, f);
        uint32_t raw = 0;
        if (std::fscanf(f, "%" SCNu32, &raw) != 1) {
          return bad("malformed edge reference");
        }
        if (!in_range(NodeRef::FromRaw(raw))) {
          return bad("edge reference out of range");
        }
        storage.AddEdge(from, NodeRef::FromRaw(raw));
      }
    }
    return storage;
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("cannot allocate the graph in " + path);
  }
}

namespace {

// ------------------------ columnar table snapshot (binary, v1) -----------
//
//   magic "GGTBL1\n"
//   u64 name_len, name bytes
//   u64 num_columns, u64 num_rows
//   per column:
//     u64 name_len, name bytes; u8 declared ValueType; u8 encoding tag
//     u8 has_nulls; [num_rows null bytes]
//     tag 'I': raw int64[num_rows]          tag 'D': raw double[num_rows]
//     tag 'S': u64 dict_size, dict strings (u64 len + bytes) in code
//              order, raw u32 codes[num_rows]
//     tag 'M': per cell u8 ValueType + payload (i64 / f64 / len+bytes)
//     tag 'E': nothing (every row NULL)

bool WriteU64(FILE* f, uint64_t v) {
  return std::fwrite(&v, sizeof(v), 1, f) == 1;
}
bool WriteU8(FILE* f, uint8_t v) {
  return std::fwrite(&v, sizeof(v), 1, f) == 1;
}
bool WriteBytes(FILE* f, const void* p, size_t n) {
  return n == 0 || std::fwrite(p, 1, n, f) == n;
}
bool WriteString(FILE* f, const std::string& s) {
  return WriteU64(f, s.size()) && WriteBytes(f, s.data(), s.size());
}

bool ReadU64(FILE* f, uint64_t* v) {
  return std::fread(v, sizeof(*v), 1, f) == 1;
}
bool ReadU8(FILE* f, uint8_t* v) {
  return std::fread(v, sizeof(*v), 1, f) == 1;
}
bool ReadBytes(FILE* f, void* p, size_t n) {
  return n == 0 || std::fread(p, 1, n, f) == n;
}
// Reads a length-prefixed string; `max_bytes` (the snapshot's file size)
// bounds the allocation so a corrupt length degrades to a parse error
// instead of a multi-gigabyte resize.
bool ReadString(FILE* f, std::string* s, uint64_t max_bytes) {
  uint64_t len = 0;
  if (!ReadU64(f, &len) || len > max_bytes) return false;
  s->resize(len);
  return ReadBytes(f, s->data(), len);
}

char EncodingTag(rel::ColumnVector::Encoding e) {
  using Encoding = rel::ColumnVector::Encoding;
  switch (e) {
    case Encoding::kEmpty: return 'E';
    case Encoding::kInt64: return 'I';
    case Encoding::kDouble: return 'D';
    case Encoding::kDictString: return 'S';
    case Encoding::kMixed: return 'M';
  }
  return '?';
}

bool WriteColumn(FILE* f, const rel::ColumnVector& col, size_t n) {
  using Encoding = rel::ColumnVector::Encoding;
  if (!WriteU8(f, static_cast<uint8_t>(EncodingTag(col.encoding())))) {
    return false;
  }
  if (!WriteU8(f, col.has_nulls() ? 1 : 0)) return false;
  if (col.has_nulls() && !WriteBytes(f, col.NullMask(), n)) return false;
  switch (col.encoding()) {
    case Encoding::kEmpty:
      return true;
    case Encoding::kInt64:
      return WriteBytes(f, col.Int64Data(), n * sizeof(int64_t));
    case Encoding::kDouble:
      return WriteBytes(f, col.DoubleData(), n * sizeof(double));
    case Encoding::kDictString: {
      const rel::StringDictionary& dict = col.dict();
      if (!WriteU64(f, dict.size())) return false;
      for (uint32_t code = 0; code < dict.size(); ++code) {
        if (!WriteString(f, dict.At(code))) return false;
      }
      return WriteBytes(f, col.CodeData(), n * sizeof(uint32_t));
    }
    case Encoding::kMixed:
      for (size_t i = 0; i < n; ++i) {
        const rel::Value v = col.ValueAt(i);
        if (!WriteU8(f, static_cast<uint8_t>(v.type()))) return false;
        switch (v.type()) {
          case rel::ValueType::kNull:
            break;
          case rel::ValueType::kInt64: {
            const int64_t x = v.AsInt64();
            if (!WriteBytes(f, &x, sizeof(x))) return false;
            break;
          }
          case rel::ValueType::kDouble: {
            const double x = v.AsDouble();
            if (!WriteBytes(f, &x, sizeof(x))) return false;
            break;
          }
          case rel::ValueType::kString:
            if (!WriteString(f, v.AsString())) return false;
            break;
        }
      }
      return true;
  }
  return false;
}

Result<rel::ColumnVector> ReadColumn(FILE* f, size_t n, uint64_t max_bytes,
                                     const std::string& path) {
  const auto corrupt = [&] {
    return Status::ParseError("corrupt columnar snapshot: " + path);
  };
  uint8_t tag = 0;
  uint8_t has_nulls = 0;
  if (!ReadU8(f, &tag) || !ReadU8(f, &has_nulls)) return corrupt();
  std::vector<uint8_t> nulls;
  if (has_nulls != 0) {
    nulls.resize(n);
    if (!ReadBytes(f, nulls.data(), n)) return corrupt();
  }
  const auto is_null = [&](size_t i) {
    return !nulls.empty() && nulls[i] != 0;
  };
  rel::ColumnVector col;
  col.Reserve(n);
  switch (tag) {
    case 'E': {
      for (size_t i = 0; i < n; ++i) col.AppendNull();
      return col;
    }
    case 'I': {
      std::vector<int64_t> data(n);
      if (!ReadBytes(f, data.data(), n * sizeof(int64_t))) return corrupt();
      if (nulls.empty()) return rel::ColumnVector::OfInt64(std::move(data));
      for (size_t i = 0; i < n; ++i) {
        if (is_null(i)) {
          col.AppendNull();
        } else {
          col.AppendInt64(data[i]);
        }
      }
      return col;
    }
    case 'D': {
      std::vector<double> data(n);
      if (!ReadBytes(f, data.data(), n * sizeof(double))) return corrupt();
      if (nulls.empty()) return rel::ColumnVector::OfDouble(std::move(data));
      for (size_t i = 0; i < n; ++i) {
        if (is_null(i)) {
          col.AppendNull();
        } else {
          col.AppendDouble(data[i]);
        }
      }
      return col;
    }
    case 'S': {
      uint64_t dict_size = 0;
      // Each dictionary entry costs at least its 8-byte length prefix, so
      // a legitimate dict_size is bounded by the file size / 8.
      if (!ReadU64(f, &dict_size) || dict_size > max_bytes / 8) {
        return corrupt();
      }
      std::vector<std::string> dict(dict_size);
      for (uint64_t i = 0; i < dict_size; ++i) {
        if (!ReadString(f, &dict[i], max_bytes)) return corrupt();
      }
      std::vector<uint32_t> codes(n);
      if (!ReadBytes(f, codes.data(), n * sizeof(uint32_t))) return corrupt();
      // Replaying in row order re-interns the dictionary in the same
      // first-appearance order, so codes round-trip exactly.
      for (size_t i = 0; i < n; ++i) {
        if (is_null(i)) {
          col.AppendNull();
          continue;
        }
        if (codes[i] >= dict_size) return corrupt();
        col.AppendString(dict[codes[i]]);
      }
      return col;
    }
    case 'M': {
      for (size_t i = 0; i < n; ++i) {
        uint8_t vt = 0;
        if (!ReadU8(f, &vt)) return corrupt();
        switch (static_cast<rel::ValueType>(vt)) {
          case rel::ValueType::kNull:
            col.AppendNull();
            break;
          case rel::ValueType::kInt64: {
            int64_t x = 0;
            if (!ReadBytes(f, &x, sizeof(x))) return corrupt();
            col.AppendInt64(x);
            break;
          }
          case rel::ValueType::kDouble: {
            double x = 0;
            if (!ReadBytes(f, &x, sizeof(x))) return corrupt();
            col.AppendDouble(x);
            break;
          }
          case rel::ValueType::kString: {
            std::string s;
            if (!ReadString(f, &s, max_bytes)) return corrupt();
            col.AppendString(s);
            break;
          }
          default:
            return corrupt();
        }
      }
      return col;
    }
    default:
      return corrupt();
  }
}

}  // namespace

Status SerializeTableColumnar(const rel::Table& table,
                              const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::ExecutionError("cannot open " + path + " for writing");
  }
  const size_t n = table.NumRows();
  bool ok = WriteBytes(f, "GGTBL1\n", 7) && WriteString(f, table.name()) &&
            WriteU64(f, table.NumColumns()) && WriteU64(f, n);
  for (size_t c = 0; ok && c < table.NumColumns(); ++c) {
    const rel::ColumnDef& def = table.schema().column(c);
    ok = WriteString(f, def.name) &&
         WriteU8(f, static_cast<uint8_t>(def.type)) &&
         WriteColumn(f, table.column(c), n);
  }
  Status closed = FinishWrite(f, path);
  if (!ok) return Status::ExecutionError("write failed: " + path);
  return closed;
}

Result<rel::Table> LoadTableColumnar(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open " + path);
  }
  const auto fail = [&](const std::string& why) {
    std::fclose(f);
    return Status::ParseError(why + ": " + path);
  };
  // File size bounds every header-declared count: a corrupt length can
  // never allocate more than the snapshot itself could hold.
  std::fseek(f, 0, SEEK_END);
  const long end = std::ftell(f);
  std::rewind(f);
  const uint64_t max_bytes = end > 0 ? static_cast<uint64_t>(end) : 0;
  char magic[7];
  if (!ReadBytes(f, magic, 7) || std::string_view(magic, 7) != "GGTBL1\n") {
    return fail("not a graphgen columnar snapshot");
  }
  std::string name;
  uint64_t ncols = 0;
  uint64_t nrows = 0;
  if (!ReadString(f, &name, max_bytes) || !ReadU64(f, &ncols) ||
      !ReadU64(f, &nrows)) {
    return fail("bad header");
  }
  // Every encoding spends at least one byte per row per column (null
  // mask, code, value, or tag), and each column header is >= 10 bytes.
  if (ncols > max_bytes / 10 || (ncols > 0 && nrows > max_bytes)) {
    return fail("bad header");
  }
  std::vector<rel::ColumnDef> defs;
  std::vector<rel::ColumnVector> columns;
  defs.reserve(ncols);
  columns.reserve(ncols);
  for (uint64_t c = 0; c < ncols; ++c) {
    rel::ColumnDef def;
    uint8_t vt = 0;
    if (!ReadString(f, &def.name, max_bytes) || !ReadU8(f, &vt)) {
      return fail("bad column header");
    }
    def.type = static_cast<rel::ValueType>(vt);
    auto col = ReadColumn(f, nrows, max_bytes, path);
    if (!col.ok()) {
      std::fclose(f);
      return col.status();
    }
    defs.push_back(std::move(def));
    columns.push_back(std::move(col).ValueOrDie());
  }
  std::fclose(f);
  return rel::Table::FromColumns(std::move(name),
                                 rel::Schema(std::move(defs)),
                                 std::move(columns));
}

}  // namespace graphgen
