#include "datagen/csv.h"

#include <charconv>
#include <cstdio>
#include <cstring>

namespace btr::datagen {

namespace {
constexpr char kSep = '|';

const char* TypeTag(ColumnType type) {
  switch (type) {
    case ColumnType::kInteger: return "int";
    case ColumnType::kDouble: return "double";
    case ColumnType::kString: return "string";
  }
  return "?";
}

Status ParseTypeTag(std::string_view tag, ColumnType* out) {
  if (tag == "int") {
    *out = ColumnType::kInteger;
  } else if (tag == "double") {
    *out = ColumnType::kDouble;
  } else if (tag == "string") {
    *out = ColumnType::kString;
  } else {
    return Status::InvalidArgument("unknown type tag: " + std::string(tag));
  }
  return Status::Ok();
}

}  // namespace

std::string WriteCsv(const Relation& relation) {
  std::string out;
  // Header.
  bool first = true;
  for (const Column& column : relation.columns()) {
    if (!first) out.push_back(kSep);
    first = false;
    out += column.name();
    out.push_back(':');
    out += TypeTag(column.type());
  }
  out.push_back('\n');
  // Rows.
  char scratch[64];
  for (u32 r = 0; r < relation.row_count(); r++) {
    first = true;
    for (const Column& column : relation.columns()) {
      if (!first) out.push_back(kSep);
      first = false;
      if (column.IsNull(r)) continue;  // empty field = NULL
      switch (column.type()) {
        case ColumnType::kInteger: {
          auto [end, ec] = std::to_chars(scratch, scratch + sizeof(scratch),
                                         column.ints()[r]);
          out.append(scratch, end);
          break;
        }
        case ColumnType::kDouble: {
          // %.17g survives the round trip bitwise for finite values.
          int n = std::snprintf(scratch, sizeof(scratch), "%.17g",
                                column.doubles()[r]);
          out.append(scratch, n);
          break;
        }
        case ColumnType::kString: {
          std::string_view s = column.GetString(r);
          out.append(s.data(), s.size());
          break;
        }
      }
    }
    out.push_back('\n');
  }
  return out;
}

Status WriteCsvFile(const Relation& relation, const std::string& path) {
  std::string text = WriteCsv(relation);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (written != text.size()) return Status::IoError("short write");
  return Status::Ok();
}

Status ReadCsv(const std::string& text, Relation* out) {
  size_t pos = 0;
  auto next_line = [&](std::string_view* line) {
    if (pos >= text.size()) return false;
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    *line = std::string_view(text).substr(pos, end - pos);
    pos = end + 1;
    return true;
  };

  std::string_view header;
  if (!next_line(&header)) return Status::InvalidArgument("empty csv");
  std::vector<Column*> columns;
  size_t field_start = 0;
  while (field_start <= header.size()) {
    size_t field_end = header.find(kSep, field_start);
    if (field_end == std::string_view::npos) field_end = header.size();
    std::string_view field = header.substr(field_start, field_end - field_start);
    size_t colon = field.rfind(':');
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument("header field without type tag");
    }
    ColumnType type = ColumnType::kInteger;
    BTR_RETURN_IF_ERROR(ParseTypeTag(field.substr(colon + 1), &type));
    columns.push_back(
        &out->AddColumn(std::string(field.substr(0, colon)), type));
    field_start = field_end + 1;
    if (field_end == header.size()) break;
  }

  std::string_view line;
  while (next_line(&line)) {
    size_t start = 0;
    for (size_t c = 0; c < columns.size(); c++) {
      size_t end = line.find(kSep, start);
      if (end == std::string_view::npos) end = line.size();
      std::string_view field = line.substr(start, end - start);
      Column* column = columns[c];
      if (field.empty() && column->type() != ColumnType::kString) {
        column->AppendNull();
      } else {
        switch (column->type()) {
          case ColumnType::kInteger: {
            i32 value = 0;
            auto [p, ec] =
                std::from_chars(field.data(), field.data() + field.size(), value);
            if (ec != std::errc()) {
              return Status::InvalidArgument("bad int field");
            }
            column->AppendInt(value);
            break;
          }
          case ColumnType::kDouble: {
            double value = 0;
            auto [p, ec] =
                std::from_chars(field.data(), field.data() + field.size(), value);
            if (ec != std::errc()) {
              return Status::InvalidArgument("bad double field");
            }
            column->AppendDouble(value);
            break;
          }
          case ColumnType::kString:
            column->AppendString(field);
            break;
        }
      }
      start = end + 1;
      if (end == line.size()) break;
    }
  }
  return Status::Ok();
}

Status ReadCsvFile(const std::string& path, const std::string& table_name,
                   Relation* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::string text(static_cast<size_t>(size), 0);
  size_t read = std::fread(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (read != text.size()) return Status::IoError("short read");
  *out = Relation(table_name);
  return ReadCsv(text, out);
}

}  // namespace btr::datagen
