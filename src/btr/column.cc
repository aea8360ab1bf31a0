#include "btr/column.h"

namespace btr {

const char* ColumnTypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kInteger: return "integer";
    case ColumnType::kDouble: return "double";
    case ColumnType::kString: return "string";
  }
  return "unknown";
}

StringsView Column::StringBlock(u32 begin, u32 count,
                                std::vector<u32>* scratch_offsets) const {
  BTR_CHECK(type_ == ColumnType::kString);
  BTR_CHECK(begin + count <= row_count_);
  scratch_offsets->resize(count + 1);
  u32 base = begin == 0 ? 0 : string_offsets_[begin - 1];
  (*scratch_offsets)[0] = 0;
  for (u32 i = 0; i < count; i++) {
    (*scratch_offsets)[i + 1] = string_offsets_[begin + i] - base;
  }
  StringsView view;
  view.offsets = scratch_offsets->data();
  view.data = string_data_.data() + base;
  view.count = count;
  return view;
}

void Column::AppendRange(const Column& src, u32 begin, u32 count) {
  BTR_CHECK(src.type_ == type_);
  BTR_CHECK(begin + count <= src.row_count_);
  switch (type_) {
    case ColumnType::kInteger:
      ints_.insert(ints_.end(), src.ints_.begin() + begin,
                   src.ints_.begin() + begin + count);
      break;
    case ColumnType::kDouble:
      doubles_.insert(doubles_.end(), src.doubles_.begin() + begin,
                      src.doubles_.begin() + begin + count);
      break;
    case ColumnType::kString: {
      u32 from = begin == 0 ? 0 : src.string_offsets_[begin - 1];
      u32 to = count == 0 ? from : src.string_offsets_[begin + count - 1];
      u32 base = static_cast<u32>(string_data_.size());
      string_data_.insert(string_data_.end(), src.string_data_.begin() + from,
                          src.string_data_.begin() + to);
      for (u32 i = begin; i < begin + count; i++) {
        string_offsets_.push_back(base + (src.string_offsets_[i] - from));
      }
      break;
    }
  }
  null_flags_.insert(null_flags_.end(), src.null_flags_.begin() + begin,
                     src.null_flags_.begin() + begin + count);
  row_count_ += count;
}

u64 Column::UncompressedBytes() const {
  switch (type_) {
    case ColumnType::kInteger:
      return ints_.size() * sizeof(i32);
    case ColumnType::kDouble:
      return doubles_.size() * sizeof(double);
    case ColumnType::kString:
      // Bytes plus one 4-byte offset per string, matching the binary
      // in-memory representation the paper measures against.
      return string_data_.size() + string_offsets_.size() * sizeof(u32);
  }
  return 0;
}

}  // namespace btr
