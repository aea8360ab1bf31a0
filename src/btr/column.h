// Column data model. BtrBlocks compresses typed columns of integers,
// double floating-point numbers and variable-length strings (paper
// Section 2.2), divided into fixed-size blocks of 64,000 entries.
#ifndef BTR_BTR_COLUMN_H_
#define BTR_BTR_COLUMN_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/buffer.h"
#include "util/types.h"

namespace btr {

inline constexpr u32 kBlockCapacity = 64000;  // values per block (paper 2.2)

enum class ColumnType : u8 { kInteger = 0, kDouble = 1, kString = 2 };

const char* ColumnTypeName(ColumnType type);

// Non-owning view over a contiguous run of strings.
// offsets has count+1 entries; string i spans data[offsets[i], offsets[i+1]).
struct StringsView {
  const u32* offsets = nullptr;
  const u8* data = nullptr;
  u32 count = 0;

  u32 TotalBytes() const { return count == 0 ? 0 : offsets[count] - offsets[0]; }
  u32 Length(u32 i) const { return offsets[i + 1] - offsets[i]; }
  std::string_view Get(u32 i) const {
    return std::string_view(reinterpret_cast<const char*>(data + offsets[i]),
                            Length(i));
  }
};

// Decompressed string block: (offset, length) slots into a shared pool.
// This mirrors the paper's decompression layout (Section 5): dictionary
// decoding emits fixed-size tuples instead of copying string bytes.
struct StringSlot {
  u32 offset;
  u32 length;
};

struct DecodedStrings {
  std::vector<StringSlot> slots;
  ByteBuffer pool;

  std::string_view Get(u32 i) const {
    return std::string_view(
        reinterpret_cast<const char*>(pool.data() + slots[i].offset),
        slots[i].length);
  }
};

// An owning, in-memory column. NULL entries keep a default value in the
// value array (0 / 0.0 / "") and set the corresponding null flag, matching
// how BtrBlocks separates NULL tracking from value encoding.
class Column {
 public:
  Column(std::string name, ColumnType type) : name_(std::move(name)), type_(type) {}

  const std::string& name() const { return name_; }
  ColumnType type() const { return type_; }
  u32 size() const { return row_count_; }

  // --- Appending ------------------------------------------------------------
  void AppendInt(i32 value) {
    BTR_DCHECK(type_ == ColumnType::kInteger);
    ints_.push_back(value);
    null_flags_.push_back(0);
    row_count_++;
  }
  void AppendDouble(double value) {
    BTR_DCHECK(type_ == ColumnType::kDouble);
    doubles_.push_back(value);
    null_flags_.push_back(0);
    row_count_++;
  }
  void AppendString(std::string_view value) {
    BTR_DCHECK(type_ == ColumnType::kString);
    string_data_.insert(string_data_.end(), value.begin(), value.end());
    string_offsets_.push_back(static_cast<u32>(string_data_.size()));
    null_flags_.push_back(0);
    row_count_++;
  }
  void AppendNull() {
    switch (type_) {
      case ColumnType::kInteger: ints_.push_back(0); break;
      case ColumnType::kDouble: doubles_.push_back(0.0); break;
      case ColumnType::kString:
        string_offsets_.push_back(static_cast<u32>(string_data_.size()));
        break;
    }
    null_flags_.push_back(1);
    row_count_++;
  }
  // Appends rows [begin, begin+count) of `src`, a column of this type.
  void AppendRange(const Column& src, u32 begin, u32 count);

  // --- Access -----------------------------------------------------------------
  const std::vector<i32>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  bool IsNull(u32 row) const { return null_flags_[row] != 0; }
  const std::vector<u8>& null_flags() const { return null_flags_; }

  std::string_view GetString(u32 row) const {
    u32 begin = row == 0 ? 0 : string_offsets_[row - 1];
    u32 end = string_offsets_[row];
    return std::string_view(
        reinterpret_cast<const char*>(string_data_.data()) + begin, end - begin);
  }

  // View of rows [begin, begin+count). For string columns the returned view
  // points into scratch_offsets, which must outlive the view.
  StringsView StringBlock(u32 begin, u32 count,
                          std::vector<u32>* scratch_offsets) const;

  // Uncompressed in-memory footprint in bytes (values + offsets).
  u64 UncompressedBytes() const;

 private:
  std::string name_;
  ColumnType type_;
  u32 row_count_ = 0;

  std::vector<i32> ints_;
  std::vector<double> doubles_;
  std::vector<u8> string_data_;
  std::vector<u32> string_offsets_;  // end offset of row i (size == row_count_)
  std::vector<u8> null_flags_;
};

}  // namespace btr

#endif  // BTR_BTR_COLUMN_H_
