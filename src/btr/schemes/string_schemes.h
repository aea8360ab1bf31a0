// The string scheme pool (paper Figure 3, right): Uncompressed, OneValue,
// Dictionary, FSST-on-raw, and Dictionary with an FSST-compressed string
// pool. String decompression never copies dictionary strings: codes are
// replaced by fixed-size (offset, length) slots into a shared pool
// (paper Section 5).
#ifndef BTR_BTR_SCHEMES_STRING_SCHEMES_H_
#define BTR_BTR_SCHEMES_STRING_SCHEMES_H_

#include "btr/scheme.h"

namespace btr {

class StringUncompressed final : public StringScheme {
 public:
  StringSchemeCode code() const override { return StringSchemeCode::kUncompressed; }
  const char* name() const override { return "uncompressed"; }
  double EstimateRatio(const StringStats&, const StringSample&,
                       const CompressionContext&) const override;
  size_t Compress(const StringsView& in, ByteBuffer* out,
                  const CompressionContext& ctx) const override;
  void Decompress(const u8* in, u32 count, DecodedStrings* out,
                  const CompressionConfig& config) const override;
};

class StringOneValue final : public StringScheme {
 public:
  StringSchemeCode code() const override { return StringSchemeCode::kOneValue; }
  const char* name() const override { return "one_value"; }
  double EstimateRatio(const StringStats&, const StringSample&,
                       const CompressionContext&) const override;
  size_t Compress(const StringsView& in, ByteBuffer* out,
                  const CompressionContext& ctx) const override;
  void Decompress(const u8* in, u32 count, DecodedStrings* out,
                  const CompressionConfig& config) const override;
};

class StringDict final : public StringScheme {
 public:
  StringSchemeCode code() const override { return StringSchemeCode::kDict; }
  const char* name() const override { return "dict"; }
  double EstimateRatio(const StringStats&, const StringSample&,
                       const CompressionContext&) const override;
  size_t Compress(const StringsView& in, ByteBuffer* out,
                  const CompressionContext& ctx) const override;
  void Decompress(const u8* in, u32 count, DecodedStrings* out,
                  const CompressionConfig& config) const override;
};

class StringFsst final : public StringScheme {
 public:
  StringSchemeCode code() const override { return StringSchemeCode::kFsst; }
  const char* name() const override { return "fsst"; }
  double EstimateRatio(const StringStats&, const StringSample&,
                       const CompressionContext&) const override;
  size_t Compress(const StringsView& in, ByteBuffer* out,
                  const CompressionContext& ctx) const override;
  void Decompress(const u8* in, u32 count, DecodedStrings* out,
                  const CompressionConfig& config) const override;
};

class StringDictFsst final : public StringScheme {
 public:
  StringSchemeCode code() const override { return StringSchemeCode::kDictFsst; }
  const char* name() const override { return "dict_fsst"; }
  double EstimateRatio(const StringStats&, const StringSample&,
                       const CompressionContext&) const override;
  size_t Compress(const StringsView& in, ByteBuffer* out,
                  const CompressionContext& ctx) const override;
  void Decompress(const u8* in, u32 count, DecodedStrings* out,
                  const CompressionConfig& config) const override;
};

namespace string_detail {

// Builds a first-appearance-order dictionary over `in` and dense codes.
struct DictBuild {
  std::vector<i32> codes;          // per input string
  std::vector<u32> entry_offsets;  // dict_count+1, into pool
  std::vector<u8> pool;            // concatenated distinct strings
  u32 dict_count() const {
    return static_cast<u32>(entry_offsets.empty() ? 0 : entry_offsets.size() - 1);
  }
};
DictBuild BuildDictionary(const StringsView& in);

}  // namespace string_detail

}  // namespace btr

#endif  // BTR_BTR_SCHEMES_STRING_SCHEMES_H_
