// From-scratch Fast Static Symbol Table (FSST) string compression
// (Boncz, Neumann, Leis: "FSST: Fast Random Access String Compression",
// VLDB 2020). BtrBlocks uses FSST directly on string blocks and on string
// dictionaries (paper Table 1, Section 2.2).
//
// A symbol table maps up to 255 one-byte codes to symbols of 1..8 bytes;
// code 255 is an escape marker followed by one literal byte. The table is
// immutable per block. Construction follows the paper's iterative
// bottom-up algorithm: repeatedly encode a sample with the current table,
// count symbol and adjacent-pair frequencies, and keep the 255 candidates
// with the highest gain (frequency x length).
#ifndef BTR_FSST_FSST_H_
#define BTR_FSST_FSST_H_

#include <memory>

#include "util/buffer.h"
#include "util/types.h"

namespace btr::fsst {

inline constexpr u32 kMaxSymbols = 255;
inline constexpr u8 kEscapeCode = 255;
inline constexpr u32 kMaxSymbolLength = 8;

class SymbolTable {
 public:
  SymbolTable();
  ~SymbolTable();
  SymbolTable(SymbolTable&&) noexcept;
  SymbolTable& operator=(SymbolTable&&) noexcept;

  // Builds a table from a training sample (typically the block being
  // compressed, or a sample of it). The sample is capped internally.
  static SymbolTable Build(const u8* sample, size_t sample_len);

  // Compresses `len` bytes with a table from Build. Worst case output is
  // 2*len (all escapes); `out` must have that much room. Returns
  // compressed size.
  size_t Compress(const u8* in, size_t len, u8* out) const;

  // Decompresses `compressed_len` bytes. `out` must have room for the
  // original size plus 8 bytes of slack (symbol copies are 8-byte stores).
  // Returns decompressed size.
  size_t Decompress(const u8* in, size_t compressed_len, u8* out) const;

  // Exact decompressed size without writing output.
  size_t DecompressedSize(const u8* in, size_t compressed_len) const;

  // Serialization: [u8 count][count * u8 lengths][concatenated bytes].
  // A deserialized table decodes only: it has no encoder lookup.
  void SerializeTo(ByteBuffer* out) const;
  static SymbolTable Deserialize(const u8* data, size_t* bytes_consumed);
  size_t SerializedSizeBytes() const;

  u32 symbol_count() const { return count_; }

 private:
  struct Index;

  void AddSymbol(u64 bytes, u8 length);
  // Fills the encoder lookup from the symbols, or clears what it filled.
  void IndexSymbols();
  void ClearIndex();

  // Longest-match step: returns the symbol code for the text at `word`
  // (little-endian load of the next min(remaining,8) bytes), or -1 if only
  // an escape fits. Sets *match_len.
  int FindLongestSymbol(u64 word, u32 remaining, u32* match_len) const;

  u32 count_ = 0;
  u64 symbol_bytes_[kMaxSymbols];
  u8 symbol_length_[kMaxSymbols];
  // Encoder lookup, made by Build only.
  std::unique_ptr<Index> index_;
};

// Convenience helpers for one-shot round trips (tests, small payloads).
size_t CompressBlock(const SymbolTable& table, const u8* in, size_t len,
                     ByteBuffer* out);

}  // namespace btr::fsst

#endif  // BTR_FSST_FSST_H_
