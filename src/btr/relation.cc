#include "btr/relation.h"

#include <algorithm>

#include "obs/trace.h"

namespace btr {

CompressedColumn CompressColumn(const Column& column,
                                const CompressionConfig& config) {
  BTR_TRACE_SPAN("btr.compress.column");
  CompressedColumn result;
  result.name = column.name();
  result.type = column.type();
  result.uncompressed_bytes = column.UncompressedBytes();
  u32 row_count = column.size();
  std::vector<u32> scratch_offsets;
  for (u32 begin = 0; begin < row_count; begin += kBlockCapacity) {
    u32 count = std::min(kBlockCapacity, row_count - begin);
    ByteBuffer block;
    BlockCompressionInfo info;
    const u8* nulls = column.null_flags().data() + begin;
    // Skip the null bitmap entirely for all-valid ranges.
    bool has_nulls = false;
    for (u32 i = 0; i < count && !has_nulls; i++) has_nulls = nulls[i] != 0;
    const u8* null_arg = has_nulls ? nulls : nullptr;
    switch (column.type()) {
      case ColumnType::kInteger:
        CompressBlock(column.ints().data() + begin, null_arg, count, &block,
                      config, &info);
        break;
      case ColumnType::kDouble:
        CompressBlock(column.doubles().data() + begin, null_arg, count, &block,
                      config, &info);
        break;
      case ColumnType::kString: {
        StringsView view = column.StringBlock(begin, count, &scratch_offsets);
        CompressBlock(view, null_arg, &block, config, &info);
        break;
      }
    }
    result.blocks.push_back(std::move(block));
    result.block_value_counts.push_back(count);
    result.block_root_schemes.push_back(info.root_scheme);
    if (config.collect_cascade_trace) {
      result.block_traces.push_back(std::move(info.trace));
    }
  }
  return result;
}

CompressedRelation CompressRelation(const Relation& relation,
                                    const CompressionConfig& config,
                                    exec::ThreadPool* pool) {
  CompressedRelation result;
  result.name = relation.name();
  result.row_count = relation.row_count();
  const size_t columns = relation.columns().size();
  result.columns.resize(columns);
  // Column tasks may run in parallel, so each records into its own
  // Telemetry; the caller's sums them once every task is done.
  std::vector<Telemetry> telemetry(config.telemetry != nullptr ? columns : 0);
  exec::ParallelFor(pool, 0, columns, [&](u64 i) {
    CompressionConfig column_config = config;
    if (config.telemetry != nullptr) column_config.telemetry = &telemetry[i];
    result.columns[i] = CompressColumn(relation.columns()[i], column_config);
  });
  for (const Telemetry& column : telemetry) config.telemetry->Add(column);
  return result;
}

u64 DecompressColumn(const CompressedColumn& column,
                     const CompressionConfig& config, DecodedBlock* scratch) {
  BTR_TRACE_SPAN("btr.decompress.column");
  u64 bytes = 0;
  for (const ByteBuffer& block : column.blocks) {
    DecompressBlock(block.data(), scratch, config);
    bytes += scratch->ValueBytes();
  }
  return bytes;
}

u64 DecompressRelation(const CompressedRelation& relation,
                       const CompressionConfig& config,
                       exec::ThreadPool* pool) {
  std::vector<u64> bytes(relation.columns.size(), 0);
  exec::ParallelFor(pool, 0, relation.columns.size(), [&](u64 i) {
    DecodedBlock scratch;
    bytes[i] = DecompressColumn(relation.columns[i], config, &scratch);
  });
  u64 total = 0;
  for (u64 b : bytes) total += b;
  return total;
}

Relation MaterializeRelation(const CompressedRelation& compressed,
                             const CompressionConfig& config) {
  Relation relation(compressed.name);
  for (const CompressedColumn& cc : compressed.columns) {
    Column& column = relation.AddColumn(cc.name, cc.type);
    DecodedBlock block;
    for (const ByteBuffer& blob : cc.blocks) {
      DecompressBlock(blob.data(), &block, config);
      for (u32 i = 0; i < block.count; i++) {
        if (block.IsNull(i)) {
          column.AppendNull();
          continue;
        }
        switch (block.type) {
          case ColumnType::kInteger: column.AppendInt(block.ints[i]); break;
          case ColumnType::kDouble: column.AppendDouble(block.doubles[i]); break;
          case ColumnType::kString:
            column.AppendString(block.strings.Get(i));
            break;
        }
      }
    }
  }
  return relation;
}

}  // namespace btr
