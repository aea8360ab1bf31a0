#include "btr/datablock.h"

#include <atomic>

#include "bitmap/roaring.h"
#include "btr/layout.h"
#include "btr/scheme_picker.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace btr {

namespace {

// Serializes the common block header; returns bytes appended.
void AppendHeader(ColumnType type, u32 count, const u8* null_flags,
                  ByteBuffer* out) {
  out->AppendValue<u8>(static_cast<u8>(type));
  out->AppendValue<u32>(count);
  RoaringBitmap nulls;
  if (null_flags != nullptr) {
    for (u32 i = 0; i < count; i++) {
      if (null_flags[i] != 0) nulls.Add(i);
    }
    nulls.RunOptimize();
  }
  if (nulls.Empty()) {
    out->AppendValue<u32>(0);
  } else {
    out->AppendValue<u32>(static_cast<u32>(nulls.SerializedSizeBytes()));
    nulls.SerializeTo(out);
  }
}

void RecordTelemetry(const CompressionConfig& config, ColumnType type,
                     u8 root_scheme, double elapsed_ns) {
  if (config.telemetry == nullptr) return;
  config.telemetry->compress_ns += static_cast<u64>(elapsed_ns);
  config.telemetry->scheme_uses[static_cast<u8>(type)][root_scheme]++;
}

// Block-granular compression metrics (one histogram sample per block).
void RecordCompressMetrics(u64 input_bytes, u64 output_bytes, u64 elapsed_ns) {
  obs::Registry& registry = obs::Registry::Get();
  static obs::Counter& blocks = registry.GetCounter("btr.compress.blocks");
  static obs::Counter& in_bytes =
      registry.GetCounter("btr.compress.input_bytes");
  static obs::Counter& out_bytes =
      registry.GetCounter("btr.compress.output_bytes");
  static obs::Histogram& block_ns =
      registry.GetHistogram("btr.compress.block_ns");
  blocks.Add();
  in_bytes.Add(input_bytes);
  out_bytes.Add(output_bytes);
  block_ns.Record(elapsed_ns);
}

// Per-(type, root scheme) decode timing histograms, cached after the first
// registry lookup. The fill race is benign (same registry-owned pointer).
obs::Histogram& DecodeHistogram(ColumnType type, u8 scheme) {
  static auto* slots = new std::atomic<obs::Histogram*>[3][16]();
  std::atomic<obs::Histogram*>& slot = slots[static_cast<u8>(type)][scheme];
  obs::Histogram* h = slot.load(std::memory_order_acquire);
  if (h == nullptr) {
    const char* type_tag = type == ColumnType::kInteger  ? "int"
                           : type == ColumnType::kDouble ? "double"
                                                         : "string";
    const char* scheme_tag = "?";
    switch (type) {
      case ColumnType::kInteger:
        scheme_tag = IntSchemeName(static_cast<IntSchemeCode>(scheme));
        break;
      case ColumnType::kDouble:
        scheme_tag = DoubleSchemeName(static_cast<DoubleSchemeCode>(scheme));
        break;
      case ColumnType::kString:
        scheme_tag = StringSchemeName(static_cast<StringSchemeCode>(scheme));
        break;
    }
    h = &obs::Registry::Get().GetHistogram(std::string("btr.decompress.") +
                                           type_tag + "." + scheme_tag + ".ns");
    slot.store(h, std::memory_order_release);
  }
  return *h;
}

// Runs the block compression body with an optional cascade trace attached,
// moving the resulting tree into `info`.
template <typename BodyFn>
void WithCascadeTrace(const CompressionConfig& config,
                      BlockCompressionInfo* info, const BodyFn& body) {
  if (info == nullptr || !config.collect_cascade_trace) {
    CompressionContext ctx{&config, config.max_cascade_depth};
    body(ctx);
    return;
  }
  obs::CascadeNode holder;  // the real root is holder.children[0]
  CompressionContext ctx{&config, config.max_cascade_depth, false, &holder};
  body(ctx);
  if (!holder.children.empty()) {
    info->trace = std::move(holder.children.front());
  }
}

}  // namespace

size_t CompressIntBlock(const i32* values, const u8* null_flags, u32 count,
                        ByteBuffer* out, const CompressionConfig& config,
                        BlockCompressionInfo* info) {
  BTR_TRACE_SPAN("btr.compress.block.int");
  Timer timer;
  size_t start = out->size();
  AppendHeader(ColumnType::kInteger, count, null_flags, out);
  IntSchemeCode chosen;
  WithCascadeTrace(config, info, [&](const CompressionContext& ctx) {
    CompressInts(values, count, out, ctx, &chosen);
  });
  RecordTelemetry(config, ColumnType::kInteger, static_cast<u8>(chosen),
                  timer.ElapsedNanos());
  RecordCompressMetrics(static_cast<u64>(count) * sizeof(i32),
                        out->size() - start,
                        static_cast<u64>(timer.ElapsedNanos()));
  if (info != nullptr) {
    info->root_scheme = static_cast<u8>(chosen);
    info->compressed_bytes = out->size() - start;
  }
  return out->size() - start;
}

size_t CompressDoubleBlock(const double* values, const u8* null_flags, u32 count,
                           ByteBuffer* out, const CompressionConfig& config,
                           BlockCompressionInfo* info) {
  BTR_TRACE_SPAN("btr.compress.block.double");
  Timer timer;
  size_t start = out->size();
  AppendHeader(ColumnType::kDouble, count, null_flags, out);
  DoubleSchemeCode chosen;
  WithCascadeTrace(config, info, [&](const CompressionContext& ctx) {
    CompressDoubles(values, count, out, ctx, &chosen);
  });
  RecordTelemetry(config, ColumnType::kDouble, static_cast<u8>(chosen),
                  timer.ElapsedNanos());
  RecordCompressMetrics(static_cast<u64>(count) * sizeof(double),
                        out->size() - start,
                        static_cast<u64>(timer.ElapsedNanos()));
  if (info != nullptr) {
    info->root_scheme = static_cast<u8>(chosen);
    info->compressed_bytes = out->size() - start;
  }
  return out->size() - start;
}

size_t CompressStringBlock(const StringsView& values, const u8* null_flags,
                           ByteBuffer* out, const CompressionConfig& config,
                           BlockCompressionInfo* info) {
  BTR_TRACE_SPAN("btr.compress.block.string");
  Timer timer;
  size_t start = out->size();
  AppendHeader(ColumnType::kString, values.count, null_flags, out);
  StringSchemeCode chosen;
  WithCascadeTrace(config, info, [&](const CompressionContext& ctx) {
    CompressStrings(values, out, ctx, &chosen);
  });
  RecordTelemetry(config, ColumnType::kString, static_cast<u8>(chosen),
                  timer.ElapsedNanos());
  RecordCompressMetrics(static_cast<u64>(values.TotalBytes()) +
                            static_cast<u64>(values.count) * sizeof(u32),
                        out->size() - start,
                        static_cast<u64>(timer.ElapsedNanos()));
  if (info != nullptr) {
    info->root_scheme = static_cast<u8>(chosen);
    info->compressed_bytes = out->size() - start;
  }
  return out->size() - start;
}

u64 DecodedBlock::ValueBytes() const {
  switch (type) {
    case ColumnType::kInteger: return static_cast<u64>(count) * sizeof(i32);
    case ColumnType::kDouble: return static_cast<u64>(count) * sizeof(double);
    case ColumnType::kString: {
      // Logical size, not pool size: dictionary decoding shares one pool
      // entry across repeated values, but the scan output is count slots
      // of the full string lengths.
      u64 bytes = static_cast<u64>(count) * sizeof(u32);
      for (const StringSlot& slot : strings.slots) bytes += slot.length;
      return bytes;
    }
  }
  return 0;
}

void DecodedBlock::Clear() {
  count = 0;
  ints.clear();
  doubles.clear();
  strings.slots.clear();
  strings.pool.Clear();
  null_flags.clear();
}

void DecompressBlock(const u8* data, DecodedBlock* out,
                     const CompressionConfig& config) {
  BTR_TRACE_SPAN("btr.decompress.block");
  Timer timer;
  layout::Block b = layout::ReadBlock(data);
  out->Clear();
  out->type = b.type;
  out->count = b.count;
  if (b.null_bytes > 0) {
    out->null_flags.assign(b.count, 0);
    b.NullRows().ForEach([&](u32 i) { out->null_flags[i] = 1; });
  }
  switch (b.type) {
    case ColumnType::kInteger:
      out->ints.resize(b.count + kDecodeSlack);
      DecompressInts(b.vector, b.count, out->ints.data());
      out->ints.resize(b.count);
      break;
    case ColumnType::kDouble:
      out->doubles.resize(b.count + kDecodeSlack);
      DecompressDoubles(b.vector, b.count, out->doubles.data());
      out->doubles.resize(b.count);
      break;
    case ColumnType::kString:
      DecompressStrings(b.vector, b.count, &out->strings, config);
      break;
  }
  static obs::Counter& blocks =
      obs::Registry::Get().GetCounter("btr.decompress.blocks");
  blocks.Add();
  DecodeHistogram(b.type, b.scheme())
      .Record(static_cast<u64>(timer.ElapsedNanos()));
}

u8 PeekBlockScheme(const u8* data) {
  return layout::ReadBlock(data).scheme();
}

Status ValidateBlock(const u8* data, size_t size, ColumnType expected_type,
                     u32 expected_count) {
  // The header, then the null bitmap, then at least one scheme-code byte.
  if (size < layout::kBlockHeaderBytes + 1) {
    return Status::Corruption("block truncated: no header");
  }
  if (data[0] > 2) return Status::Corruption("block has invalid type byte");
  layout::Block b = layout::ReadBlock(data);
  if (b.type != expected_type) {
    return Status::Corruption("block type does not match column type");
  }
  if (b.count != expected_count || b.count > kBlockCapacity) {
    return Status::Corruption("block value count does not match metadata");
  }
  if (layout::kBlockHeaderBytes + u64{b.null_bytes} + 1 > size) {
    return Status::Corruption("block null bitmap exceeds block size");
  }
  u8 scheme = b.scheme();
  bool scheme_ok = false;
  switch (b.type) {
    case ColumnType::kInteger: scheme_ok = scheme < kIntSchemeCount; break;
    case ColumnType::kDouble: scheme_ok = scheme < kDoubleSchemeCount; break;
    case ColumnType::kString: scheme_ok = scheme < kStringSchemeCount; break;
  }
  if (!scheme_ok) return Status::Corruption("block has unknown root scheme");
  return Status::Ok();
}

}  // namespace btr
