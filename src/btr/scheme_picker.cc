#include "btr/scheme_picker.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <type_traits>

#include "bitpack/bitpack.h"
#include "obs/cascade_trace.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/bits.h"
#include "util/timer.h"

namespace btr {

// --- quick picks for estimation mode -------------------------------------
// While compressing a *sample* to estimate a root scheme's ratio, cascade
// children are selected with cheap statistics-based size models instead of
// another round of sample compression per candidate. This keeps scheme
// selection near the paper's ~1.2% of total compression time while still
// letting the sample compression measure realistic cascade gains.

IntSchemeCode SchemeTraits<i32>::QuickPick(const i32* in, u32 count,
                                           const IntStats& stats,
                                           const CompressionConfig& config) {
  if (stats.unique_count == 1 &&
      config.SchemeEnabled(IntSchemeCode::kOneValue)) {
    return IntSchemeCode::kOneValue;
  }
  double best_size = static_cast<double>(count) * sizeof(i32);
  IntSchemeCode best = IntSchemeCode::kUncompressed;
  auto consider = [&](IntSchemeCode code, double size) {
    if (config.SchemeEnabled(code) && size < best_size) {
      best_size = size;
      best = code;
    }
  };
  if (stats.AverageRunLength() >= 2.0) {
    // Values + lengths, assuming children roughly halve each vector.
    consider(IntSchemeCode::kRle, stats.run_count * 8.0 * 0.6);
  }
  if (stats.unique_count < count) {
    u32 code_bits = std::max(1u, BitWidth(stats.unique_count - 1));
    u32 range_bits = BitWidth(
        static_cast<u32>(static_cast<i64>(stats.max) - stats.min));
    // Dictionary only pays off when codes are much narrower than the raw
    // value range — otherwise FOR+bit-packing achieves the same width
    // without the lookup table (and dict-of-dense-codes recursion).
    if (range_bits > code_bits + 2) {
      consider(IntSchemeCode::kDict,
               count * code_bits / 8.0 + stats.unique_count * sizeof(i32));
    }
  }
  consider(IntSchemeCode::kBp128,
           static_cast<double>(bitpack::Bp128CompressedSize(in, count)));
  consider(IntSchemeCode::kPfor,
           static_cast<double>(bitpack::PforCompressedSize(in, count)));
  return best;
}

DoubleSchemeCode SchemeTraits<double>::QuickPick(
    const double*, u32, const DoubleStats& stats,
    const CompressionConfig& config) {
  if (stats.unique_count == 1 &&
      config.SchemeEnabled(DoubleSchemeCode::kOneValue)) {
    return DoubleSchemeCode::kOneValue;
  }
  double best_size = static_cast<double>(stats.count) * sizeof(double);
  DoubleSchemeCode best = DoubleSchemeCode::kUncompressed;
  auto consider = [&](DoubleSchemeCode code, double size) {
    if (config.SchemeEnabled(code) && size < best_size) {
      best_size = size;
      best = code;
    }
  };
  if (stats.AverageRunLength() >= 2.0) {
    consider(DoubleSchemeCode::kRle, stats.run_count * 12.0 * 0.6);
  }
  if (stats.unique_count < stats.count) {
    u32 code_bits = std::max(1u, BitWidth(stats.unique_count - 1));
    consider(DoubleSchemeCode::kDict, stats.count * code_bits / 8.0 +
                                          stats.unique_count * sizeof(double));
  }
  return best;
}

// --- observability ---------------------------------------------------------

obs::Histogram& SchemeHistogram(SchemePhase phase, ColumnType type, u8 code) {
  static constexpr const char* kPhases[] = {"estimate", "compress",
                                            "decompress"};
  static constexpr const char* kTypeTags[] = {"int", "double", "string"};
  // Filled on first use; the race is benign: every thread resolves the
  // same registry-owned pointer.
  static auto* slots = new std::atomic<obs::Histogram*>[3][3][16]();
  std::atomic<obs::Histogram*>& slot =
      slots[static_cast<u8>(phase)][static_cast<u8>(type)][code];
  obs::Histogram* h = slot.load(std::memory_order_acquire);
  if (h == nullptr) {
    std::string name = std::string("btr.") + kPhases[static_cast<u8>(phase)] +
                       "." + kTypeTags[static_cast<u8>(type)] + "." +
                       SchemeNameFor(type, code) + ".ns";
    h = &obs::Registry::Get().GetHistogram(name);
    slot.store(h, std::memory_order_release);
  }
  return *h;
}

namespace {

constexpr const char* kPickSpans[] = {"btr.pick.int", "btr.pick.double",
                                      "btr.pick.string"};

// Depth-indexed scheme accounting: the root choice of every block and
// every nested cascade choice.
void RecordSchemeUse(const CompressionContext& ctx, ColumnType type, u8 code) {
  if (ctx.config->telemetry == nullptr || ctx.estimating) return;
  u32 depth = std::min<u32>(ctx.Depth(), kTelemetryDepthSlots - 1);
  ctx.config->telemetry
      ->scheme_uses_by_depth[depth][static_cast<u8>(type)][code]++;
}

// Opens a cascade trace child under ctx.trace (when tracing this call) and
// rewires `inner` so nested compress steps attach below it.
obs::CascadeNode* OpenTraceNode(CompressionContext* inner, ColumnType type,
                                u32 value_count, u64 input_bytes) {
  if (inner->trace == nullptr || inner->estimating) return nullptr;
  inner->trace->children.emplace_back();
  obs::CascadeNode* node = &inner->trace->children.back();
  node->type = static_cast<u8>(type);
  node->depth = inner->Depth();
  node->value_count = value_count;
  node->input_bytes = input_bytes;
  inner->trace = node;
  return node;
}

void CloseTraceNode(obs::CascadeNode* node, u8 scheme, u64 output_bytes,
                    u64 compress_ns) {
  node->scheme = scheme;
  node->output_bytes = output_bytes;
  node->compress_ns = compress_ns;
  for (const obs::CascadeCandidate& c : node->candidates) {
    if (c.scheme == scheme) {
      node->estimated_ratio = c.estimated_ratio;
      break;
    }
  }
}

// The pick step of every column type: statistics, sample, each enabled
// scheme's estimate, best ratio. `in...` is (values, count) for numbers
// and a StringsView for strings.
template <typename T, typename... In>
typename SchemeTraits<T>::Code PickStep(const CompressionContext& ctx,
                                        obs::CascadeNode* node,
                                        const In&... in) {
  using Code = typename SchemeTraits<T>::Code;
  constexpr ColumnType kType = SchemeTraits<T>::kType;
  if (ctx.remaining_cascades == 0 || ValueCount(in...) == 0) {
    return Code::kUncompressed;
  }
  // String schemes cascade only their codes and lengths, so a string
  // vector is never a cascade child of a sample being estimated.
  if constexpr (!std::is_same_v<T, std::string_view>) {
    if (ctx.estimating) {
      return SchemeTraits<T>::QuickPick(in..., ComputeStats(in...),
                                        *ctx.config);
    }
  }
  BTR_TRACE_SPAN(kPickSpans[static_cast<u8>(kType)]);
  Telemetry* telemetry = ctx.config->telemetry;
  Timer stats_timer;
  auto stats = ComputeStats(in...);
  u64 stats_ns = static_cast<u64>(stats_timer.ElapsedNanos());
  if (telemetry != nullptr) telemetry->stats_ns += stats_ns;
  if (node != nullptr) node->stats_ns = stats_ns;
  Timer timer;
  auto sample = BuildSample(in..., *ctx.config);
  Code best = Code::kUncompressed;
  double best_ratio = -1.0;
  for (u8 c = 0; c < SchemeTraits<T>::kSchemeCount; c++) {
    Code code{c};
    if (!ctx.config->SchemeEnabled(code)) continue;
    Timer estimate_timer;
    double ratio = GetScheme(code).EstimateRatio(stats, sample, ctx);
    SchemeHistogram(SchemePhase::kEstimate, kType, c)
        .Record(static_cast<u64>(estimate_timer.ElapsedNanos()));
    if (node != nullptr) node->candidates.push_back({c, ratio});
    if (ratio != 0.0 && ratio > best_ratio) {
      best_ratio = ratio;
      best = code;
    }
  }
  u64 estimate_ns = static_cast<u64>(timer.ElapsedNanos());
  if (telemetry != nullptr) telemetry->estimate_ns += estimate_ns;
  if (node != nullptr) node->estimate_ns = estimate_ns;
  return best;
}

// The compress step of every column type: pick, scheme byte, payload.
template <typename T, typename... In>
size_t CompressStep(ByteBuffer* out, const CompressionContext& ctx,
                    typename SchemeTraits<T>::Code* chosen, const In&... in) {
  constexpr ColumnType kType = SchemeTraits<T>::kType;
  CompressionContext inner = ctx;
  obs::CascadeNode* node =
      OpenTraceNode(&inner, kType, ValueCount(in...), InputBytes(in...));
  typename SchemeTraits<T>::Code code = PickStep<T>(inner, node, in...);
  if (chosen != nullptr) *chosen = code;
  RecordSchemeUse(ctx, kType, static_cast<u8>(code));
  size_t start = out->size();
  out->AppendValue<u8>(static_cast<u8>(code));
  if (ctx.estimating) {
    GetScheme(code).Compress(in..., out, inner);
  } else {
    Timer compress_timer;
    GetScheme(code).Compress(in..., out, inner);
    u64 compress_ns = static_cast<u64>(compress_timer.ElapsedNanos());
    SchemeHistogram(SchemePhase::kCompress, kType, static_cast<u8>(code))
        .Record(compress_ns);
    if (node != nullptr) {
      CloseTraceNode(node, static_cast<u8>(code), out->size() - start,
                     compress_ns);
    }
  }
  return out->size() - start;
}

}  // namespace

// --- entry points ------------------------------------------------------------

template <typename T>
size_t CompressValues(const T* in, u32 count, ByteBuffer* out,
                      const CompressionContext& ctx,
                      typename SchemeTraits<T>::Code* chosen) {
  return CompressStep<T>(out, ctx, chosen, in, count);
}
template size_t CompressValues(const i32*, u32, ByteBuffer*,
                               const CompressionContext&, IntSchemeCode*);
template size_t CompressValues(const double*, u32, ByteBuffer*,
                               const CompressionContext&, DoubleSchemeCode*);

size_t CompressValues(const StringsView& in, ByteBuffer* out,
                      const CompressionContext& ctx, StringSchemeCode* chosen) {
  return CompressStep<std::string_view>(out, ctx, chosen, in);
}

template <typename T>
typename SchemeTraits<T>::Code PickScheme(const T* in, u32 count,
                                          const CompressionConfig& config) {
  CompressionContext ctx{&config, config.max_cascade_depth};
  return PickStep<T>(ctx, nullptr, in, count);
}
template IntSchemeCode PickScheme(const i32*, u32, const CompressionConfig&);
template DoubleSchemeCode PickScheme(const double*, u32,
                                     const CompressionConfig&);

StringSchemeCode PickScheme(const StringsView& in,
                            const CompressionConfig& config) {
  CompressionContext ctx{&config, config.max_cascade_depth};
  return PickStep<std::string_view>(ctx, nullptr, in);
}

void DecompressInts(const u8* in, u32 count, i32* out) {
  GetScheme(static_cast<IntSchemeCode>(in[0])).Decompress(in + 1, count, out);
}

void DecompressDoubles(const u8* in, u32 count, double* out) {
  GetScheme(static_cast<DoubleSchemeCode>(in[0]))
      .Decompress(in + 1, count, out);
}

void DecompressStrings(const u8* in, u32 count, DecodedStrings* out,
                       const CompressionConfig& config) {
  GetScheme(static_cast<StringSchemeCode>(in[0]))
      .Decompress(in + 1, count, out, config);
}

}  // namespace btr
