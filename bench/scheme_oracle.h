// Oracle used by the Figure 5 / Figure 6 harnesses (paper Section 6.3):
// for one 64k block of a column, compress the *entire block* with every
// viable root scheme (cascades below the root decided as usual) and
// record each scheme's exact compressed size. A sampling strategy's pick
// is "correct" when its scheme compresses within 2% of the optimum.
#ifndef BTR_BENCH_SCHEME_ORACLE_H_
#define BTR_BENCH_SCHEME_ORACLE_H_

#include <map>
#include <vector>

#include "btr/btrblocks.h"

namespace btr::bench {

struct BlockOracle {
  // Exact full-block compressed bytes per viable root scheme code.
  std::map<u8, size_t> size_of_scheme;
  size_t optimal_size = 0;
  u8 optimal_scheme = 0;

  bool IsCorrect(u8 scheme, double tolerance = 1.02) const {
    auto it = size_of_scheme.find(scheme);
    if (it == size_of_scheme.end()) return false;
    return static_cast<double>(it->second) <=
           tolerance * static_cast<double>(optimal_size);
  }
};

// The block handle: one column's first block, type-erased.
struct OracleBlock {
  ColumnType type;
  const Column* column;  // first block = rows [0, min(size, 64000))
  u32 count;
};

inline std::vector<OracleBlock> FirstBlocks(const std::vector<Relation>& corpus) {
  std::vector<OracleBlock> blocks;
  for (const Relation& table : corpus) {
    for (const Column& column : table.columns()) {
      blocks.push_back(OracleBlock{column.type(), &column,
                                   std::min(column.size(), kBlockCapacity)});
    }
  }
  return blocks;
}

inline BlockOracle ComputeOracle(const OracleBlock& block,
                                 const CompressionConfig& base_config) {
  BlockOracle oracle;
  CompressionConfig config = base_config;  // cascades below root: default
  CompressionContext ctx{&config, config.max_cascade_depth};
  auto consider = [&](u8 code, size_t size) {
    oracle.size_of_scheme[code] = size;
    if (oracle.optimal_size == 0 || size < oracle.optimal_size) {
      oracle.optimal_size = size;
      oracle.optimal_scheme = code;
    }
  };
  switch (block.type) {
    case ColumnType::kInteger: {
      const i32* data = block.column->ints().data();
      IntStats stats = ComputeStats(data, block.count);
      IntSample sample = BuildSample(data, block.count, config);
      for (u32 c = 0; c < kIntSchemeCount; c++) {
        const IntScheme& scheme = GetScheme(static_cast<IntSchemeCode>(c));
        if (scheme.EstimateRatio(stats, sample, ctx) == 0.0) continue;
        ByteBuffer out;
        consider(static_cast<u8>(c),
                 1 + scheme.Compress(data, block.count, &out, ctx));
      }
      break;
    }
    case ColumnType::kDouble: {
      const double* data = block.column->doubles().data();
      DoubleStats stats = ComputeStats(data, block.count);
      DoubleSample sample = BuildSample(data, block.count, config);
      for (u32 c = 0; c < kDoubleSchemeCount; c++) {
        const DoubleScheme& scheme =
            GetScheme(static_cast<DoubleSchemeCode>(c));
        if (scheme.EstimateRatio(stats, sample, ctx) == 0.0) continue;
        ByteBuffer out;
        consider(static_cast<u8>(c),
                 1 + scheme.Compress(data, block.count, &out, ctx));
      }
      break;
    }
    case ColumnType::kString: {
      std::vector<u32> scratch;
      StringsView view = block.column->StringBlock(0, block.count, &scratch);
      StringStats stats = ComputeStats(view);
      StringSample sample = BuildSample(view, config);
      for (u32 c = 0; c < kStringSchemeCount; c++) {
        const StringScheme& scheme =
            GetScheme(static_cast<StringSchemeCode>(c));
        if (scheme.EstimateRatio(stats, sample, ctx) == 0.0) continue;
        ByteBuffer out;
        consider(static_cast<u8>(c), 1 + scheme.Compress(view, &out, ctx));
      }
      break;
    }
  }
  return oracle;
}

// The scheme a given sampling strategy picks for this block.
inline u8 StrategyPick(const OracleBlock& block, u32 runs, u32 run_length,
                       bool exhaustive = false) {
  CompressionConfig config;
  config.sample_runs = runs;
  config.sample_run_length = run_length;
  config.exhaustive_estimation = exhaustive;
  switch (block.type) {
    case ColumnType::kInteger:
      return static_cast<u8>(
          PickScheme(block.column->ints().data(), block.count, config));
    case ColumnType::kDouble:
      return static_cast<u8>(
          PickScheme(block.column->doubles().data(), block.count, config));
    case ColumnType::kString: {
      std::vector<u32> scratch;
      StringsView view = block.column->StringBlock(0, block.count, &scratch);
      return static_cast<u8>(PickScheme(view, config));
    }
  }
  return 0;
}

}  // namespace btr::bench

#endif  // BTR_BENCH_SCHEME_ORACLE_H_
