// Quickstart: build a small table, compress it with BtrBlocks, inspect
// what the scheme picker chose, round-trip it through the on-disk format,
// and read the values back.
//
//   ./quickstart [output-dir]
#include <cstdio>
#include <string>

#include "btr/btrblocks.h"

int main(int argc, char** argv) {
  using namespace btr;
  std::string dir = argc > 1 ? argv[1] : "/tmp";

  // 1. Build a table: order ids, prices, and cities.
  Relation orders("orders");
  Column& id = orders.AddColumn("id", ColumnType::kInteger);
  Column& price = orders.AddColumn("price", ColumnType::kDouble);
  Column& city = orders.AddColumn("city", ColumnType::kString);
  const char* cities[] = {"Seattle", "Berlin", "Munich", "Phoenix"};
  for (int i = 0; i < 100000; i++) {
    id.AppendInt(i + 1);
    if (i % 50 == 49) {
      price.AppendNull();  // NULLs are tracked in a Roaring bitmap
    } else {
      price.AppendDouble(static_cast<double>((i * 37) % 10000) / 100.0);
    }
    city.AppendString(cities[(i / 1000) % 4]);
  }

  // 2. Compress. The default config is the paper's: cascade depth 3,
  //    10x64 sampling, full scheme pool.
  CompressionConfig config;
  CompressedRelation compressed = CompressRelation(orders, config);
  std::printf("uncompressed: %8.2f KiB\n",
              orders.UncompressedBytes() / 1024.0);
  std::printf("compressed:   %8.2f KiB  (ratio %.1fx)\n",
              compressed.CompressedBytes() / 1024.0,
              compressed.CompressionRatio());

  // 3. What did the sampling-based picker choose per column?
  for (const CompressedColumn& column : compressed.columns) {
    std::printf("column %-8s -> %-6s values, root scheme: %s\n",
                column.name.c_str(), ColumnTypeName(column.type),
                SchemeNameFor(column.type, column.block_root_schemes[0]));
  }

  // 4. Persist (one file per column + a metadata file) and load back.
  Status status = WriteCompressedRelation(compressed, dir);
  if (!status.ok()) {
    std::printf("write failed: %s\n", status.ToString().c_str());
    return 1;
  }
  CompressedRelation loaded;
  status = ReadCompressedRelation(dir, "orders", &loaded);
  if (!status.ok()) {
    std::printf("read failed: %s\n", status.ToString().c_str());
    return 1;
  }

  // 5. Decompress one block and look at a few values.
  DecodedBlock block;
  DecompressBlock(loaded.columns[2].blocks[0].data(), &block, config);
  std::printf("first cities: %.*s, %.*s, ...\n",
              static_cast<int>(block.strings.Get(0).size()),
              block.strings.Get(0).data(),
              static_cast<int>(block.strings.Get(1).size()),
              block.strings.Get(1).data());

  DecompressBlock(loaded.columns[1].blocks[0].data(), &block, config);
  std::printf("price[0]=%.2f  price[49] is %s\n", block.doubles[0],
              block.IsNull(49) ? "NULL" : "non-null");
  std::printf("ok\n");
  return 0;
}
