// Pseudodecimal Encoding lab (paper Section 4): see how individual
// doubles decompose into (digits, exponent) pairs, then compare PDE
// against the dedicated float compressors (FPC, Gorilla, Chimp, Chimp128)
// on a price series and on high-precision noise.
//
//   ./float_lab
#include <cmath>
#include <cstdio>
#include <vector>

#include "btr/schemes/double_schemes.h"
#include "floatcomp/chimp.h"
#include "floatcomp/fpc.h"
#include "floatcomp/gorilla.h"
#include "util/random.h"

int main() {
  using namespace btr;
  using pseudodecimal::EncodeSingle;
  using pseudodecimal::kExponentException;

  std::printf("-- Pseudodecimal decomposition (paper Listing 2) --\n");
  const double samples[] = {3.25,   0.99,  -6.425, 42.0, 0.0,
                            -0.0,   1e300, 5.5e-42, 1.0 / 3.0};
  for (double v : samples) {
    auto d = EncodeSingle(v);
    if (d.exp == kExponentException) {
      std::printf("%12g -> patch (stored verbatim)\n", v);
    } else {
      std::printf("%12g -> (%d, %u)  i.e. %d x 10^-%u\n", v, d.digits, d.exp,
                  d.digits, d.exp);
    }
  }

  auto compare = [](const char* name, const std::vector<double>& data) {
    u32 count = static_cast<u32>(data.size());
    double raw = static_cast<double>(count) * sizeof(double);
    ByteBuffer fpc, gorilla, chimp, chimp128, pde;
    floatcomp::FpcCompress(data.data(), count, &fpc);
    floatcomp::GorillaCompress(data.data(), count, &gorilla);
    floatcomp::ChimpCompress(data.data(), count, &chimp);
    floatcomp::Chimp128Compress(data.data(), count, &chimp128);
    CompressionConfig config;
    CompressionContext ctx{&config, config.max_cascade_depth};
    GetScheme(DoubleSchemeCode::kPseudodecimal)
        .Compress(data.data(), count, &pde, ctx);
    std::printf("%-22s  FPC %.2fx  Gorilla %.2fx  Chimp %.2fx  "
                "Chimp128 %.2fx  PDE(cascaded) %.2fx\n",
                name, raw / fpc.size(), raw / gorilla.size(),
                raw / chimp.size(), raw / chimp128.size(), raw / pde.size());
  };

  std::printf("\n-- Compression ratios on 64k doubles --\n");
  Random rng(1);
  std::vector<double> prices;
  for (int i = 0; i < 64000; i++) {
    prices.push_back(static_cast<double>(rng.NextBounded(10000)) / 100.0);
  }
  compare("prices (2 decimals)", prices);

  std::vector<double> coordinates;
  for (int i = 0; i < 64000; i++) {
    coordinates.push_back(-122.0 + rng.NextDouble());
  }
  compare("coordinates (noise)", coordinates);

  std::vector<double> series;
  double v = 100.0;
  for (int i = 0; i < 64000; i++) {
    v += (rng.NextDouble() - 0.5) * 0.125;  // dyadic steps: XOR-friendly
    series.push_back(v);
  }
  compare("time series", series);
  return 0;
}
