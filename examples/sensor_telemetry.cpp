// Sensor telemetry: compressed scans on slowly-changing measurements.
//
// The paper's sensor-data scenario (§II "multiple billion record databases",
// §IV.B "scan on compressed data"): sensor readings drift slowly, so
// delta/FOR bit-packing shrinks them dramatically, and range scans can run
// directly on the packed representation (experiment E5's code path).
//
//   $ ./sensor_telemetry
#include <cstdint>
#include <iostream>
#include <vector>

#include "core/database.hpp"
#include "exec/scan_kernels.hpp"
#include "storage/bitpack.hpp"
#include "storage/int_codec.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

int main() {
  using namespace eidb;

  // -- Synthesize drifting sensor readings -------------------------------------
  constexpr std::size_t kRows = 4'000'000;
  Pcg32 rng(42);
  std::vector<std::int64_t> temps;  // milli-degrees, random walk around 20C
  temps.reserve(kRows);
  std::int64_t cur = 20'000;
  for (std::size_t i = 0; i < kRows; ++i) {
    cur += rng.next_in_range(-15, 15);
    temps.push_back(cur);
  }

  // -- Compression study ---------------------------------------------------------
  std::cout << "codec sizes for " << kRows << " readings ("
            << kRows * 8 / (1 << 20) << " MiB raw):\n";
  for (const auto kind : storage::all_codec_kinds()) {
    const auto codec = storage::make_codec(kind);
    Stopwatch sw;
    const auto bytes = codec->encode(temps);
    const double enc_s = sw.elapsed_seconds();
    std::cout << "  " << storage::codec_name(kind) << ": "
              << bytes.size() / (1 << 20) << " MiB ("
              << static_cast<double>(temps.size() * 8) /
                     static_cast<double>(bytes.size())
              << "x), encode " << enc_s << " s\n";
  }

  // -- Scan on packed data ---------------------------------------------------------
  // FOR-shift the readings and pack at the minimal width, then range-scan
  // the packed image directly.
  std::int64_t min_v = temps[0];
  for (const auto v : temps) min_v = std::min(min_v, v);
  std::vector<std::uint64_t> shifted(temps.size());
  for (std::size_t i = 0; i < temps.size(); ++i)
    shifted[i] = static_cast<std::uint64_t>(temps[i] - min_v);
  const unsigned bits = storage::min_bits(shifted);
  const auto packed = storage::bitpack(shifted, bits);
  std::cout << "\npacked at " << bits << " bits/value ("
            << packed.size() * 8 / (1 << 20) << " MiB)\n";

  // Find readings in [21C, 22C].
  const auto lo = static_cast<std::uint64_t>(21'000 - min_v);
  const auto hi = static_cast<std::uint64_t>(22'000 - min_v);
  BitVector hits(temps.size());
  Stopwatch sw;
  exec::scan_packed_bitmap_range(packed, bits, 0, temps.size(), lo, hi, hits);
  const double packed_s = sw.elapsed_seconds();

  BitVector hits_raw(temps.size());
  sw.restart();
  exec::scan_bitmap_best64(temps, 21'000, 22'000, hits_raw);
  const double raw_s = sw.elapsed_seconds();

  std::cout << "scan [21C,22C]: packed " << packed_s << " s vs raw " << raw_s
            << " s; " << hits.count() << " matches (verified: "
            << (hits == hits_raw ? "equal" : "MISMATCH") << ")\n\n";

  // -- The same data behind the query API ------------------------------------------
  core::Database db;
  storage::Table& sensor = db.create_table(
      "sensor", storage::Schema({{"ts", storage::TypeId::kInt64},
                                 {"temp_milli", storage::TypeId::kInt64}}));
  std::vector<std::int64_t> ts(kRows);
  for (std::size_t i = 0; i < kRows; ++i) ts[i] = static_cast<std::int64_t>(i);
  sensor.set_column(0, storage::Column::from_int64("ts", ts));
  sensor.set_column(1, storage::Column::from_int64("temp_milli", temps));

  // Zone maps shine on the time dimension (append order == sorted).
  const auto last_hour = query::QueryBuilder("sensor")
                             .filter_int("ts", kRows - 3600, kRows - 1)
                             .aggregate(query::AggOp::kMin, "temp_milli")
                             .aggregate(query::AggOp::kMax, "temp_milli")
                             .aggregate(query::AggOp::kAvg, "temp_milli")
                             .build();
  core::RunOptions zone_options;
  zone_options.exec.use_zone_maps = true;
  const auto pruned = db.run(last_hour, zone_options);
  const auto full = db.run(last_hour);
  std::cout << "last-hour min/max/avg:\n" << pruned.result.to_string();
  std::cout << "zone-map scan touched " << pruned.stats.work.dram_bytes / 1e6
            << " MB vs full-scan " << full.stats.work.dram_bytes / 1e6
            << " MB — fewer cycles, fewer joules [12]\n";
  return 0;
}
