// Seeded star-schema dataset and the answer tables the oracle reads.
//
// Everything here is a pure function of the seed: the generator draws
// from its own splitmix64 streams (never the engine's RNG), and the
// answer tables are filled in the same pass that produces the rows, so
// the oracle never consults eidb.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/database.hpp"

namespace servebench {

/// splitmix64 with an explicit stream id: streams of one seed are
/// independent (data, measured sequence, warm-up sequence).
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream)
      : state_(seed * 0x9e3779b97f4a7c15ULL ^ (stream + 1) * 0xd1b54a32d192ed03ULL) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::int64_t below(std::int64_t n) {
    return static_cast<std::int64_t>(
        (static_cast<unsigned __int128>(next()) * static_cast<std::uint64_t>(n)) >> 64);
  }

 private:
  std::uint64_t state_;
};

inline constexpr std::int64_t kCustomers = 30'000;
inline constexpr std::int64_t kDates = 7 * 365;  // 1994..2000, 365 days each
inline constexpr std::int64_t kFirstYear = 1994;
inline constexpr std::int64_t kYears = 7;
inline constexpr std::int64_t kQuantityMax = 50;  // quantity in [1, 50]
inline constexpr std::int64_t kDiscounts = 11;    // discount in [0, 10]
inline constexpr std::int64_t kRevenueMin = 1000;
inline constexpr std::int64_t kRevenueSpan = 100'000;
inline constexpr std::array<const char*, 5> kRegions = {
    "africa", "america", "asia", "europe", "mideast"};
inline constexpr std::array<const char*, 4> kSegments = {
    "auto", "building", "furniture", "machinery"};
/// Fact-side priorities; "rush" has no dimension row, so the string-key
/// join drops it.
inline constexpr std::array<const char*, 5> kFactPrios = {
    "bulk", "high", "low", "mid", "rush"};
inline constexpr std::array<const char*, 5> kDimPrios = {
    "bulk", "high", "low", "mid", "urgent"};

/// Exact answers, built while generating.
struct AnswerTables {
  /// Per (filter value, discount): row count and revenue sum, for the
  /// three scan_agg filter columns.
  std::vector<std::int64_t> qty_cnt, qty_sum;    // [(q-1)*11 + d]
  std::vector<std::int64_t> disc_cnt, disc_sum;  // [d]
  std::vector<std::int64_t> date_cnt, date_sum;  // [date*11 + d]
  /// star_join cube over rows whose priority has a dimension row:
  /// [((segment*5 + region)*7 + year-1994)].
  std::vector<std::int64_t> star_cnt, star_sum;
};

/// Generated columns (released before the measured phase) plus answers.
struct Dataset {
  std::size_t rows = 0;
  std::vector<std::int64_t> orderdate, custkey, quantity, discount, revenue;
  std::vector<std::string> prio;
  std::vector<std::int64_t> c_custkey;
  std::vector<std::string> c_region, c_segment;
  std::vector<std::int64_t> d_datekey, d_year;
  std::vector<std::string> p_prio;
  std::vector<std::int64_t> p_factor;
  /// Bytes the generator produced: 8 per integer, the characters of
  /// every string.
  double user_bytes = 0;
  AnswerTables answers;

  /// Frees the generated columns; the answer tables stay.
  void release_columns();
};

[[nodiscard]] Dataset generate(std::uint64_t seed, std::size_t fact_rows);

/// Storage-layer timings and footprint of one ingest.
struct IngestStats {
  double int_s = 0;     ///< Column::from_int64 + Table::set_column.
  double string_s = 0;  ///< Column::from_strings + Table::set_column.
  double stored_bytes = 0;  ///< Σ plain column bytes + packed images.
};

/// Creates and loads lineorder, customer, dates and priorities.
IngestStats ingest(eidb::core::Database& db, const Dataset& data);

}  // namespace servebench
