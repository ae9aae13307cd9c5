#include "workload.hpp"

#include <algorithm>
#include <stdexcept>

namespace servebench {

namespace {

using eidb::storage::Value;

enum Stream : std::uint64_t { kMeasuredStream = 10, kWarmupStream = 11 };

/// scan_agg: one GROUP BY discount shape; the filter column cycles
/// quantity → discount → orderdate so every pass holds each exactly
/// equally often, and each range covers ~30% of its domain.
Query scan_agg_query(std::size_t i, Rng& rng, const AnswerTables& a) {
  struct Filter {
    const char* column;
    std::int64_t lo_min, lo_span, width;
    const std::vector<std::int64_t>* cnt;
    const std::vector<std::int64_t>* sum;
    std::int64_t offset;  // value → first answer-table row
    std::int64_t stride;  // answer-table cells per value
  };
  const Filter filters[] = {
      {"quantity", 1, kQuantityMax - 15 + 1, 15, &a.qty_cnt, &a.qty_sum, 1, kDiscounts},
      {"discount", 0, kDiscounts - 3 + 1, 3, &a.disc_cnt, &a.disc_sum, 0, 0},
      {"orderdate", 0, kDates - 767 + 1, 767, &a.date_cnt, &a.date_sum, 0, kDiscounts},
  };
  const Filter& f = filters[i % 3];
  const std::int64_t lo = f.lo_min + rng.below(f.lo_span);
  const std::int64_t hi = lo + f.width - 1;

  Query q;
  q.sql = std::string("SELECT COUNT(*), SUM(revenue) FROM lineorder WHERE ") +
          f.column + " BETWEEN " + std::to_string(lo) + " AND " +
          std::to_string(hi) + " GROUP BY discount";
  q.expected.mode = Expected::Mode::kSet;
  for (std::int64_t d = 0; d < kDiscounts; ++d) {
    std::int64_t cnt = 0, sum = 0;
    if (f.stride == 0) {  // filtering on the group key itself
      if (d >= lo && d <= hi) {
        cnt = (*f.cnt)[d];
        sum = (*f.sum)[d];
      }
    } else {
      for (std::int64_t v = lo; v <= hi; ++v) {
        const std::size_t cell = (v - f.offset) * f.stride + d;
        cnt += (*f.cnt)[cell];
        sum += (*f.sum)[cell];
      }
    }
    if (cnt > 0)
      q.expected.rows.push_back({Value(d), Value(cnt), Value(sum)});
  }
  return q;
}

constexpr std::int64_t kStarWindows = kYears - 2;  // three-year windows

/// star_join: lineorder ⋈ priorities (string key) ⋈ customer ⋈ dates,
/// one segment and a three-year window, top 3 regions by revenue. `i`
/// picks the (segment, window) pair, so a pass of segments × windows
/// queries holds each pair once.
Query star_join_query(std::size_t i, const AnswerTables& a) {
  const std::size_t segment = i % kSegments.size();
  const std::int64_t y1 = static_cast<std::int64_t>(i / kSegments.size()) % kStarWindows;
  const std::int64_t y2 = y1 + 2;
  Query q;
  q.sql =
      "SELECT COUNT(*), SUM(revenue) FROM lineorder "
      "JOIN priorities ON lineorder.prio = priorities.prio "
      "JOIN customer ON lineorder.custkey = customer.custkey "
      "JOIN dates ON lineorder.orderdate = dates.datekey "
      "WHERE customer.segment = '" +
      std::string(kSegments[segment]) + "' AND dates.year BETWEEN " +
      std::to_string(kFirstYear + y1) + " AND " +
      std::to_string(kFirstYear + y2) +
      " GROUP BY customer.region ORDER BY SUM(revenue) DESC LIMIT 3";
  q.expected.mode = Expected::Mode::kTopDesc;
  q.expected.column = 2;
  q.expected.limit = 3;
  for (std::size_t r = 0; r < kRegions.size(); ++r) {
    std::int64_t cnt = 0, sum = 0;
    for (std::int64_t y = y1; y <= y2; ++y) {
      const std::size_t cell = (segment * kRegions.size() + r) * kYears + y;
      cnt += a.star_cnt[cell];
      sum += a.star_sum[cell];
    }
    if (cnt > 0)
      q.expected.rows.push_back(
          {Value(std::string(kRegions[r])), Value(cnt), Value(sum)});
  }
  return q;
}

std::vector<Query> make_queries(const std::string& name, Rng rng,
                                std::size_t count, const AnswerTables& a) {
  std::vector<Query> queries;
  std::vector<std::size_t> star_pairs(kSegments.size() * kStarWindows);
  for (std::size_t i = 0; i < count; ++i) {
    if (name == "scan_agg") {
      queries.push_back(scan_agg_query(i, rng, a));
    } else {
      // star_join: every (segment, window) pair once per round, in
      // seeded order.
      const std::size_t round = i % star_pairs.size();
      if (round == 0) {
        for (std::size_t p = 0; p < star_pairs.size(); ++p) star_pairs[p] = p;
        for (std::size_t p = star_pairs.size() - 1; p > 0; --p)
          std::swap(star_pairs[p], star_pairs[static_cast<std::size_t>(
                                       rng.below(static_cast<std::int64_t>(p) + 1))]);
      }
      queries.push_back(star_join_query(star_pairs[round], a));
    }
  }
  return queries;
}

std::string row_key(const Row& row) {
  std::string key;
  for (const Value& v : row) key += v.to_string() + '\x1f';
  return key;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const AnswerTables& answers) {
  Workload w;
  w.name = name;
  // One service worker and no pacing everywhere: the core-grant clamp
  // (engine pool ÷ in-flight) stays constant and no sleep enters a
  // measured latency.
  w.service.workers = 1;
  w.service.pace_execution = false;
  w.service.policy = eidb::sched::Policy::kLatency;
  std::size_t pass_queries = 0, warmup_queries = 0;
  if (name == "scan_agg") {
    pass_queries = 12;
    warmup_queries = 6;
  } else if (name == "star_join") {
    pass_queries = kSegments.size() * kStarWindows;
    warmup_queries = 4;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  w.pass = make_queries(name, Rng(seed, kMeasuredStream), pass_queries, answers);
  w.warmup = make_queries(name, Rng(seed, kWarmupStream), warmup_queries, answers);
  return w;
}

bool matches(const eidb::query::QueryResult& result, const Expected& expected) {
  std::vector<Row> got;
  got.reserve(result.row_count());
  for (std::size_t i = 0; i < result.row_count(); ++i) got.push_back(result.row(i));

  switch (expected.mode) {
    case Expected::Mode::kSet: {
      if (got.size() != expected.rows.size()) return false;
      std::vector<std::string> a, b;
      for (const Row& r : got) a.push_back(row_key(r));
      for (const Row& r : expected.rows) b.push_back(row_key(r));
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      return a == b;
    }
    case Expected::Mode::kTopDesc: {
      const std::size_t c = expected.column;
      if (got.size() != std::min(expected.limit, expected.rows.size())) return false;
      std::vector<std::int64_t> top;
      for (const Row& r : expected.rows) top.push_back(r[c].as_int());
      std::sort(top.rbegin(), top.rend());
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i].size() <= c || !got[i][c].is_int()) return false;
        if (got[i][c].as_int() != top[i]) return false;
        if (std::find(expected.rows.begin(), expected.rows.end(), got[i]) ==
            expected.rows.end())
          return false;
      }
      return true;
    }
  }
  return false;
}

}  // namespace servebench
