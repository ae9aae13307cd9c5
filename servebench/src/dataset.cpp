#include "dataset.hpp"

#include <chrono>
#include <utility>

#include "storage/column.hpp"
#include "storage/table.hpp"

namespace servebench {

namespace {

enum Stream : std::uint64_t { kFactStream = 1, kCustomerStream = 2 };

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

template <typename T>
void free_vector(std::vector<T>& v) {
  std::vector<T>().swap(v);
}

}  // namespace

void Dataset::release_columns() {
  free_vector(orderdate);
  free_vector(custkey);
  free_vector(quantity);
  free_vector(discount);
  free_vector(revenue);
  free_vector(prio);
  free_vector(c_custkey);
  free_vector(c_region);
  free_vector(c_segment);
  free_vector(d_datekey);
  free_vector(d_year);
  free_vector(p_prio);
  free_vector(p_factor);
}

Dataset generate(std::uint64_t seed, std::size_t fact_rows) {
  Dataset d;
  d.rows = fact_rows;
  AnswerTables& a = d.answers;

  // Dimensions first: the fact pass needs each customer's attributes.
  Rng crng(seed, kCustomerStream);
  std::vector<std::uint8_t> segment_of(kCustomers), region_of(kCustomers);
  for (std::int64_t k = 0; k < kCustomers; ++k) {
    const auto region = static_cast<std::uint8_t>(crng.below(kRegions.size()));
    const auto segment = static_cast<std::uint8_t>(crng.below(kSegments.size()));
    region_of[k] = region;
    segment_of[k] = segment;
    d.c_custkey.push_back(k);
    d.c_region.emplace_back(kRegions[region]);
    d.c_segment.emplace_back(kSegments[segment]);
    d.user_bytes += 8.0 + static_cast<double>(d.c_region.back().size() +
                                              d.c_segment.back().size());
  }
  for (std::int64_t day = 0; day < kDates; ++day) {
    d.d_datekey.push_back(day);
    d.d_year.push_back(kFirstYear + day / 365);
    d.user_bytes += 16.0;
  }
  const std::int64_t factors[] = {3, 8, 1, 5, 13};
  for (std::size_t i = 0; i < kDimPrios.size(); ++i) {
    d.p_prio.emplace_back(kDimPrios[i]);
    d.p_factor.push_back(factors[i]);
    d.user_bytes += 8.0 + static_cast<double>(d.p_prio.back().size());
  }

  a.qty_cnt.assign(kQuantityMax * kDiscounts, 0);
  a.qty_sum.assign(kQuantityMax * kDiscounts, 0);
  a.disc_cnt.assign(kDiscounts, 0);
  a.disc_sum.assign(kDiscounts, 0);
  a.date_cnt.assign(kDates * kDiscounts, 0);
  a.date_sum.assign(kDates * kDiscounts, 0);
  a.star_cnt.assign(kSegments.size() * kRegions.size() * kYears, 0);
  a.star_sum.assign(kSegments.size() * kRegions.size() * kYears, 0);

  d.orderdate.reserve(fact_rows);
  d.custkey.reserve(fact_rows);
  d.quantity.reserve(fact_rows);
  d.discount.reserve(fact_rows);
  d.revenue.reserve(fact_rows);
  d.prio.reserve(fact_rows);
  Rng rng(seed, kFactStream);
  for (std::size_t i = 0; i < fact_rows; ++i) {
    const std::int64_t date = rng.below(kDates);
    const std::int64_t cust = rng.below(kCustomers);
    const std::int64_t qty = 1 + rng.below(kQuantityMax);
    const std::int64_t disc = rng.below(kDiscounts);
    const std::int64_t rev = kRevenueMin + rng.below(kRevenueSpan);
    const std::size_t prio = static_cast<std::size_t>(rng.below(kFactPrios.size()));
    d.orderdate.push_back(date);
    d.custkey.push_back(cust);
    d.quantity.push_back(qty);
    d.discount.push_back(disc);
    d.revenue.push_back(rev);
    d.prio.emplace_back(kFactPrios[prio]);
    d.user_bytes += 40.0 + static_cast<double>(d.prio.back().size());

    a.qty_cnt[(qty - 1) * kDiscounts + disc] += 1;
    a.qty_sum[(qty - 1) * kDiscounts + disc] += rev;
    a.disc_cnt[disc] += 1;
    a.disc_sum[disc] += rev;
    a.date_cnt[date * kDiscounts + disc] += 1;
    a.date_sum[date * kDiscounts + disc] += rev;
    if (std::string_view(kFactPrios[prio]) != "rush") {
      const std::size_t cell =
          (segment_of[cust] * kRegions.size() + region_of[cust]) * kYears +
          static_cast<std::size_t>(date / 365);
      a.star_cnt[cell] += 1;
      a.star_sum[cell] += rev;
    }
  }
  return d;
}

IngestStats ingest(eidb::core::Database& db, const Dataset& data) {
  using eidb::storage::Column;
  using eidb::storage::Schema;
  using eidb::storage::Table;
  using eidb::storage::TypeId;

  IngestStats s;
  auto load_int = [&s](Table& t, std::size_t index, const char* name,
                       const std::vector<std::int64_t>& v) {
    const auto t0 = std::chrono::steady_clock::now();
    t.set_column(index, Column::from_int64(name, v));
    s.int_s += seconds_since(t0);
  };
  auto load_string = [&s](Table& t, std::size_t index, const char* name,
                          const std::vector<std::string>& v) {
    const auto t0 = std::chrono::steady_clock::now();
    t.set_column(index, Column::from_strings(name, v));
    s.string_s += seconds_since(t0);
  };

  Table& lineorder = db.create_table(
      "lineorder", Schema({{"orderdate", TypeId::kInt64},
                           {"custkey", TypeId::kInt64},
                           {"quantity", TypeId::kInt64},
                           {"discount", TypeId::kInt64},
                           {"revenue", TypeId::kInt64},
                           {"prio", TypeId::kString}}));
  load_int(lineorder, 0, "orderdate", data.orderdate);
  load_int(lineorder, 1, "custkey", data.custkey);
  load_int(lineorder, 2, "quantity", data.quantity);
  load_int(lineorder, 3, "discount", data.discount);
  load_int(lineorder, 4, "revenue", data.revenue);
  load_string(lineorder, 5, "prio", data.prio);

  Table& customer = db.create_table(
      "customer", Schema({{"custkey", TypeId::kInt64},
                          {"region", TypeId::kString},
                          {"segment", TypeId::kString}}));
  load_int(customer, 0, "custkey", data.c_custkey);
  load_string(customer, 1, "region", data.c_region);
  load_string(customer, 2, "segment", data.c_segment);

  Table& dates = db.create_table(
      "dates", Schema({{"datekey", TypeId::kInt64}, {"year", TypeId::kInt64}}));
  load_int(dates, 0, "datekey", data.d_datekey);
  load_int(dates, 1, "year", data.d_year);

  Table& priorities = db.create_table(
      "priorities",
      Schema({{"prio", TypeId::kString}, {"factor", TypeId::kInt64}}));
  load_string(priorities, 0, "prio", data.p_prio);
  load_int(priorities, 1, "factor", data.p_factor);

  for (const Table* t : {&lineorder, &customer, &dates, &priorities}) {
    for (std::size_t c = 0; c < t->column_count(); ++c) {
      const Column& col = t->column(c);
      s.stored_bytes += static_cast<double>(col.byte_size());
      if (col.encoded() != nullptr)
        s.stored_bytes += static_cast<double>(col.encoded()->byte_size());
    }
  }
  return s;
}

}  // namespace servebench
