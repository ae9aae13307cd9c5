// The shared differential-parity fixture: one randomized star-schema
// catalog (every distribution shape the encoder must survive) plus the
// generated matrix of filter / group-by / aggregate / join queries that
// every execution-path pair must answer BIT-IDENTICALLY. Consumed by the
// compressed-parity suite (packed vs plain) and the distributed-parity
// suite (sharded vs single-node).
//
// It also holds the scalar reference oracle (run_join_oracle /
// expect_matches_oracle) that the parity, executor and fuzz suites check
// aggregate plans against.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "exec/expression.hpp"
#include "query/executor.hpp"
#include "query/plan.hpp"
#include "query/result.hpp"
#include "storage/column.hpp"
#include "storage/table.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace eidb::query::parity {

// 5'000 rows: not a multiple of 64, so every kernel exercises its partial
// tail word; large enough for full, partial and dead selection words.
inline constexpr std::size_t kRows = 5'000;

/// facts(u32, skew32, neg32, const32, wide64, neg64, tag, d, dk) — one
/// column per distribution shape the encoder must survive: uniform
/// non-negative (kBitPacked), skewed (dense head, sparse tail),
/// negative-domain (kForBitPacked only), all-equal (width-0 packing),
/// wide int64, negative int64, dictionary codes, a plain double, and a
/// small-domain double that doubles as a join / group key.
inline storage::Catalog make_catalog(std::uint64_t seed) {
  using storage::Column;
  using storage::Schema;
  using storage::Table;
  using storage::TypeId;
  storage::Catalog cat;
  Table& t = cat.add(Table("facts", Schema({{"u32", TypeId::kInt32},
                                            {"skew32", TypeId::kInt32},
                                            {"neg32", TypeId::kInt32},
                                            {"const32", TypeId::kInt32},
                                            {"wide64", TypeId::kInt64},
                                            {"neg64", TypeId::kInt64},
                                            {"tag", TypeId::kString},
                                            {"d", TypeId::kDouble},
                                            {"dk", TypeId::kDouble}})));
  Pcg32 rng(seed);
  std::vector<std::int32_t> u32, skew32, neg32, const32;
  std::vector<std::int64_t> wide64, neg64;
  std::vector<std::string> tag;
  std::vector<double> d, dk;
  const char* tags[] = {"ash", "birch", "cedar", "elm", "fir", "oak"};
  for (std::size_t i = 0; i < kRows; ++i) {
    u32.push_back(static_cast<std::int32_t>(rng.next_bounded(1000)));
    // Skew: ~87% land in a tiny head domain, the rest spread wide.
    skew32.push_back(static_cast<std::int32_t>(
        rng.next_bounded(8) != 0 ? rng.next_bounded(4)
                                 : 100 + rng.next_bounded(5000)));
    neg32.push_back(static_cast<std::int32_t>(rng.next_in_range(-700, 300)));
    const32.push_back(42);
    wide64.push_back(rng.next_in_range(0, 3'000'000));
    neg64.push_back(rng.next_in_range(-50'000, -10));
    tag.emplace_back(tags[rng.next_bounded(6)]);
    d.push_back(rng.next_double() * 200.0 - 100.0);
    dk.push_back(0.25 * static_cast<double>(rng.next_bounded(40)));
  }
  t.set_column(0, Column::from_int32("u32", u32));
  t.set_column(1, Column::from_int32("skew32", skew32));
  t.set_column(2, Column::from_int32("neg32", neg32));
  t.set_column(3, Column::from_int32("const32", const32));
  t.set_column(4, Column::from_int64("wide64", wide64));
  t.set_column(5, Column::from_int64("neg64", neg64));
  t.set_column(6, Column::from_strings("tag", tag));
  t.set_column(7, Column::from_double("d", d));
  t.set_column(8, Column::from_double("dk", dk));

  // dim(key, weight, cat, skey, dkey) for joins: keys overlap u32's
  // domain partially, keys 0..49 appear TWICE (duplicate build keys ->
  // pair fan-out), and `cat` gives a build-side string group key.
  // `skey` is a string join key whose dictionary only PARTIALLY overlaps
  // facts.tag ("hazel"/"pine" remap to no probe code; "ash"/"oak" never
  // match), and `dkey` is a double join key over a 48-value domain that
  // covers facts.dk's 40 values plus 8 build-only ones.
  Table& dim = cat.add(Table("dim", Schema({{"key", TypeId::kInt32},
                                            {"weight", TypeId::kInt64},
                                            {"cat", TypeId::kString},
                                            {"skey", TypeId::kString},
                                            {"dkey", TypeId::kDouble}})));
  std::vector<std::int32_t> keys;
  std::vector<std::int64_t> weights;
  std::vector<std::string> cats, skeys;
  std::vector<double> dkeys;
  const char* cat_names[] = {"red", "green", "blue"};
  const char* skey_names[] = {"birch", "cedar", "elm",
                              "fir",   "hazel", "pine"};
  for (std::int32_t k = 0; k < 700; ++k) {
    keys.push_back(k);
    weights.push_back(rng.next_in_range(-9, 9));
    cats.emplace_back(cat_names[rng.next_bounded(3)]);
    skeys.emplace_back(skey_names[rng.next_bounded(6)]);
    dkeys.push_back(0.25 * static_cast<double>(rng.next_bounded(48)));
  }
  for (std::int32_t k = 0; k < 50; ++k) {  // duplicates
    keys.push_back(k);
    weights.push_back(rng.next_in_range(-9, 9));
    cats.emplace_back(cat_names[rng.next_bounded(3)]);
    skeys.emplace_back(skey_names[rng.next_bounded(6)]);
    dkeys.push_back(0.25 * static_cast<double>(rng.next_bounded(48)));
  }
  dim.set_column(0, Column::from_int32("key", keys));
  dim.set_column(1, Column::from_int64("weight", weights));
  dim.set_column(2, Column::from_strings("cat", cats));
  dim.set_column(3, Column::from_strings("skey", skeys));
  dim.set_column(4, Column::from_double("dkey", dkeys));

  // dim2(key2, score): a second star dimension over u32's domain — only
  // even keys exist, so the chained join filters — for the multi-way
  // (3-table) join matrix.
  Table& dim2 = cat.add(Table("dim2", Schema({{"key2", TypeId::kInt32},
                                              {"score", TypeId::kInt64}})));
  std::vector<std::int32_t> keys2;
  std::vector<std::int64_t> scores;
  for (std::int32_t k = 0; k < 450; ++k) {
    keys2.push_back(2 * k);
    scores.push_back(rng.next_in_range(-20, 20));
  }
  dim2.set_column(0, Column::from_int32("key2", keys2));
  dim2.set_column(1, Column::from_int64("score", scores));

  // udim(ukey, label, ratio, ukey_s): a dimension whose every key column
  // is unique, so its join steps can leave the chain (filter and gather
  // roles). `ukey` covers 300..699, overlapping 40 % of u32's 0..999;
  // `label` is a string attribute; `ratio` is a double attribute and a
  // double join key (0.25 steps, permuted, covering facts.dk's 40
  // values); `ukey_s` is a string key holding "birch", "cedar", "elm",
  // the build-only "hazel" and 396 more build-only values, so facts.tag's
  // "ash", "fir" and "oak" find no row.
  Table& udim = cat.add(Table("udim", Schema({{"ukey", TypeId::kInt32},
                                              {"label", TypeId::kString},
                                              {"ratio", TypeId::kDouble},
                                              {"ukey_s", TypeId::kString}})));
  std::vector<std::int32_t> ukeys;
  std::vector<std::string> labels, ukey_s;
  std::vector<double> ratios;
  const char* label_names[] = {"north", "south", "east", "west"};
  const char* shared_tags[] = {"birch", "cedar", "elm", "hazel"};
  for (std::int32_t r = 0; r < 400; ++r) {
    ukeys.push_back(300 + r);
    labels.emplace_back(label_names[r % 4]);
    ratios.push_back(0.25 * static_cast<double>((r * 7) % 400));
    ukey_s.emplace_back(r < 4 ? std::string(shared_tags[r])
                              : "u" + std::to_string(r));
  }
  udim.set_column(0, Column::from_int32("ukey", ukeys));
  udim.set_column(1, Column::from_strings("label", labels));
  udim.set_column(2, Column::from_double("ratio", ratios));
  udim.set_column(3, Column::from_strings("ukey_s", ukey_s));
  return cat;
}

/// Re-encodes every integer-typed column of both tables. `forced` ==
/// nullopt restores the automatic (stats-driven) choice; kBitPacked is
/// silently replaced by kForBitPacked on negative domains, where it is
/// inapplicable by definition.
inline void recode_all(storage::Catalog& cat,
                       std::optional<storage::Encoding> forced) {
  using storage::Encoding;
  for (const std::string& tname : cat.table_names()) {
    storage::Table& t = cat.get(tname);
    for (const auto& def : t.schema().columns()) {
      if (def.type == storage::TypeId::kDouble) continue;
      Encoding e;
      if (forced.has_value()) {
        e = *forced;
        if (e == Encoding::kBitPacked && t.column(def.name).stats().min < 0)
          e = Encoding::kForBitPacked;
      } else {
        e = t.column(def.name).choose_encoding();
      }
      t.recode(def.name, e);
    }
  }
}

/// Bit-identical result comparison: every Value must compare equal under
/// the variant's operator== — including doubles, since both compared
/// paths must accumulate in the same order.
inline void expect_identical(const QueryResult& want, const QueryResult& got,
                             const std::string& label) {
  ASSERT_EQ(want.column_names(), got.column_names()) << label;
  ASSERT_EQ(want.row_count(), got.row_count()) << label;
  for (std::size_t r = 0; r < want.row_count(); ++r)
    for (std::size_t c = 0; c < want.column_count(); ++c)
      ASSERT_EQ(want.at(r, c), got.at(r, c))
          << label << " row " << r << " col " << c;
}

/// Joins against the unique-key dimension, one per join role: filter
/// steps only (global aggregate, all-filter projection, a string key the
/// dimension partly lacks), gather steps (a string, double or int lookup
/// key, alone or beside a FROM column in a composite key, through int,
/// double and string join keys), empty build selections, and a snowflake
/// step probed from the dimension, which keeps it in the chain.
inline std::vector<std::pair<std::string, LogicalPlan>> unique_dim_queries() {
  std::vector<std::pair<std::string, LogicalPlan>> qs;
  const auto add = [&](const std::string& name, LogicalPlan plan) {
    qs.emplace_back(name, std::move(plan));
  };
  add("ujoin_filter_global", QueryBuilder("facts")
                                 .filter_int("neg32", -600, 200)
                                 .join("udim", "u32", "ukey")
                                 .join_filter_int("ukey", 320, 680)
                                 .join("dim2", "u32", "key2")
                                 .aggregate(AggOp::kCount)
                                 .aggregate(AggOp::kSum, "wide64")
                                 .aggregate(AggOp::kMin, "neg32")
                                 .aggregate(AggOp::kAvg, "d")
                                 .aggregate(AggOp::kSum, "d")
                                 .build());
  add("ujoin_group_label", QueryBuilder("facts")
                               .filter_int("u32", 0, 900)
                               .join("udim", "u32", "ukey")
                               .group_by("udim.label")
                               .aggregate(AggOp::kCount)
                               .aggregate(AggOp::kSum, "neg64")
                               .aggregate(AggOp::kSum, "d")
                               .aggregate(AggOp::kMax, "skew32")
                               .build());
  add("ujoin_group_ratio", QueryBuilder("facts")
                               .join("udim", "u32", "ukey")
                               .join_filter_int("ukey", 350, 900)
                               .group_by("ratio")
                               .aggregate(AggOp::kCount)
                               .aggregate(AggOp::kAvg, "d")
                               .aggregate(AggOp::kMin, "wide64")
                               .build());
  add("ujoin_group_composite", QueryBuilder("facts")
                                   .join("udim", "u32", "ukey")
                                   .join("dim2", "u32", "key2")
                                   .group_by("skew32")
                                   .group_by("udim.label")
                                   .aggregate(AggOp::kCount)
                                   .aggregate(AggOp::kSum, "neg32")
                                   .aggregate(AggOp::kSum, "d")
                                   .build());
  add("ujoin_key_in_composite", QueryBuilder("facts")
                                    .filter_int("u32", 280, 700)
                                    .join("udim", "u32", "ukey")
                                    .group_by("udim.label")
                                    .group_by("u32")
                                    .aggregate(AggOp::kCount)
                                    .aggregate(AggOp::kSum, "u32")
                                    .build());
  add("ujoin_string_key", QueryBuilder("facts")
                              .filter_int("u32", 0, 800)
                              .join("udim", "tag", "ukey_s")
                              .group_by("tag")
                              .aggregate(AggOp::kCount)
                              .aggregate(AggOp::kSum, "wide64")
                              .build());
  add("ujoin_string_key_lookup", QueryBuilder("facts")
                                     .join("udim", "tag", "ukey_s")
                                     .group_by("udim.ukey")
                                     .aggregate(AggOp::kCount)
                                     .aggregate(AggOp::kMax, "neg64")
                                     .build());
  add("ujoin_double_key", QueryBuilder("facts")
                              .filter_int("skew32", 0, 3)
                              .join("udim", "dk", "ratio")
                              .group_by("udim.label")
                              .aggregate(AggOp::kCount)
                              .aggregate(AggOp::kSum, "neg64")
                              .aggregate(AggOp::kSum, "d")
                              .build());
  add("ujoin_project_topn", QueryBuilder("facts")
                                .join("udim", "u32", "ukey")
                                .join_filter_int("ukey", 400, 499)
                                .select({"u32", "facts.neg64", "tag"})
                                .order_by("facts.neg64", true)
                                .limit(15)
                                .build());
  add("ujoin_project", QueryBuilder("facts")
                           .filter_int("skew32", 0, 1)
                           .join("udim", "dk", "ratio")
                           .select({"u32", "d"})
                           .limit(30)
                           .build());
  // Empty build selections: no row survives the pass.
  add("ujoin_empty_lookup", QueryBuilder("facts")
                                .join("udim", "u32", "ukey")
                                .join_filter_int("ukey", 5000, 6000)
                                .group_by("udim.label")
                                .aggregate(AggOp::kCount)
                                .aggregate(AggOp::kSum, "wide64")
                                .build());
  add("ujoin_empty_global", QueryBuilder("facts")
                                .join("udim", "u32", "ukey")
                                .join_filter_int("ukey", 5000, 6000)
                                .aggregate(AggOp::kCount)
                                .aggregate(AggOp::kSum, "d")
                                .aggregate(AggOp::kMin, "neg64")
                                .build());
  add("ujoin_snowflake", QueryBuilder("facts")
                             .join("udim", "u32", "ukey")
                             .join("dim2", "udim.ukey", "key2")
                             .group_by("udim.label")
                             .aggregate(AggOp::kCount)
                             .aggregate(AggOp::kSum, "dim2.score")
                             .aggregate(AggOp::kSum, "wide64")
                             .build());
  return qs;
}

/// The query matrix: every supported shape over the distribution columns.
inline std::vector<std::pair<std::string, LogicalPlan>> query_matrix() {
  std::vector<std::pair<std::string, LogicalPlan>> qs;
  const auto add = [&](const std::string& name, LogicalPlan plan) {
    qs.emplace_back(name, std::move(plan));
  };
  // Filters: wide / narrow / point / empty / covering / negative bounds.
  add("filter_count", QueryBuilder("facts")
                          .filter_int("u32", 100, 899)
                          .aggregate(AggOp::kCount)
                          .build());
  add("filter_point", QueryBuilder("facts")
                          .filter_int("skew32", 2, 2)
                          .aggregate(AggOp::kCount)
                          .build());
  add("filter_negative", QueryBuilder("facts")
                             .filter_int("neg32", -650, -1)
                             .aggregate(AggOp::kCount)
                             .aggregate(AggOp::kSum, "neg32")
                             .build());
  add("filter_const_hit", QueryBuilder("facts")
                              .filter_int("const32", 40, 50)
                              .aggregate(AggOp::kCount)
                              .build());
  add("filter_const_miss", QueryBuilder("facts")
                               .filter_int("const32", 43, 99)
                               .aggregate(AggOp::kCount)
                               .build());
  add("filter_conjunctive", QueryBuilder("facts")
                                .filter_int("u32", 50, 800)
                                .filter_int("wide64", 0, 1'500'000)
                                .filter_int("neg32", -500, 200)
                                .aggregate(AggOp::kCount)
                                .aggregate(AggOp::kMin, "neg64")
                                .build());
  add("filter_string", QueryBuilder("facts")
                           .filter_string("tag", "birch", "fir")
                           .aggregate(AggOp::kCount)
                           .build());
  // Global multi-aggregates over every input type.
  add("global_multi", QueryBuilder("facts")
                          .filter_int("u32", 0, 750)
                          .aggregate(AggOp::kCount)
                          .aggregate(AggOp::kSum, "wide64")
                          .aggregate(AggOp::kMin, "neg64")
                          .aggregate(AggOp::kMax, "skew32")
                          .aggregate(AggOp::kAvg, "neg32")
                          .aggregate(AggOp::kAvg, "d")
                          .build());
  // Group-bys: every key type, packed values under packed keys.
  add("group_small_key", QueryBuilder("facts")
                             .group_by("skew32")
                             .aggregate(AggOp::kCount)
                             .aggregate(AggOp::kSum, "wide64")
                             .aggregate(AggOp::kMin, "neg32")
                             .build());
  add("group_negative_key", QueryBuilder("facts")
                                .filter_int("wide64", 250'000, 2'750'000)
                                .group_by("neg64")
                                .aggregate(AggOp::kCount)
                                .aggregate(AggOp::kMax, "u32")
                                .build());
  add("group_string_key", QueryBuilder("facts")
                              .group_by("tag")
                              .aggregate(AggOp::kCount)
                              .aggregate(AggOp::kSum, "neg32")
                              .aggregate(AggOp::kAvg, "d")
                              .build());
  add("group_const_key", QueryBuilder("facts")
                             .group_by("const32")
                             .aggregate(AggOp::kCount)
                             .aggregate(AggOp::kSum, "u32")
                             .build());
  add("group_composite", QueryBuilder("facts")
                             .filter_int("neg32", -400, 250)
                             .group_by("tag")
                             .group_by("skew32")
                             .aggregate(AggOp::kCount)
                             .aggregate(AggOp::kSum, "wide64")
                             .build());
  // Joins: packed key probing, duplicate build keys, build-side aggregate
  // columns, grouped aggregation over probe AND build columns, empty
  // build selections — every shape the vectorized join pipeline supports.
  add("join_agg", QueryBuilder("facts")
                      .filter_int("u32", 0, 680)
                      .join("dim", "u32", "key")
                      .aggregate(AggOp::kCount)
                      .aggregate(AggOp::kSum, "wide64")
                      .build());
  add("join_build_agg", QueryBuilder("facts")
                            .join("dim", "u32", "key")
                            .aggregate(AggOp::kCount)
                            .aggregate(AggOp::kSum, "dim.weight")
                            .aggregate(AggOp::kMin, "dim.weight")
                            .aggregate(AggOp::kMax, "u32")
                            .build());
  add("join_group_probe", QueryBuilder("facts")
                              .filter_int("u32", 0, 200)
                              .join("dim", "u32", "key")
                              .group_by("tag")
                              .aggregate(AggOp::kCount)
                              .aggregate(AggOp::kSum, "wide64")
                              .aggregate(AggOp::kSum, "dim.weight")
                              .build());
  add("join_group_build", QueryBuilder("facts")
                              .join("dim", "u32", "key")
                              .join_filter_int("weight", -5, 5)
                              .group_by("dim.cat")
                              .aggregate(AggOp::kCount)
                              .aggregate(AggOp::kSum, "u32")
                              .aggregate(AggOp::kMin, "neg32")
                              .build());
  // The weight predicate keeps scattered keys; a predicate on the key
  // itself keeps one run, which the semi-join filter tests as a range.
  add("join_group_build_run", QueryBuilder("facts")
                                  .join("dim", "u32", "key")
                                  .join_filter_int("key", 120, 479)
                                  .group_by("dim.cat")
                                  .aggregate(AggOp::kCount)
                                  .aggregate(AggOp::kSum, "u32")
                                  .aggregate(AggOp::kMax, "neg32")
                                  .build());
  add("join_group_composite", QueryBuilder("facts")
                                  .filter_int("skew32", 0, 3)
                                  .join("dim", "u32", "key")
                                  .group_by("skew32")
                                  .group_by("dim.cat")
                                  .aggregate(AggOp::kCount)
                                  .aggregate(AggOp::kSum, "dim.weight")
                                  .build());
  add("join_empty_build", QueryBuilder("facts")
                              .join("dim", "u32", "key")
                              .join_filter_int("weight", 100, 200)
                              .group_by("tag")
                              .aggregate(AggOp::kCount)
                              .aggregate(AggOp::kSum, "u32")
                              .build());
  // String- and double-keyed joins: the build side's codes are remapped
  // into the probe dictionary's code domain, so these exercise partially
  // overlapping dictionaries (build-only values remap to -1, probe-only
  // values never match), fully disjoint dictionaries (empty result), and
  // double keys joined / grouped through their ordered code domains.
  add("join_string_key", QueryBuilder("facts")
                             .filter_int("u32", 0, 120)
                             .join("dim", "tag", "skey")
                             .aggregate(AggOp::kCount)
                             .aggregate(AggOp::kSum, "dim.weight")
                             .aggregate(AggOp::kMax, "u32")
                             .build());
  add("join_string_group", QueryBuilder("facts")
                               .filter_int("u32", 500, 560)
                               .join("dim", "tag", "skey")
                               .join_filter_int("weight", -6, 6)
                               .group_by("dim.cat")
                               .aggregate(AggOp::kCount)
                               .aggregate(AggOp::kSum, "wide64")
                               .build());
  add("join_string_disjoint", QueryBuilder("facts")
                                  .filter_int("u32", 0, 500)
                                  .join("dim", "tag", "cat")
                                  .aggregate(AggOp::kCount)
                                  .aggregate(AggOp::kSum, "u32")
                                  .build());
  add("join_double_key", QueryBuilder("facts")
                             .filter_int("u32", 0, 100)
                             .join("dim", "dk", "dkey")
                             .aggregate(AggOp::kCount)
                             .aggregate(AggOp::kSum, "dim.weight")
                             .aggregate(AggOp::kMin, "neg32")
                             .build());
  add("group_double_key", QueryBuilder("facts")
                              .filter_int("u32", 0, 400)
                              .group_by("dk")
                              .aggregate(AggOp::kCount)
                              .aggregate(AggOp::kSum, "neg32")
                              .build());
  // Multi-way (3-table) star joins through the physical plan compiler:
  // grouped aggregates over all three tables, composite cross-table
  // keys, and ORDER BY / LIMIT over the join output.
  add("join_star_group", QueryBuilder("facts")
                             .filter_int("u32", 0, 650)
                             .join("dim", "u32", "key")
                             .join("dim2", "u32", "key2")
                             .group_by("tag")
                             .aggregate(AggOp::kCount)
                             .aggregate(AggOp::kSum, "dim.weight")
                             .aggregate(AggOp::kSum, "dim2.score")
                             .aggregate(AggOp::kMax, "u32")
                             .build());
  add("join_star_composite", QueryBuilder("facts")
                                 .filter_int("skew32", 0, 3)
                                 .join("dim", "u32", "key")
                                 .join_filter_int("weight", -7, 7)
                                 .join("dim2", "u32", "key2")
                                 .group_by("skew32")
                                 .group_by("dim.cat")
                                 .aggregate(AggOp::kCount)
                                 .aggregate(AggOp::kSum, "dim2.score")
                                 .build());
  add("join_star_orderby_key", QueryBuilder("facts")
                                   .join("dim", "u32", "key")
                                   .join("dim2", "u32", "key2")
                                   .group_by("tag")
                                   .aggregate(AggOp::kCount)
                                   .aggregate(AggOp::kSum, "dim.weight")
                                   .order_by("tag", false)
                                   .limit(4)
                                   .build());
  add("join_group_orderby_count", QueryBuilder("facts")
                                      .join("dim", "u32", "key")
                                      .group_by("dim.cat")
                                      .aggregate(AggOp::kCount)
                                      .aggregate(AggOp::kSum, "u32")
                                      .order_by("count", false)
                                      .limit(3)
                                      .build());
  // ORDER BY over aggregate output on the no-join path.
  add("group_orderby_agg", QueryBuilder("facts")
                               .group_by("skew32")
                               .aggregate(AggOp::kCount)
                               .aggregate(AggOp::kSum, "wide64")
                               .order_by("sum(wide64)", false)
                               .limit(5)
                               .build());
  // Projection + order-by + limit (heap top-k, gather-bounded charges).
  add("topn", QueryBuilder("facts")
                  .filter_int("skew32", 0, 3)
                  .select({"u32", "skew32", "neg64"})
                  .order_by("neg64", false)
                  .limit(25)
                  .build());
  // Join projection with ORDER BY + LIMIT (the shape the executor used
  // to reject outright).
  add("join_topn", QueryBuilder("facts")
                       .filter_int("skew32", 0, 2)
                       .join("dim", "u32", "key")
                       .select({"u32", "dim.weight", "neg64"})
                       .order_by("neg64", false)
                       .limit(20)
                       .build());
  for (auto& q : unique_dim_queries()) qs.push_back(std::move(q));
  return qs;
}

// ---------------------------------------------------------------------------
// The scalar reference oracle for aggregate plans, with or without joins.
// Selections come from a row-at-a-time predicate loop; matches, in
// nested-loop order (tuples in order, each tuple's matching build rows
// ascending), from a per-join index of the selected build
// rows by key VALUE, every join in declaration order; grouping and
// aggregation from scalar maps keyed by the group values' text. It shares
// no predicate, aggregation or join code with the engine and does no
// planner reordering.
//
// Integer inputs accumulate exactly in int64. Double and expression
// inputs accumulate in nested-loop order, so a double SUM or AVG is
// compared within the rounding bound of a reordered sum; MIN and MAX are
// exact. Plans with ORDER BY are checked for membership, sortedness and
// the LIMIT row count (positional order on tied sort keys is the
// executor's deterministic tie-break, which the oracle does not model).
// ---------------------------------------------------------------------------

/// One aggregate's scalar accumulator within one group.
struct OracleAcc {
  bool is_double = false;  ///< Double column or expression input.
  std::int64_t isum = 0;
  std::int64_t imin = std::numeric_limits<std::int64_t>::max();
  std::int64_t imax = std::numeric_limits<std::int64_t>::min();
  double dsum = 0;
  double dabs = 0;  ///< Sum of |x|: bounds dsum's reordering error.
  double dmin = std::numeric_limits<double>::infinity();
  double dmax = -std::numeric_limits<double>::infinity();
};

/// Scalar oracle result: one group per composite key string.
struct OracleGroup {
  std::int64_t count = 0;
  std::vector<OracleAcc> aggs;
};

/// Row-at-a-time selection of `t` under the conjunction `preds`: a row is
/// selected iff each predicate's inclusive [lo, hi] holds its value
/// (strings compare as strings, not as dictionary codes; NaN matches
/// nothing).
inline BitVector oracle_selection(const storage::Table& t,
                                  const std::vector<Predicate>& preds) {
  using storage::TypeId;
  BitVector sel(t.row_count());
  for (std::size_t i = 0; i < t.row_count(); ++i) {
    bool hit = true;
    for (std::size_t k = 0; hit && k < preds.size(); ++k) {
      const Predicate& p = preds[k];
      const storage::Column& c = t.column(p.column);
      if (c.type() == TypeId::kString) {
        const std::string& v = c.dictionary().at(c.int32_data()[i]);
        hit = p.lo.as_string() <= v && v <= p.hi.as_string();
      } else if (c.type() == TypeId::kDouble) {
        const double v = c.double_data()[i];
        hit = v >= p.lo.as_double() && v <= p.hi.as_double();
      } else {
        const std::int64_t v = c.int_at(i);
        hit = v >= p.lo.as_int() && v <= p.hi.as_int();
      }
    }
    if (hit) sel.set(i);
  }
  return sel;
}

/// Runs the oracle for an aggregate plan (zero or more joins).
inline std::map<std::string, OracleGroup> run_join_oracle(
    const storage::Catalog& cat, const LogicalPlan& plan) {
  using storage::Column;
  using storage::Table;
  using storage::TypeId;
  EIDB_EXPECTS(plan.is_aggregate());
  const Table& facts = cat.get(plan.table);
  std::vector<const Table*> sides{&facts};  // side j+1 = join j's table
  for (const JoinSpec& j : plan.joins) sides.push_back(&cat.get(j.table));

  // Column resolution mirroring the executor: bare names bind probe
  // first, then the joined tables in declaration order.
  const auto resolve =
      [&](const std::string& n) -> std::pair<std::size_t, const Column*> {
    const auto dot = n.find('.');
    if (dot != std::string::npos) {
      const std::string t = n.substr(0, dot);
      const std::string c = n.substr(dot + 1);
      for (std::size_t s = 0; s < sides.size(); ++s)
        if (sides[s]->name() == t) return {s, &sides[s]->column(c)};
      throw Error("oracle: unknown table " + t);
    }
    for (std::size_t s = 0; s < sides.size(); ++s)
      if (sides[s]->schema().has_column(n)) return {s, &sides[s]->column(n)};
    throw Error("oracle: unknown column " + n);
  };

  const BitVector psel = oracle_selection(facts, plan.predicates);
  std::vector<BitVector> bsel;
  for (std::size_t j = 0; j < plan.joins.size(); ++j)
    bsel.push_back(oracle_selection(*sides[j + 1], plan.joins[j].predicates));

  // Match tuples, one join at a time in declaration order. Each join
  // indexes its selected build rows once by key value, rows ascending, so
  // every tuple extends with its matches in the nested loop's order.
  std::vector<std::vector<std::size_t>> tuples;
  psel.for_each_set([&](std::size_t i) { tuples.push_back({i}); });
  for (std::size_t j = 0; j < plan.joins.size(); ++j) {
    const JoinSpec& spec = plan.joins[j];
    const auto [src_side, src_col] = resolve(spec.left_key);
    const Column& right = sides[j + 1]->column(spec.right_key);
    // Key equality in the VALUE domain, never dictionary codes: the two
    // sides of a string (or double) join own independent dictionaries,
    // so equal codes do not mean equal keys. NaN equals nothing.
    const TypeId kt = src_col->type();
    std::map<std::int64_t, std::vector<std::size_t>> by_int;
    std::map<double, std::vector<std::size_t>> by_double;
    std::map<std::string, std::vector<std::size_t>> by_string;
    bsel[j].for_each_set([&](std::size_t b) {
      if (kt == TypeId::kString) {
        by_string[right.value_at(b).as_string()].push_back(b);
      } else if (kt == TypeId::kDouble) {
        const double v = right.value_at(b).as_double();
        if (!std::isnan(v)) by_double[v].push_back(b);
      } else {
        by_int[right.int_at(b)].push_back(b);
      }
    });
    const auto matches =
        [&](std::size_t row) -> const std::vector<std::size_t>* {
      if (kt == TypeId::kString) {
        const auto it = by_string.find(src_col->value_at(row).as_string());
        return it == by_string.end() ? nullptr : &it->second;
      }
      if (kt == TypeId::kDouble) {
        const double v = src_col->value_at(row).as_double();
        const auto it = std::isnan(v) ? by_double.end() : by_double.find(v);
        return it == by_double.end() ? nullptr : &it->second;
      }
      const auto it = by_int.find(src_col->int_at(row));
      return it == by_int.end() ? nullptr : &it->second;
    };
    std::vector<std::vector<std::size_t>> next;
    for (const auto& tup : tuples) {
      const std::vector<std::size_t>* rows = matches(tup[src_side]);
      if (rows == nullptr) continue;
      for (const std::size_t b : *rows) {
        auto extended = tup;
        extended.push_back(b);
        next.push_back(std::move(extended));
      }
    }
    tuples = std::move(next);
  }

  // Scalar expression evaluation: integer leaves widen to double, the
  // operators apply in tree order (IEEE division, as the engine does).
  const auto eval = [&](const auto& self, const exec::Expr& e,
                        const std::vector<std::size_t>& tup) -> double {
    switch (e.kind()) {
      case exec::ExprKind::kLiteral:
        return e.literal_value();
      case exec::ExprKind::kColumn: {
        const auto [s, c] = resolve(e.column_name());
        return c->value_at(tup[s]).as_double();
      }
      case exec::ExprKind::kBinary: {
        const double l = self(self, e.lhs(), tup);
        const double r = self(self, e.rhs(), tup);
        switch (e.op()) {
          case exec::ExprOp::kAdd:
            return l + r;
          case exec::ExprOp::kSub:
            return l - r;
          case exec::ExprOp::kMul:
            return l * r;
          case exec::ExprOp::kDiv:
            return l / r;
        }
      }
    }
    throw Error("oracle: invalid expression");
  };

  std::map<std::string, OracleGroup> groups;
  const std::size_t n_aggs = plan.aggregates.size();
  const auto fresh_group = [&] {
    OracleGroup g;
    g.aggs.resize(n_aggs);
    for (std::size_t ai = 0; ai < n_aggs; ++ai) {
      const AggSpec& a = plan.aggregates[ai];
      g.aggs[ai].is_double =
          a.op != AggOp::kCount &&
          (a.expr != nullptr ||
           resolve(a.column).second->type() == TypeId::kDouble);
    }
    return g;
  };
  for (const auto& tup : tuples) {
    std::string key;
    for (const std::string& gname : plan.group_by) {
      const auto [s, c] = resolve(gname);
      key += c->value_at(tup[s]).to_string() + "|";
    }
    auto it = groups.find(key);
    if (it == groups.end()) it = groups.emplace(key, fresh_group()).first;
    OracleGroup& g = it->second;
    ++g.count;
    for (std::size_t ai = 0; ai < n_aggs; ++ai) {
      const AggSpec& a = plan.aggregates[ai];
      if (a.op == AggOp::kCount) continue;
      OracleAcc& acc = g.aggs[ai];
      if (acc.is_double) {
        double v;
        if (a.expr != nullptr) {
          v = eval(eval, *a.expr, tup);
        } else {
          const auto [s, c] = resolve(a.column);
          v = c->value_at(tup[s]).as_double();
        }
        acc.dsum += v;
        acc.dabs += std::abs(v);
        acc.dmin = std::min(acc.dmin, v);
        acc.dmax = std::max(acc.dmax, v);
      } else {
        const auto [s, c] = resolve(a.column);
        const std::int64_t v = c->int_at(tup[s]);
        acc.isum += v;
        acc.imin = std::min(acc.imin, v);
        acc.imax = std::max(acc.imax, v);
      }
    }
  }
  // A global aggregate over zero matches still emits one zeroed row.
  if (plan.group_by.empty() && groups.empty()) groups.emplace("", fresh_group());
  return groups;
}

/// The value the engine must report for aggregate `ai` of `g`, and the
/// absolute tolerance a double is compared within. Empty MIN / MAX report
/// integer 0 and an empty AVG 0.0, whatever the input type.
inline std::pair<storage::Value, double> oracle_value(const AggSpec& a,
                                                      const OracleGroup& g,
                                                      std::size_t ai) {
  using storage::Value;
  const OracleAcc& acc = g.aggs[ai];
  // Both sides' rounding grows at most linearly in the addends' magnitude.
  const double sum_tol = 1e-9 * acc.dabs;
  switch (a.op) {
    case AggOp::kCount:
      return {Value{g.count}, 0};
    case AggOp::kSum:
      return acc.is_double ? std::pair{Value{acc.dsum}, sum_tol}
                           : std::pair{Value{acc.isum}, 0.0};
    case AggOp::kMin:
      if (g.count == 0) return {Value{std::int64_t{0}}, 0};
      return {acc.is_double ? Value{acc.dmin} : Value{acc.imin}, 0};
    case AggOp::kMax:
      if (g.count == 0) return {Value{std::int64_t{0}}, 0};
      return {acc.is_double ? Value{acc.dmax} : Value{acc.imax}, 0};
    case AggOp::kAvg: {
      if (g.count == 0) return {Value{0.0}, 0};
      const auto n = static_cast<double>(g.count);
      return acc.is_double
                 ? std::pair{Value{acc.dsum / n}, sum_tol / n}
                 : std::pair{Value{static_cast<double>(acc.isum) / n}, 0.0};
    }
  }
  throw Error("oracle: invalid aggregate");
}

/// Checks an executed aggregate result against the oracle groups: the
/// result's columns, one row per group (LIMIT-bounded), distinct group
/// keys, every value, and sortedness under ORDER BY.
inline void expect_matches_oracle(
    const QueryResult& got, const std::map<std::string, OracleGroup>& groups,
    const LogicalPlan& plan, const std::string& label) {
  std::vector<std::string> names(plan.group_by.begin(), plan.group_by.end());
  for (const AggSpec& a : plan.aggregates) names.push_back(agg_column_name(a));
  ASSERT_EQ(got.column_names(), names) << label;
  const std::size_t want_rows =
      plan.limit != 0 ? std::min(plan.limit, groups.size()) : groups.size();
  ASSERT_EQ(got.row_count(), want_rows) << label;
  if (plan.order_by.has_value() && got.row_count() > 1) {
    const std::size_t oc = got.column_index(plan.order_by->column);
    for (std::size_t r = 0; r + 1 < got.row_count(); ++r) {
      const storage::Value& a = got.at(r, oc);
      const storage::Value& b = got.at(r + 1, oc);
      const auto leq = [](const storage::Value& x, const storage::Value& y) {
        if (x.is_string()) return x.as_string() <= y.as_string();
        if (x.is_double() || y.is_double())
          return x.as_double() <= y.as_double();
        return x.as_int() <= y.as_int();
      };
      if (plan.order_by->ascending)
        EXPECT_TRUE(leq(a, b)) << label << " row " << r;
      else
        EXPECT_TRUE(leq(b, a)) << label << " row " << r;
    }
  }
  std::set<std::string> seen;
  for (std::size_t r = 0; r < got.row_count(); ++r) {
    std::string key;
    for (std::size_t gc = 0; gc < plan.group_by.size(); ++gc)
      key += got.at(r, gc).to_string() + "|";
    EXPECT_TRUE(seen.insert(key).second) << label << " duplicate key " << key;
    const auto it = groups.find(key);
    ASSERT_TRUE(it != groups.end()) << label << " key " << key;
    for (std::size_t ai = 0; ai < plan.aggregates.size(); ++ai) {
      const storage::Value& got_v = got.at(r, plan.group_by.size() + ai);
      const auto [want, tol] =
          oracle_value(plan.aggregates[ai], it->second, ai);
      if (want.is_double()) {
        ASSERT_TRUE(got_v.is_double())
            << label << " key " << key << " agg " << ai;
        EXPECT_LE(std::abs(got_v.as_double() - want.as_double()), tol)
            << label << " key " << key << " agg " << ai << ": got "
            << got_v.as_double() << ", want " << want.as_double();
      } else {
        EXPECT_EQ(got_v, want) << label << " key " << key << " agg " << ai;
      }
    }
  }
}

}  // namespace eidb::query::parity
