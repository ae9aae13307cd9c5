// SharedScanParity — differential harness for the multi-query shared scan
// (exec/shared_scan.hpp + query/shared_scan.hpp + Database::run_batch).
//
// The contract under test, at every layer:
//   1. the fused driver's per-member selections are bit-identical to a
//      scalar reference evaluation, at every pool width;
//   2. compatibility keys group exactly the plans whose fused pass would
//      stream the same physical bytes, and refuse everything else;
//   3. a fused group's results are bit-identical to running each member
//      through the ordinary Executor, across encodings and pool widths;
//   4. the fact table's scan DRAM bytes are charged ONCE per group, the
//      members' attributed shares sum byte-exactly, and per-operator byte
//      sums stay exact;
//   5. end to end, Database::run_batch fuses a compatible batch when the
//      sharing arm approves and still returns exactly run()'s answers.
//
// Runs under the `parity` ctest label, which CI also executes under
// ThreadSanitizer — the fused driver's morsel fan-out is exercised there.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/database.hpp"
#include "exec/shared_scan.hpp"
#include "hw/accelerator.hpp"
#include "opt/cost_model.hpp"
#include "parity_matrix.hpp"
#include "query/executor.hpp"
#include "query/physical_plan.hpp"
#include "query/plan.hpp"
#include "query/shared_scan.hpp"
#include "sched/thread_pool.hpp"
#include "util/bitvector.hpp"
#include "util/rng.hpp"

namespace eidb::query {
namespace {

using parity::expect_identical;
using parity::kRows;
using parity::make_catalog;
using parity::recode_all;

// ---- 1. Fused driver vs scalar reference ------------------------------------

TEST(SharedScanParity, FusedDriverMatchesScalarReference) {
  // Odd row count: the tail word is partial, which is where overwrite
  // semantics and word masking go wrong first.
  constexpr std::size_t kN = 5'003;
  Pcg32 rng(11);
  std::vector<std::int32_t> a(kN);
  std::vector<std::int64_t> b(kN);
  std::vector<double> d(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    a[i] = static_cast<std::int32_t>(rng.next_bounded(1000));
    b[i] = static_cast<std::int64_t>(rng.next_bounded(1 << 20)) - (1 << 19);
    d[i] = static_cast<double>(rng.next_bounded(10'000)) / 100.0;
  }

  // Four members with different conjunct mixes (including a 3-conjunct
  // member and a near-empty one).
  struct Member {
    std::int64_t alo, ahi;
    bool use_b = false;
    std::int64_t blo = 0, bhi = 0;
    bool use_d = false;
    double dlo = 0, dhi = 0;
  };
  const std::vector<Member> spec = {
      {100, 899},
      {0, 499, true, -5000, 20'000},
      {250, 750, true, -100'000, 100'000, true, 10.0, 55.0},
      {42, 42},
  };

  // Scalar reference.
  std::vector<BitVector> want;
  for (const Member& m : spec) {
    BitVector sel(kN);
    for (std::size_t i = 0; i < kN; ++i) {
      bool hit = a[i] >= m.alo && a[i] <= m.ahi;
      if (hit && m.use_b) hit = b[i] >= m.blo && b[i] <= m.bhi;
      if (hit && m.use_d) hit = d[i] >= m.dlo && d[i] <= m.dhi;
      if (hit) sel.set(i);
    }
    want.push_back(std::move(sel));
  }

  for (std::size_t width : {std::size_t{0}, std::size_t{2}, std::size_t{8}}) {
    std::optional<sched::ThreadPool> pool;
    if (width > 0) pool.emplace(width);

    std::vector<BitVector> got(spec.size(), BitVector(kN));
    // Pre-soil the selections: shared_scan overwrites, it must not OR in.
    for (BitVector& s : got) s.set_all();

    std::vector<exec::SharedQuery> queries(spec.size());
    for (std::size_t q = 0; q < spec.size(); ++q) {
      const Member& m = spec[q];
      exec::SharedConjunct ca;
      ca.kind = exec::SharedConjunct::Kind::kInt32;
      ca.i32 = a;
      ca.lo = m.alo;
      ca.hi = m.ahi;
      queries[q].conjuncts.push_back(ca);
      if (m.use_b) {
        exec::SharedConjunct cb;
        cb.kind = exec::SharedConjunct::Kind::kInt64;
        cb.i64 = b;
        cb.lo = m.blo;
        cb.hi = m.bhi;
        queries[q].conjuncts.push_back(cb);
      }
      if (m.use_d) {
        exec::SharedConjunct cd;
        cd.kind = exec::SharedConjunct::Kind::kDouble;
        cd.f64 = d;
        cd.dlo = m.dlo;
        cd.dhi = m.dhi;
        queries[q].conjuncts.push_back(cd);
      }
      queries[q].selection = &got[q];
    }

    exec::SharedScanStats stats;
    exec::shared_scan(kN, queries, pool ? &*pool : nullptr, width, stats,
                      /*morsel_rows=*/1024);
    EXPECT_GT(stats.morsels, 1u);
    ASSERT_EQ(stats.evaluated.size(), spec.size());
    for (std::size_t q = 0; q < spec.size(); ++q) {
      EXPECT_EQ(want[q], got[q]) << "member " << q << " width " << width;
      // `evaluated` counts conjunct-row evaluations: at least one full
      // pass over the first conjunct, at most every conjunct everywhere
      // (dead-word skipping can only reduce the later ones).
      EXPECT_GE(stats.evaluated[q], kN) << "member " << q;
      EXPECT_LE(stats.evaluated[q], kN * queries[q].conjuncts.size())
          << "member " << q;
    }
  }
}

// ---- 2. Compatibility keys ---------------------------------------------------

TEST(SharedScanParity, SharingKeyGroupsOnlyCompatiblePlans) {
  storage::Catalog cat = make_catalog(3);
  const ExecOptions opts;

  auto key_of = [&](const LogicalPlan& plan, const ExecOptions& o) {
    const PhysicalPlan phys = compile_plan(cat, plan, o);
    return scan_sharing_key(cat, phys, o);
  };

  const auto count_u32 = [](std::int64_t lo, std::int64_t hi) {
    return QueryBuilder("facts")
        .filter_int("u32", lo, hi)
        .aggregate(AggOp::kCount)
        .build();
  };

  // Same table + predicate column: equal keys regardless of bounds or sink.
  const std::string k1 = key_of(count_u32(100, 899), opts);
  const std::string k2 = key_of(count_u32(0, 499), opts);
  const std::string k3 = key_of(QueryBuilder("facts")
                                    .filter_int("u32", 250, 750)
                                    .group_by("tag")
                                    .aggregate(AggOp::kSum, "wide64")
                                    .build(),
                                opts);
  ASSERT_FALSE(k1.empty());
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(k1, k3);

  // The prekey (request-level, pre-compile) agrees on grouping.
  EXPECT_EQ(scan_sharing_prekey(count_u32(100, 899)),
            scan_sharing_prekey(count_u32(0, 499)));

  // Different predicate column: different byte stream, different key.
  const std::string kw = key_of(QueryBuilder("facts")
                                    .filter_int("wide64", 0, 1'000'000)
                                    .aggregate(AggOp::kCount)
                                    .build(),
                                opts);
  EXPECT_FALSE(kw.empty());
  EXPECT_NE(k1, kw);

  // Multi-conjunct members group with each other, not with single-conjunct.
  const auto two = QueryBuilder("facts")
                       .filter_int("u32", 100, 899)
                       .filter_int("skew32", 0, 50)
                       .aggregate(AggOp::kCount)
                       .build();
  const std::string k_two = key_of(two, opts);
  EXPECT_FALSE(k_two.empty());
  EXPECT_NE(k_two, k1);

  // Ineligible shapes refuse a key entirely.
  EXPECT_TRUE(key_of(QueryBuilder("facts").aggregate(AggOp::kCount).build(),
                     opts)
                  .empty())
      << "no predicates = nothing to fuse";
  ExecOptions zone = opts;
  zone.use_zone_maps = true;
  EXPECT_TRUE(key_of(count_u32(100, 899), zone).empty())
      << "zone-map pruning reads different bytes per member";

  // Encoding visibility: packed vs plain stream different bytes, so the
  // keys must differ between use_encodings on and off.
  recode_all(cat, storage::Encoding::kBitPacked);
  ExecOptions plain = opts;
  plain.use_encodings = false;
  EXPECT_NE(key_of(count_u32(100, 899), opts),
            key_of(count_u32(100, 899), plain));
}

TEST(SharedScanParity, AnalyzeGroupsCompatibleMembersAndPricesThem) {
  storage::Catalog cat = make_catalog(5);
  const hw::MachineSpec machine = hw::MachineSpec::server();
  const ExecOptions opts;

  std::vector<PhysicalPlan> plans;
  auto add = [&](LogicalPlan plan) {
    plans.push_back(compile_plan(cat, plan, opts));
  };
  add(QueryBuilder("facts").filter_int("u32", 100, 899)
          .aggregate(AggOp::kCount).build());
  add(QueryBuilder("facts").filter_int("u32", 0, 499)
          .aggregate(AggOp::kSum, "wide64").build());
  add(QueryBuilder("facts").filter_int("u32", 250, 750)
          .group_by("tag").aggregate(AggOp::kCount).build());
  add(QueryBuilder("facts").filter_int("wide64", 0, 1'000'000)
          .aggregate(AggOp::kCount).build());  // different column
  add(QueryBuilder("facts").aggregate(AggOp::kCount).build());  // no preds

  std::vector<SharedBatchMember> batch;
  for (const PhysicalPlan& p : plans) batch.push_back({&p, &opts});

  const std::vector<ScanShareGroup> groups =
      analyze_scan_sharing(cat, machine, batch);
  std::size_t total = 0;
  const ScanShareGroup* big = nullptr;
  for (const ScanShareGroup& g : groups) {
    total += g.members.size();
    if (g.members.size() > 1) {
      EXPECT_EQ(big, nullptr) << "exactly one multi-member group expected";
      big = &g;
    }
  }
  EXPECT_EQ(total, plans.size()) << "every member lands in exactly one group";
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(big->members, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_FALSE(big->key.empty());
  EXPECT_GT(big->est_scan_bytes, 0.0);
  EXPECT_GT(big->est_independent_j, 0.0);
  EXPECT_GT(big->est_shared_j, 0.0);
}

// ---- 3. Cost-model sharing arm ----------------------------------------------

TEST(SharedScanParity, SharingArmApprovesAtScaleAndDeclinesTrivially) {
  const opt::CostModel model = opt::CostModel::defaults();
  const hw::MachineSpec machine = hw::MachineSpec::server();
  const hw::AcceleratorSpec pim = hw::AcceleratorSpec::pim();

  // 8 members over a 64 MiB fact column: the N-1 follower passes dwarf
  // the coordination overhead, sharing must win.
  const double big_bytes = 64.0 * 1024 * 1024;
  const double big_cycles = 16e6;
  const opt::ScanSharingChoice at_scale =
      model.pick_scan_sharing(machine, 8, big_bytes, big_cycles, pim);
  EXPECT_TRUE(at_scale.share);
  EXPECT_LT(at_scale.shared_j, at_scale.independent_j);

  // Independent arm scales linearly in members.
  const opt::ScanSharingChoice four =
      model.pick_scan_sharing(machine, 4, big_bytes, big_cycles, pim);
  EXPECT_NEAR(at_scale.independent_j, 2.0 * four.independent_j,
              1e-9 * at_scale.independent_j);

  // Degenerate inputs never share.
  EXPECT_FALSE(model.pick_scan_sharing(machine, 1, big_bytes, big_cycles, pim)
                   .share);
  EXPECT_FALSE(model.pick_scan_sharing(machine, 8, 0.0, big_cycles, pim)
                   .share);
}

// ---- 4. Fused group vs solo execution, across encodings × pools -------------

std::vector<LogicalPlan> compatible_queries() {
  std::vector<LogicalPlan> plans;
  plans.push_back(QueryBuilder("facts").filter_int("u32", 100, 899)
                      .aggregate(AggOp::kCount).build());
  plans.push_back(QueryBuilder("facts").filter_int("u32", 0, 499)
                      .aggregate(AggOp::kSum, "wide64").build());
  plans.push_back(QueryBuilder("facts").filter_int("u32", 250, 750)
                      .group_by("tag").aggregate(AggOp::kCount)
                      .aggregate(AggOp::kSum, "u32").build());
  plans.push_back(QueryBuilder("facts").filter_int("u32", 500, 998)
                      .aggregate(AggOp::kAvg, "d").build());
  plans.push_back(QueryBuilder("facts").filter_int("u32", 50, 949)
                      .aggregate(AggOp::kMin, "neg32")
                      .aggregate(AggOp::kMax, "neg32").build());
  plans.push_back(QueryBuilder("facts").filter_int("u32", 300, 600)
                      .join("dim", "u32", "key")
                      .aggregate(AggOp::kCount)
                      .aggregate(AggOp::kSum, "weight").build());
  // No chain: a filter pass and a group-key lookup feed the aggregate.
  plans.push_back(QueryBuilder("facts").filter_int("u32", 200, 900)
                      .join("udim", "u32", "ukey")
                      .group_by("udim.label").aggregate(AggOp::kCount)
                      .aggregate(AggOp::kSum, "d").build());
  plans.push_back(QueryBuilder("facts").filter_int("u32", 1, 200)
                      .select({"u32", "skew32"})
                      .order_by("skew32", /*ascending=*/false)
                      .limit(20).build());
  plans.push_back(QueryBuilder("facts").filter_int("u32", 400, 401)
                      .group_by("skew32").aggregate(AggOp::kCount).build());
  return plans;
}

TEST(SharedScanParity, FusedGroupMatchesSoloAcrossEncodingsAndPools) {
  const std::vector<LogicalPlan> logical = compatible_queries();
  const std::vector<std::pair<std::string,
                              std::optional<storage::Encoding>>> encodings = {
      {"auto", std::nullopt},
      {"plain", storage::Encoding::kPlain},
      {"bitpacked", storage::Encoding::kBitPacked},
      {"for", storage::Encoding::kForBitPacked},
  };

  for (const auto& [ename, enc] : encodings) {
    storage::Catalog cat = make_catalog(7);
    recode_all(cat, enc);
    for (std::size_t width : {std::size_t{0}, std::size_t{2}, std::size_t{8}}) {
      std::optional<sched::ThreadPool> pool;
      if (width > 0) pool.emplace(width);
      ExecOptions opts;
      opts.pool = pool ? &*pool : nullptr;
      // Let small inputs take the parallel paths too.
      opts.parallel_agg_min_rows = 1;
      opts.parallel_join_min_rows = 1;
      opts.parallel_sort_min_rows = 1;
      opts.parallel_project_min_rows = 1;
      const std::string label = ename + "/pool" + std::to_string(width);

      std::vector<PhysicalPlan> plans;
      for (const LogicalPlan& lp : logical)
        plans.push_back(compile_plan(cat, lp, opts));

      // Every member must carry the same non-empty sharing key — this is
      // the batch the service would actually fuse.
      const std::string key = scan_sharing_key(cat, plans[0], opts);
      ASSERT_FALSE(key.empty()) << label;
      for (const PhysicalPlan& p : plans)
        ASSERT_EQ(scan_sharing_key(cat, p, opts), key) << label;

      // Solo baseline.
      std::vector<QueryResult> want;
      for (const PhysicalPlan& p : plans) {
        Executor ex(cat);
        ExecStats st;
        want.push_back(ex.execute(p, st, opts));
      }

      // Fused.
      std::vector<SharedBatchMember> batch;
      for (const PhysicalPlan& p : plans) batch.push_back({&p, &opts});
      std::vector<SharedMemberOut> outs(batch.size());
      execute_shared_group(cat, batch, outs);

      for (std::size_t i = 0; i < outs.size(); ++i) {
        ASSERT_TRUE(outs[i].error.empty())
            << label << " member " << i << ": " << outs[i].error;
        expect_identical(want[i], outs[i].result,
                         label + " member " + std::to_string(i));
      }
    }
  }
}

// ---- 5. Charge-once ledger discipline ---------------------------------------

TEST(SharedScanParity, ScanBytesChargedOncePerGroup) {
  storage::Catalog cat = make_catalog(9);
  recode_all(cat, storage::Encoding::kPlain);  // B = 4 bytes/row, exactly.
  const ExecOptions opts;  // serial: byte accounting without pool noise

  constexpr std::size_t kMembers = 8;
  std::vector<PhysicalPlan> plans;
  for (std::size_t i = 0; i < kMembers; ++i) {
    // COUNT-only single-predicate members: the scan is the only DRAM
    // consumer, so the arithmetic below is exact.
    plans.push_back(compile_plan(
        cat,
        QueryBuilder("facts")
            .filter_int("u32", static_cast<std::int64_t>(i * 50),
                        static_cast<std::int64_t>(400 + i * 70))
            .aggregate(AggOp::kCount)
            .build(),
        opts));
  }

  // Solo: each member streams the u32 column once.
  std::vector<ExecStats> solo(kMembers);
  std::vector<QueryResult> want;
  for (std::size_t i = 0; i < kMembers; ++i) {
    Executor ex(cat);
    want.push_back(ex.execute(plans[i], solo[i], opts));
  }
  const double column_bytes =
      static_cast<double>(cat.get("facts").column("u32").byte_size());
  ASSERT_EQ(column_bytes, 4.0 * kRows);
  double solo_sum = 0;
  for (const ExecStats& st : solo) {
    EXPECT_GE(st.work.dram_bytes, column_bytes);
    solo_sum += st.work.dram_bytes;
  }

  // Fused: the group streams the column ONCE; every other charge is
  // unchanged, so the totals drop by exactly (N-1) column passes.
  std::vector<SharedBatchMember> batch;
  for (const PhysicalPlan& p : plans) batch.push_back({&p, &opts});
  std::vector<SharedMemberOut> outs(batch.size());
  execute_shared_group(cat, batch, outs);

  double fused_sum = 0;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    ASSERT_TRUE(outs[i].error.empty()) << outs[i].error;
    expect_identical(want[i], outs[i].result,
                     "charge-once member " + std::to_string(i));
    const ExecStats& st = outs[i].stats;
    fused_sum += st.work.dram_bytes;
    EXPECT_GT(st.work.dram_bytes, 0.0) << "member " << i
        << " must carry a fair share of the group charge";
    EXPECT_EQ(st.tuples_scanned, kRows) << "member " << i;
    // dram_bytes_saved tracks packed-vs-plain savings; under forced
    // kPlain there is no packed image, so the group adds none.
    EXPECT_DOUBLE_EQ(st.dram_bytes_saved, 0.0) << "member " << i;
    // Per-operator byte sums stay exact under the folded group share.
    double op_bytes = 0;
    for (const auto& op : st.operators) op_bytes += op.work.dram_bytes;
    EXPECT_NEAR(op_bytes, st.work.dram_bytes,
                1e-6 + 1e-9 * st.work.dram_bytes)
        << "member " << i;
  }
  const double expected_fused = solo_sum - (kMembers - 1) * column_bytes;
  EXPECT_NEAR(fused_sum, expected_fused, 1e-6 + 1e-9 * expected_fused)
      << "group must charge the scanned column exactly once";
}

// ---- 6. Database::run_batch end to end --------------------------------------

TEST(SharedScanParity, RunBatchFusesCompatibleQueriesEndToEnd) {
  core::Database db;
  // Large enough that the sharing arm approves: 8 × 1 MiB passes vs one
  // pass plus near-memory re-reads.
  constexpr std::size_t kBig = 1u << 18;
  storage::Table& t = db.create_table(
      "big", storage::Schema({{"v", storage::TypeId::kInt32},
                              {"g", storage::TypeId::kInt32}}));
  std::vector<std::int32_t> v(kBig), g(kBig);
  Pcg32 rng(21);
  for (std::size_t i = 0; i < kBig; ++i) {
    v[i] = static_cast<std::int32_t>(rng.next_bounded(10'000));
    g[i] = static_cast<std::int32_t>(rng.next_bounded(64));
  }
  t.set_column(0, storage::Column::from_int32("v", v));
  t.set_column(1, storage::Column::from_int32("g", g));

  constexpr std::size_t kMembers = 8;
  std::vector<core::BatchItem> items;
  for (std::size_t i = 0; i < kMembers; ++i) {
    core::BatchItem item;
    item.plan = QueryBuilder("big")
                    .filter_int("v", static_cast<std::int64_t>(i * 500),
                                static_cast<std::int64_t>(4000 + i * 600))
                    .aggregate(AggOp::kCount)
                    .build();
    items.push_back(std::move(item));
  }

  const std::vector<core::RunResult> runs = db.run_batch(items);
  ASSERT_EQ(runs.size(), kMembers);
  for (std::size_t i = 0; i < kMembers; ++i) {
    ASSERT_TRUE(runs[i].error.empty()) << runs[i].error;
    // One fused group spanning the whole batch, surfaced on every member.
    EXPECT_EQ(runs[i].shared_members, kMembers) << "member " << i;
    EXPECT_GT(runs[i].shared_group, 0u);
    EXPECT_EQ(runs[i].shared_group, runs[0].shared_group);
    EXPECT_GT(runs[i].attributed_j, 0.0);
    // Bit-identical to the solo path.
    const core::RunResult solo = db.run(items[i].plan, items[i].options);
    expect_identical(solo.result, runs[i].result,
                     "run_batch member " + std::to_string(i));
  }

  // The batch streams `v` once where 8 solo runs stream it 8 times.
  const double column_bytes = static_cast<double>(
      db.catalog().get("big").column("v").scan_byte_size());
  double batch_bytes = 0;
  for (const core::RunResult& r : runs) batch_bytes += r.stats.work.dram_bytes;
  double solo_bytes = 0;
  for (const core::BatchItem& item : items)
    solo_bytes += db.run(item.plan, item.options).stats.work.dram_bytes;
  EXPECT_NEAR(batch_bytes, solo_bytes - (kMembers - 1) * column_bytes,
              1e-6 + 1e-9 * solo_bytes);

  // An incompatible member rides the same batch solo, unfused, unharmed.
  std::vector<core::BatchItem> mixed = items;
  core::BatchItem odd;
  odd.plan = QueryBuilder("big")
                 .filter_int("g", 0, 31)
                 .aggregate(AggOp::kCount)
                 .build();
  mixed.push_back(std::move(odd));
  const std::vector<core::RunResult> mixed_runs = db.run_batch(mixed);
  ASSERT_EQ(mixed_runs.size(), kMembers + 1);
  EXPECT_EQ(mixed_runs.back().shared_members, 0u);
  ASSERT_TRUE(mixed_runs.back().error.empty()) << mixed_runs.back().error;
  const core::RunResult odd_solo =
      db.run(mixed.back().plan, mixed.back().options);
  expect_identical(odd_solo.result, mixed_runs.back().result, "odd member");
}

TEST(SharedScanParity, RunBatchReportsPerMemberErrorsWithoutPoisoning) {
  core::Database db;
  storage::Table& t = db.create_table(
      "s", storage::Schema({{"x", storage::TypeId::kInt64}}));
  std::vector<std::int64_t> x = {1, 2, 3, 4, 5};
  t.set_column(0, storage::Column::from_int64("x", x));

  std::vector<core::BatchItem> items(2);
  items[0].plan = QueryBuilder("s").filter_int("x", 2, 4)
                      .aggregate(AggOp::kCount).build();
  items[1].plan = QueryBuilder("s").filter_int("nope", 0, 1)
                      .aggregate(AggOp::kCount).build();
  const auto runs = db.run_batch(items);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_TRUE(runs[0].error.empty()) << runs[0].error;
  EXPECT_EQ(runs[0].result.row_count(), 1u);
  EXPECT_FALSE(runs[1].error.empty())
      << "unknown column must surface as a member error, not a throw";
}

}  // namespace
}  // namespace eidb::query
