// Serving-tier shared scans: a coalesced batch of compatible SQL queries
// is bucketed by request-level sharing key, fused through
// core::Database::run_batch, and every member's response surfaces the
// group id, its fair energy share, and the governor's requested-vs-granted
// core figures. Answers must be bit-identical with sharing on or off.

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "core/database.hpp"
#include "query/plan.hpp"
#include "query/request.hpp"
#include "server/query_service.hpp"
#include "storage/column.hpp"
#include "util/rng.hpp"

namespace eidb::server {
namespace {

/// Fact table big enough that the engine's sharing arm approves fusing
/// (one ~1 MiB pass plus near-memory re-reads beats 8 passes).
class SharedScanServiceTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kBig = 1u << 18;

  void SetUp() override {
    storage::Table& t = db_.create_table(
        "big", storage::Schema({{"v", storage::TypeId::kInt32},
                                {"g", storage::TypeId::kInt32}}));
    Pcg32 rng(33);
    v_.resize(kBig);
    std::vector<std::int32_t> g(kBig);
    for (std::size_t i = 0; i < kBig; ++i) {
      v_[i] = static_cast<std::int32_t>(rng.next_bounded(10'000));
      g[i] = static_cast<std::int32_t>(rng.next_bounded(64));
    }
    t.set_column(0, storage::Column::from_int32("v", v_));
    t.set_column(1, storage::Column::from_int32("g", g));
  }

  [[nodiscard]] static std::pair<std::int64_t, std::int64_t> bounds(
      std::size_t i) {
    return {static_cast<std::int64_t>(i * 500),
            static_cast<std::int64_t>(4000 + i * 600)};
  }

  [[nodiscard]] static std::string count_sql(std::size_t i) {
    const auto [lo, hi] = bounds(i);
    return "SELECT COUNT(*) FROM big WHERE v BETWEEN " + std::to_string(lo) +
           " AND " + std::to_string(hi);
  }

  [[nodiscard]] std::int64_t expected_count(std::size_t i) const {
    const auto [lo, hi] = bounds(i);
    std::int64_t n = 0;
    for (const std::int32_t x : v_)
      if (x >= lo && x <= hi) ++n;
    return n;
  }

  /// Submits the 8 compatible COUNT queries in one burst and waits.
  [[nodiscard]] std::vector<query::QueryResponse> run_burst(
      QueryService& service) {
    auto session = service.open_session("tenant");
    std::vector<std::future<query::QueryResponse>> futures;
    for (std::size_t i = 0; i < 8; ++i)
      futures.push_back(
          service.submit(session, query::QueryRequest::from_sql(count_sql(i))));
    std::vector<query::QueryResponse> responses;
    for (auto& f : futures) responses.push_back(f.get());
    return responses;
  }

  void expect_answers(const std::vector<query::QueryResponse>& responses) {
    ASSERT_EQ(responses.size(), 8u);
    for (std::size_t i = 0; i < responses.size(); ++i) {
      ASSERT_TRUE(responses[i].ok()) << i << ": " << responses[i].error;
      ASSERT_EQ(responses[i].result.row_count(), 1u) << i;
      EXPECT_EQ(responses[i].result.at(0, 0),
                storage::Value{expected_count(i)})
          << "query " << i;
      EXPECT_GT(responses[i].billed_j, 0.0) << i;
    }
  }

  core::Database db_;
  std::vector<std::int32_t> v_;
};

TEST_F(SharedScanServiceTest, CoalescedBatchFusesAndAnswersExactly) {
  ServiceOptions opts;
  // A wake-up window long enough that one burst of submissions lands in
  // one coalesced batch; pacing off so the test measures wiring, not
  // sleeps.
  opts.policy = sched::Policy::kThroughput;
  opts.coalesce_window_s = 0.25;
  opts.max_batch = 16;
  opts.workers = 2;
  opts.pace_execution = false;
  QueryService service(db_, opts);

  const auto responses = run_burst(service);
  expect_answers(responses);

  std::size_t fused = 0;
  for (const auto& resp : responses) {
    if (resp.shared_members >= 2) {
      ++fused;
      EXPECT_GT(resp.shared_group, 0u);
      EXPECT_LE(resp.shared_members, 8u);
    }
    // Requested-vs-granted core surfacing: the grant never exceeds the
    // ask, and both are real core counts whenever the governor ran.
    if (!resp.governor_policy.empty()) {
      EXPECT_GE(resp.governor_cores, 1);
      EXPECT_GE(resp.governor_requested_cores, resp.governor_cores);
    }
  }
  // The whole burst fits one wake-up window, so the batch must have fused
  // at least one multi-member group (the arm approves at this scale —
  // asserted directly in SharedScanParity.RunBatchFusesCompatibleQueries).
  EXPECT_GE(fused, 2u);
  EXPECT_EQ(service.stats().completed, 8u);
  EXPECT_EQ(service.stats().errors, 0u);
}

TEST_F(SharedScanServiceTest, FusedGroupPacesOnceAtItsGrantedState) {
  ServiceOptions opts;
  opts.policy = sched::Policy::kThroughput;
  opts.coalesce_window_s = 0.25;
  opts.max_batch = 16;
  opts.workers = 2;
  opts.pace_execution = true;
  QueryService service(db_, opts);

  const auto responses = run_burst(service);
  expect_answers(responses);
  const hw::MachineSpec& m = db_.machine();
  // Per fused group: every member ends at one time (one sleep for the
  // group), stretched at least by the members' summed host busy seconds
  // times the slowdown of their granted state.
  std::map<std::uint64_t, std::vector<const query::QueryResponse*>> groups;
  for (const auto& resp : responses) {
    EXPECT_EQ(resp.governor_policy, "pace");
    if (resp.shared_members >= 2) groups[resp.shared_group].push_back(&resp);
  }
  ASSERT_FALSE(groups.empty());
  for (const auto& [gid, members] : groups) {
    double busy_s = 0;
    for (const query::QueryResponse* r : members) {
      EXPECT_EQ(r->exec_s, members.front()->exec_s);
      busy_s += r->report.elapsed_s;
    }
    const double stretch = sched::slowdown(
        m, m.dvfs.at_least(members.front()->governor_freq_ghz));
    EXPECT_GT(stretch, 1.0);
    for (const query::QueryResponse* r : members)
      EXPECT_GE(r->exec_s, busy_s * stretch * (1 - 1e-9)) << "group " << gid;
  }
}

TEST_F(SharedScanServiceTest, SharingDisabledGivesIdenticalAnswersUnfused) {
  ServiceOptions opts;
  opts.policy = sched::Policy::kThroughput;
  opts.coalesce_window_s = 0.25;
  opts.max_batch = 16;
  opts.workers = 2;
  opts.pace_execution = false;
  opts.shared_scans = false;
  QueryService service(db_, opts);

  const auto responses = run_burst(service);
  expect_answers(responses);
  for (const auto& resp : responses)
    EXPECT_EQ(resp.shared_members, 0u) << "sharing was disabled";
}

TEST_F(SharedScanServiceTest, IncompatibleQueriesStaySoloInAFusedBatch) {
  ServiceOptions opts;
  opts.policy = sched::Policy::kThroughput;
  opts.coalesce_window_s = 0.25;
  opts.max_batch = 16;
  opts.workers = 2;
  opts.pace_execution = false;
  QueryService service(db_, opts);
  auto session = service.open_session("tenant");

  // Different predicate column: its bucket has one member, so it must run
  // the ordinary path even when its batch-mates fuse.
  auto solo_future = service.submit(
      session, query::QueryRequest::from_sql(
                   "SELECT COUNT(*) FROM big WHERE g BETWEEN 0 AND 31"));
  std::vector<std::future<query::QueryResponse>> futures;
  for (std::size_t i = 0; i < 4; ++i)
    futures.push_back(
        service.submit(session, query::QueryRequest::from_sql(count_sql(i))));

  const query::QueryResponse solo = solo_future.get();
  ASSERT_TRUE(solo.ok()) << solo.error;
  EXPECT_EQ(solo.shared_members, 0u);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto resp = futures[i].get();
    ASSERT_TRUE(resp.ok()) << resp.error;
    EXPECT_EQ(resp.result.at(0, 0), storage::Value{expected_count(i)});
  }
}

TEST_F(SharedScanServiceTest, CoreCapClampsGovernorGrantNotItsRequest) {
  // Database-level check of the serving clamp: with core_cap = 1 the
  // governor may still *request* a fan-out, but the grant is pinned.
  core::RunOptions ro;
  ro.exec.core_cap = 1;
  const auto plan = query::QueryBuilder("big")
                        .filter_int("v", 0, 7'000)
                        .group_by("g")
                        .aggregate(query::AggOp::kCount)
                        .build();
  const core::RunResult run = db_.run(plan, ro);
  ASSERT_TRUE(run.governor.enabled);
  EXPECT_EQ(run.governor.cores, 1);
  EXPECT_GE(run.governor.requested_cores, run.governor.cores);

  // Uncapped, request and grant agree.
  const core::RunResult free_run = db_.run(plan, {});
  ASSERT_TRUE(free_run.governor.enabled);
  EXPECT_EQ(free_run.governor.cores, free_run.governor.requested_cores);
  EXPECT_GE(free_run.governor.requested_cores, run.governor.requested_cores);
}

}  // namespace
}  // namespace eidb::server
