#include "server/query_service.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "query/plan.hpp"
#include "util/rng.hpp"

namespace eidb::server {
namespace {

/// Database with one small table: queries stay sub-millisecond so the
/// concurrency tests hammer scheduling, not kernels.
class QueryServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage::Table& t = db_.create_table(
        "t", storage::Schema({{"id", storage::TypeId::kInt64},
                              {"val", storage::TypeId::kInt64}}));
    constexpr std::size_t kRows = 1000;
    Pcg32 rng(7);
    std::vector<std::int64_t> id(kRows), val(kRows);
    for (std::size_t i = 0; i < kRows; ++i) {
      id[i] = static_cast<std::int64_t>(i);
      val[i] = rng.next_bounded(100);
    }
    t.set_column(0, storage::Column::from_int64("id", id));
    t.set_column(1, storage::Column::from_int64("val", val));
  }

  /// One P-state per query: `resp` (the only query billed under `scope`)
  /// was billed the model energy at its granted state over its host busy
  /// time stretched to that state, and the rolling power monitor was fed
  /// that same settlement.
  void expect_billed_at_granted_state(const query::QueryResponse& resp,
                                      const std::string& scope) const {
    const hw::MachineSpec& m = db_.machine();
    const hw::DvfsState& state = m.dvfs.at_least(resp.governor_freq_ghz);
    ASSERT_DOUBLE_EQ(state.freq_ghz, resp.governor_freq_ghz);
    const energy::LedgerEntry booked = db_.ledger().total(scope);
    const double host_busy_s = resp.report.elapsed_s;  // no cold tier, no wire
    const double model_j = m.incremental_busy_energy_j(
        booked.work, state, host_busy_s * sched::slowdown(m, state));
    EXPECT_NEAR(resp.billed_j, model_j, 1e-9 * model_j);
    EXPECT_EQ(resp.policy_energy_j, resp.billed_j);
    EXPECT_EQ(booked.energy_j, resp.billed_j);
  }

  core::Database db_;
};

constexpr const char* kCountSql =
    "SELECT COUNT(*) FROM t WHERE val BETWEEN 0 AND 49";

TEST_F(QueryServiceTest, SqlRoundTrip) {
  QueryService service(db_);
  auto session = service.open_session("alice");
  const auto resp =
      service.execute(session, query::QueryRequest::from_sql(kCountSql));
  ASSERT_TRUE(resp.ok()) << resp.error;
  EXPECT_EQ(resp.result.row_count(), 1u);
  EXPECT_GT(resp.latency_s, 0.0);
  EXPECT_GE(resp.queue_s, 0.0);
  EXPECT_GT(resp.report.total_j(), 0.0);
  // Latency policy on the default governor: race to idle at f_max.
  EXPECT_EQ(resp.governor_policy, "race-to-idle");
  EXPECT_DOUBLE_EQ(resp.governor_freq_ghz,
                   db_.machine().dvfs.fastest().freq_ghz);
}

TEST_F(QueryServiceTest, PlanRequestAndTagEcho) {
  QueryService service(db_);
  auto session = service.open_session("alice");
  auto plan = query::QueryBuilder("t")
                  .filter_int("val", 10, 19)
                  .aggregate(query::AggOp::kCount)
                  .build();
  query::QueryRequest req = query::QueryRequest::from_plan(std::move(plan));
  req.tag = 42;
  const auto resp = service.execute(session, std::move(req));
  ASSERT_TRUE(resp.ok()) << resp.error;
  EXPECT_EQ(resp.tag, 42u);
}

TEST_F(QueryServiceTest, BadSqlReportsErrorNotCrash) {
  QueryService service(db_);
  auto session = service.open_session("alice");
  const auto resp = service.execute(
      session, query::QueryRequest::from_sql("SELECT FROM nothing"));
  EXPECT_EQ(resp.status, query::ResponseStatus::kError);
  EXPECT_FALSE(resp.error.empty());
  EXPECT_EQ(service.stats().errors, 1u);
  EXPECT_EQ(session->stats().errors, 1u);
}

TEST_F(QueryServiceTest, ZeroBudgetTenantIsRejected) {
  QueryService service(db_);
  service.set_tenant_budget("broke", {/*capacity_j=*/0, /*refill=*/0});
  auto session = service.open_session("broke");
  const auto resp =
      service.execute(session, query::QueryRequest::from_sql(kCountSql));
  EXPECT_EQ(resp.status, query::ResponseStatus::kRejected);
  EXPECT_EQ(service.stats().rejected, 1u);
  EXPECT_EQ(session->stats().rejected, 1u);
  EXPECT_EQ(service.stats().completed, 0u);
}

TEST_F(QueryServiceTest, MeasuredJoulesSettleTheTenantBudget) {
  QueryService service(db_);
  service.set_tenant_budget("alice", {/*capacity_j=*/1e6, /*refill=*/0});
  auto session = service.open_session("alice");
  double responses_billed = 0;
  for (int i = 0; i < 3; ++i) {
    const auto resp =
        service.execute(session, query::QueryRequest::from_sql(kCountSql));
    ASSERT_TRUE(resp.ok()) << resp.error;
    EXPECT_GT(resp.billed_j, 0.0);  // Clients can reconcile their bill.
    responses_billed += resp.billed_j;
  }
  const double billed = session->stats().energy_j;
  EXPECT_GT(billed, 0.0);
  EXPECT_NEAR(responses_billed, billed, 1e-9 + 1e-6 * billed);
  // The debit is the measured figure the database ledger recorded under
  // this tenant's scope — settlement equals metering.
  const double ledger_j = db_.ledger().total("alice").energy_j;
  EXPECT_NEAR(billed, ledger_j, 1e-9 + 1e-6 * ledger_j);
  EXPECT_NEAR(*service.admission().balance_j("alice", service.now_s()),
              1e6 - billed, 1e-9 + 1e-6 * ledger_j);
}

TEST_F(QueryServiceTest, ThroughputPolicyRunsAtEfficientState) {
  ServiceOptions opts;
  opts.policy = sched::Policy::kThroughput;
  opts.pace_execution = false;  // Assert the decision, skip the sleep.
  QueryService service(db_, opts);
  auto session = service.open_session("alice");
  const auto resp =
      service.execute(session, query::QueryRequest::from_sql(kCountSql));
  ASSERT_TRUE(resp.ok()) << resp.error;
  EXPECT_EQ(resp.governor_policy, "pace");
  EXPECT_LT(resp.governor_freq_ghz, db_.machine().dvfs.fastest().freq_ghz);
  expect_billed_at_granted_state(resp, "alice");
}

TEST_F(QueryServiceTest, EnergyCapBindsUnderTinyCap) {
  ServiceOptions opts;
  opts.policy = sched::Policy::kEnergyCap;
  opts.power_cap_w = 1.0;  // Below the idle floor: the cap always binds.
  opts.pace_execution = false;
  QueryService service(db_, opts);
  auto session = service.open_session("alice");
  const auto resp =
      service.execute(session, query::QueryRequest::from_sql(kCountSql));
  ASSERT_TRUE(resp.ok()) << resp.error;
  EXPECT_EQ(resp.governor_policy, "pace");
  EXPECT_LT(resp.governor_freq_ghz, db_.machine().dvfs.fastest().freq_ghz);
  EXPECT_GT(service.stats().peak_power_w, opts.power_cap_w);
  expect_billed_at_granted_state(resp, "alice");
}

TEST_F(QueryServiceTest, GenerousCapBehavesLikeLatencyPolicy) {
  ServiceOptions opts;
  opts.policy = sched::Policy::kEnergyCap;
  opts.power_cap_w = 1e6;
  QueryService service(db_, opts);
  auto session = service.open_session("alice");
  const auto resp =
      service.execute(session, query::QueryRequest::from_sql(kCountSql));
  ASSERT_TRUE(resp.ok()) << resp.error;
  EXPECT_DOUBLE_EQ(resp.governor_freq_ghz,
                   db_.machine().dvfs.fastest().freq_ghz);
  expect_billed_at_granted_state(resp, "alice");
}

TEST_F(QueryServiceTest, BudgetedQueryIsPacedAndBilledAtTheBudgetArmState) {
  QueryService service(db_);  // latency policy, pacing on
  auto session = service.open_session("alice");
  // Under the latency policy, a request's budget still decides: an
  // unmeetable one takes the minimum-energy state, a generous one the
  // budget arm's pick — each paced and billed there.
  query::QueryRequest probe = query::QueryRequest::from_sql(kCountSql);
  probe.energy_budget_j = 1e-12;
  const auto floor = service.execute(session, std::move(probe));
  ASSERT_TRUE(floor.ok()) << floor.error;
  EXPECT_EQ(floor.governor_policy, "budget-infeasible");
  EXPECT_LT(floor.governor_freq_ghz, db_.machine().dvfs.fastest().freq_ghz);
  const hw::MachineSpec& m = db_.machine();
  EXPECT_GE(floor.exec_s,
            floor.report.elapsed_s *
                sched::slowdown(m, m.dvfs.at_least(floor.governor_freq_ghz)) *
                (1 - 1e-9));
  expect_billed_at_granted_state(floor, "alice");

  auto budgeted_session = service.open_session("bob");
  query::QueryRequest req = query::QueryRequest::from_sql(kCountSql);
  req.energy_budget_j = 1e9;
  const auto generous = service.execute(budgeted_session, std::move(req));
  ASSERT_TRUE(generous.ok()) << generous.error;
  EXPECT_EQ(generous.governor_policy, "budget");
  EXPECT_LE(generous.predicted_j, 1e9);
  expect_billed_at_granted_state(generous, "bob");
}

TEST_F(QueryServiceTest, SubmitAfterStopIsShutdown) {
  QueryService service(db_);
  auto session = service.open_session("alice");
  service.stop();
  const auto resp =
      service.execute(session, query::QueryRequest::from_sql(kCountSql));
  EXPECT_EQ(resp.status, query::ResponseStatus::kShutdown);
}

TEST_F(QueryServiceTest, StopDrainsAdmittedQueries) {
  ServiceOptions opts;
  opts.coalesce_window_s = 0.02;
  QueryService service(db_, opts);
  auto session = service.open_session("alice");
  std::vector<std::future<query::QueryResponse>> futures;
  futures.reserve(20);
  for (int i = 0; i < 20; ++i)
    futures.push_back(
        service.submit(session, query::QueryRequest::from_sql(kCountSql)));
  service.stop();  // Graceful: everything admitted must still complete.
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(service.stats().completed, 20u);
}

TEST_F(QueryServiceTest, ConcurrentSessionsHammerOneService) {
  ServiceOptions opts;
  opts.workers = 4;
  QueryService service(db_, opts);
  constexpr int kClients = 4, kQueries = 25;
  std::vector<std::shared_ptr<Session>> sessions;
  sessions.reserve(kClients);
  for (int c = 0; c < kClients; ++c)
    sessions.push_back(service.open_session("tenant-" + std::to_string(c)));
  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0};
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&service, &ok_count, session = sessions[c]] {
      std::vector<std::future<query::QueryResponse>> futures;
      futures.reserve(kQueries);
      for (int q = 0; q < kQueries; ++q)
        futures.push_back(service.submit(
            session, query::QueryRequest::from_sql(kCountSql)));
      for (auto& f : futures)
        if (f.get().ok()) ok_count.fetch_add(1);
      EXPECT_EQ(session->stats().completed, static_cast<std::uint64_t>(kQueries));
    });
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok_count.load(), kClients * kQueries);
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kClients) * kQueries);
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kClients) * kQueries);
  EXPECT_EQ(s.errors, 0u);
  EXPECT_GE(s.batches, 1u);
  // Attribution stays per-tenant even under concurrency: what each session
  // was billed is exactly its ledger scope total — concurrent tenants must
  // not be charged for each other's work (the meter window would be).
  for (int c = 0; c < kClients; ++c) {
    const double scope_j =
        db_.ledger().total("tenant-" + std::to_string(c)).energy_j;
    EXPECT_GT(scope_j, 0.0);
    EXPECT_NEAR(sessions[c]->stats().energy_j, scope_j,
                1e-9 + 1e-6 * scope_j);
  }
}

TEST_F(QueryServiceTest, PacingStretchesThroughputExecution) {
  // The paced query sleeps its host busy time times (slowdown - 1) and is
  // billed over that same stretched time at its granted state. Only lower
  // bounds on wall time are asserted: sleeps never end early, but shared
  // CI hosts make upper bounds flaky.
  ServiceOptions opts;
  opts.policy = sched::Policy::kThroughput;
  opts.pace_execution = true;
  QueryService thr(db_, opts);
  auto ts = thr.open_session("a");
  const auto resp =
      thr.execute(ts, query::QueryRequest::from_sql(kCountSql));
  ASSERT_TRUE(resp.ok());
  const hw::MachineSpec& m = db_.machine();
  const hw::DvfsState& state = m.dvfs.at_least(resp.governor_freq_ghz);
  const double stretch = sched::slowdown(m, state);
  EXPECT_GT(stretch, 1.0);
  EXPECT_GE(resp.exec_s, resp.report.elapsed_s * stretch * (1 - 1e-9));
  expect_billed_at_granted_state(resp, "a");

  // The throughput policy's point: per host busy second, the paced state
  // bills fewer incremental joules than f_max would.
  const hw::Work work = db_.ledger().total("a").work;
  const double t = resp.report.elapsed_s;
  EXPECT_LT(m.incremental_busy_energy_j(work, state, t * stretch),
            m.incremental_busy_energy_j(work, m.dvfs.fastest(), t));
}

TEST(PacingSleep, OneStretchByTheLargestSlowdown) {
  const hw::MachineSpec m = hw::MachineSpec::server();
  std::vector<core::RunResult> runs(3);
  runs[0].stats.elapsed_s = 0.010;
  runs[0].governor.enabled = true;
  runs[0].governor.state = m.dvfs.fastest();
  runs[1].stats.elapsed_s = 0.030;
  runs[1].governor.enabled = true;
  runs[1].governor.state = m.dvfs.slowest();
  runs[2].stats.elapsed_s = 5.0;  // failed member: counts for nothing
  runs[2].error = "boom";
  const double stretch = sched::slowdown(m, m.dvfs.slowest());
  EXPECT_DOUBLE_EQ(pacing_sleep_s(m, runs), 0.040 * (stretch - 1.0));
  // All at f_max: no sleep.
  runs[1].governor.state = m.dvfs.fastest();
  EXPECT_DOUBLE_EQ(pacing_sleep_s(m, runs), 0.0);
}

}  // namespace
}  // namespace eidb::server
