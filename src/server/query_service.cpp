#include "server/query_service.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <utility>

#include "query/shared_scan.hpp"
#include "query/sql.hpp"

namespace eidb::server {

namespace {

/// Lock-free max for atomic<double> (no fetch_max for FP in C++20).
void atomic_max(std::atomic<double>& target, double value) {
  double cur = target.load(std::memory_order_relaxed);
  while (value > cur &&
         !target.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

double pacing_sleep_s(const hw::MachineSpec& machine,
                      const std::vector<core::RunResult>& runs) {
  double busy_s = 0;
  double slowdown = 1.0;
  for (const core::RunResult& run : runs) {
    if (!run.error.empty()) continue;
    busy_s += run.stats.elapsed_s;
    if (run.governor.enabled)
      slowdown =
          std::max(slowdown, sched::slowdown(machine, run.governor.state));
  }
  return busy_s * (slowdown - 1.0);
}

QueryService::QueryService(core::Database& db, ServiceOptions options)
    : db_(db),
      options_(options),
      admission_(options.admit_unknown_tenants),
      coalescer_(queue_, {options.coalesce_window_s, options.max_batch}),
      monitor_(options.power_window_s, db.machine().idle_power_w()),
      pool_(options.workers) {
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

QueryService::~QueryService() { stop(); }

std::shared_ptr<Session> QueryService::open_session(std::string tenant) {
  return std::make_shared<Session>(next_session_id_.fetch_add(1),
                                   std::move(tenant));
}

void QueryService::set_tenant_budget(const std::string& tenant,
                                     TenantBudget budget) {
  admission_.set_budget(tenant, budget, now_s());
}

std::future<query::QueryResponse> QueryService::submit(
    const std::shared_ptr<Session>& session, query::QueryRequest request) {
  submitted_.fetch_add(1);
  session->record_submit();

  std::promise<query::QueryResponse> promise;
  std::future<query::QueryResponse> future = promise.get_future();

  query::QueryResponse early;
  early.tag = request.tag;

  if (stopped_.load()) {
    early.status = query::ResponseStatus::kShutdown;
    early.error = "service stopped";
    promise.set_value(std::move(early));
    return future;
  }

  const double now = now_s();
  if (!admission_.try_admit(session->tenant(), now)) {
    rejected_.fetch_add(1);
    session->record_reject();
    early.status = query::ResponseStatus::kRejected;
    early.error = "tenant energy budget exhausted: " + session->tenant();
    promise.set_value(std::move(early));
    return future;
  }
  admitted_.fetch_add(1);

  PendingQuery pending{std::move(request), session, now, std::move(promise)};
  if (!queue_.push(std::move(pending))) {
    // Closed between the stopped_ check and the push: settle here.
    early.status = query::ResponseStatus::kShutdown;
    early.error = "service stopped";
    pending.promise.set_value(std::move(early));
  }
  return future;
}

query::QueryResponse QueryService::execute(
    const std::shared_ptr<Session>& session, query::QueryRequest request) {
  return submit(session, std::move(request)).get();
}

void QueryService::dispatcher_loop() {
  for (;;) {
    std::vector<PendingQuery> batch = coalescer_.next_batch();
    if (batch.empty()) return;  // Closed and drained.
    batches_.fetch_add(1);
    // shared_ptr keeps each promise alive inside the copyable
    // std::function the pool requires.
    std::vector<std::shared_ptr<PendingQuery>> items;
    items.reserve(batch.size());
    for (PendingQuery& item : batch)
      items.push_back(std::make_shared<PendingQuery>(std::move(item)));

    if (!options_.shared_scans || items.size() < 2) {
      for (const auto& item : items)
        pool_.submit([this, item] { execute_group({item}); });
      continue;
    }

    // Shared-scan pre-partition: parse each member's SQL once and bucket
    // by the request-level sharing key (FROM table + predicate columns).
    // Buckets of >= 2 become one group task — Database::run_batch then
    // re-checks compatibility on the *compiled* plans and its sharing arm
    // makes the final fuse/run-independent call. Everything else (no
    // predicates, parse failures, unique keys) dispatches independently.
    std::map<std::string, std::vector<std::shared_ptr<PendingQuery>>> buckets;
    std::vector<std::shared_ptr<PendingQuery>> solo;
    for (const auto& item : items) {
      if (!item->request.plan.has_value() && !item->request.sql.empty()) {
        try {
          item->request.plan = query::parse_sql(item->request.sql);
        } catch (...) {
          // Leave unparsed: execute_group reports the parse error.
        }
      }
      std::string key;
      if (item->request.plan.has_value())
        key = query::scan_sharing_prekey(*item->request.plan);
      if (key.empty())
        solo.push_back(item);
      else
        buckets[key].push_back(item);
    }
    for (auto& [key, members] : buckets) {
      if (members.size() < 2) {
        solo.push_back(members.front());
        continue;
      }
      pool_.submit(
          [this, members = std::move(members)] { execute_group(members); });
    }
    for (const auto& item : solo)
      pool_.submit([this, item] { execute_group({item}); });
  }
}

void QueryService::execute_group(
    const std::vector<std::shared_ptr<PendingQuery>>& items) {
  // One in-flight unit: a fused group's pass and its members' operator
  // pipelines share one core-grant slot. With k units executing
  // concurrently, each may fan out over at most width/k workers
  // (requested vs granted is surfaced in the response).
  const std::size_t inflight = inflight_.fetch_add(1) + 1;
  const std::size_t core_cap =
      std::max<std::size_t>(1, db_.pool().thread_count() / inflight);

  const double dispatch_s = now_s();
  const double power_before = monitor_.avg_power_w(dispatch_s);
  atomic_max(peak_power_w_, power_before);
  // The kEnergyCap check, once per unit; the plan governor decides each
  // member's P-state under the policy in force.
  const sched::Policy policy = sched::policy_in_force(
      options_.policy, power_before, options_.power_cap_w);

  // One result per member; members whose SQL fails to parse never reach
  // the engine.
  std::vector<core::RunResult> runs(items.size());
  std::vector<core::BatchItem> batch;
  std::vector<std::size_t> member;  // batch index -> items index
  for (std::size_t i = 0; i < items.size(); ++i) {
    const query::QueryRequest& request = items[i]->request;
    core::BatchItem bi;
    try {
      bi.plan = request.plan.has_value() ? *request.plan
                                         : query::parse_sql(request.sql);
    } catch (const std::exception& e) {
      runs[i].error = e.what();
      continue;
    }
    bi.options.ledger_scope = items[i]->session->scope();
    bi.options.exec.core_cap = core_cap;
    bi.options.exec.constraint = {request.deadline_s, request.energy_budget_j,
                                  policy};
    batch.push_back(std::move(bi));
    member.push_back(i);
  }
  try {
    std::vector<core::RunResult> done = db_.run_batch(batch);
    for (std::size_t k = 0; k < done.size(); ++k)
      runs[member[k]] = std::move(done[k]);
  } catch (const std::exception& e) {
    for (const std::size_t i : member) runs[i].error = e.what();
  }

  // Pace ONCE: the unit ran at host speed for everyone, so the stretch to
  // realize the granted P-states is shared, not paid per member.
  const double sleep_s = pacing_sleep_s(db_.machine(), runs);
  if (options_.pace_execution && sleep_s > 0)
    std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
  const double end_s = now_s();

  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::shared_ptr<PendingQuery>& item = items[i];
    core::RunResult& run = runs[i];
    query::QueryResponse resp;
    resp.tag = item->request.tag;
    resp.queue_s = dispatch_s - item->admit_s;
    resp.exec_s = end_s - dispatch_s;
    resp.latency_s = end_s - item->admit_s;
    if (!run.error.empty()) {
      resp.status = query::ResponseStatus::kError;
      resp.error = run.error;
      errors_.fetch_add(1);
      item->session->record_error();
      item->promise.set_value(std::move(resp));
      continue;
    }

    resp.result = std::move(run.result);
    resp.report = run.report;
    // The plan governor's decision — the state this query was paced and
    // billed at — so the client can reconcile the prediction against the
    // settlement.
    resp.governor_policy = run.governor.policy;
    resp.governor_cores = run.governor.cores;
    resp.governor_requested_cores = run.governor.requested_cores;
    resp.governor_freq_ghz = run.governor.state.freq_ghz;
    resp.predicted_j = run.governor.est_energy_j;
    resp.shared_group = run.shared_group;
    resp.shared_members = run.shared_members;

    // Settlement: debit the tenant with this query's *attributed* joules —
    // the same figure the database ledger recorded under this session's
    // scope (not the meter-window total: that is a whole-machine counter
    // and would bill concurrent tenants for each other's work). The
    // rolling power monitor is fed the same figure.
    resp.billed_j = run.attributed_j;
    resp.policy_energy_j = resp.billed_j;
    monitor_.add(end_s, resp.billed_j);
    admission_.debit(item->session->tenant(), resp.billed_j, end_s);
    item->session->record_complete(resp.billed_j);
    completed_.fetch_add(1);
    resp.status = query::ResponseStatus::kOk;
    item->promise.set_value(std::move(resp));
  }
  atomic_max(peak_power_w_, monitor_.avg_power_w(end_s));
  inflight_.fetch_sub(1);
}

void QueryService::stop() {
  stopped_.store(true);
  queue_.close();
  if (dispatcher_.joinable()) dispatcher_.join();
  pool_.wait_idle();
}

ServiceStats QueryService::stats() const {
  ServiceStats s;
  s.submitted = submitted_.load();
  s.admitted = admitted_.load();
  s.rejected = rejected_.load();
  s.completed = completed_.load();
  s.errors = errors_.load();
  s.batches = batches_.load();
  s.busy_j = monitor_.total_busy_j();
  s.avg_power_w = monitor_.avg_power_w(clock_.elapsed_seconds());
  s.peak_power_w = peak_power_w_.load();
  s.queue_depth = queue_.size();
  return s;
}

}  // namespace eidb::server
