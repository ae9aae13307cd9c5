// server::QueryService — the energy-aware concurrent serving tier.
//
// Turns the single-shot library (core::Database) into a servable engine.
// The pipeline per request:
//
//   submit ──> AdmissionController (per-tenant joule budgets)
//          ──> RequestQueue (admitted FIFO)
//          ──> BatchCoalescer (race-to-idle wake-up windows)
//          ──> dispatcher thread ──> sched::ThreadPool workers
//                 └─ the kEnergyCap check (sched::policy_in_force) reads
//                    the rolling average power (PowerMonitor); each query
//                    runs through core::Database::run_batch, whose plan
//                    governor picks cores × P-state under the policy in
//                    force and the request's deadline / energy budget;
//                    the settled bill debits the tenant and feeds the
//                    monitor.
//
// The three paper policies (sched/governor.hpp) apply to LIVE execution
// here and to the discrete-event StreamScheduler alike — both decide
// through sched::Governor::decide:
//   kLatency     dispatch immediately, race to idle at f_max;
//   kThroughput  coalesce into windows, pace at the efficient P-state;
//   kEnergyCap   kLatency until the rolling average power passes the cap,
//                then kThroughput.
// Sub-f_max P-states cannot be programmed into the host from user space,
// so the service *paces*: after a dispatched unit (a solo query or a fused
// shared-scan group) executes, it sleeps the host busy time times
// (sched::slowdown − 1) of the slowest granted state (opt-out via
// ServiceOptions::pace_execution), and each query is billed at its granted
// state over that same stretched busy time.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/database.hpp"
#include "query/request.hpp"
#include "sched/governor.hpp"
#include "sched/thread_pool.hpp"
#include "server/admission.hpp"
#include "server/batch_coalescer.hpp"
#include "server/power_monitor.hpp"
#include "server/request_queue.hpp"
#include "server/session.hpp"
#include "util/clock.hpp"

namespace eidb::server {

struct ServiceOptions {
  sched::Policy policy = sched::Policy::kLatency;
  /// Rolling average power cap in watts (kEnergyCap only).
  double power_cap_w = 0;
  /// Worker threads executing queries (0 = hardware concurrency).
  std::size_t workers = 0;
  /// Race-to-idle wake-up window; 0 dispatches per arrival. The default
  /// for kThroughput/kEnergyCap serving is set by the caller (see
  /// bench_s1_service for calibration on a live stream).
  double coalesce_window_s = 0;
  std::size_t max_batch = 64;
  /// Horizon of the rolling power estimate the cap policy consults.
  double power_window_s = 1.0;
  /// Stretch wall time to realize sub-f_max P-states (see file comment).
  bool pace_execution = true;
  /// Admit tenants with no configured budget (see AdmissionController).
  bool admit_unknown_tenants = true;
  /// Fuse compatible queries of one coalesced batch into a single shared
  /// pass over their fact table (see query/shared_scan.hpp): the batch is
  /// pre-partitioned by table + predicate columns, candidate groups are
  /// handed to core::Database::run_batch, and the engine's sharing arm
  /// makes the final fuse/run-independent call per group. Results are
  /// bit-identical either way; the fused table's scan DRAM bytes are
  /// charged once per group and billed_j reflects each member's share.
  bool shared_scans = true;
};

/// Point-in-time service counters.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  std::uint64_t batches = 0;  ///< Wake-ups: dispatched coalescing windows.
  double busy_j = 0;          ///< Billed joules served so far.
  double avg_power_w = 0;     ///< Rolling average power right now.
  double peak_power_w = 0;    ///< Highest rolling average observed.
  std::size_t queue_depth = 0;
};

/// Wall seconds a dispatched unit sleeps to realize its members' granted
/// P-states: one stretch, by the largest sched::slowdown among the
/// successful members, over their summed host busy seconds. Failed
/// members (non-empty error) count for nothing.
[[nodiscard]] double pacing_sleep_s(const hw::MachineSpec& machine,
                                    const std::vector<core::RunResult>& runs);

class QueryService {
 public:
  QueryService(core::Database& db, ServiceOptions options = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Opens a session for `tenant`. Sessions are cheap; one per client
  /// connection. Valid until the service is destroyed.
  [[nodiscard]] std::shared_ptr<Session> open_session(std::string tenant);

  /// Provisions `tenant`'s energy budget (effective immediately).
  void set_tenant_budget(const std::string& tenant, TenantBudget budget);

  /// Submits a request; the future resolves when the query completes (or
  /// is rejected/errored — inspect QueryResponse::status).
  [[nodiscard]] std::future<query::QueryResponse> submit(
      const std::shared_ptr<Session>& session, query::QueryRequest request);

  /// Convenience: submit and wait.
  [[nodiscard]] query::QueryResponse execute(
      const std::shared_ptr<Session>& session, query::QueryRequest request);

  /// Graceful shutdown: stops intake, drains admitted queries, joins all
  /// threads. Idempotent; the destructor calls it.
  void stop();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] AdmissionController& admission() { return admission_; }
  [[nodiscard]] core::Database& database() { return db_; }
  /// Seconds since service start (the clock admission/power run on).
  [[nodiscard]] double now_s() const { return clock_.elapsed_seconds(); }

 private:
  void dispatcher_loop();
  /// Runs one dispatched unit — a solo query (one member) or a shared-scan
  /// candidate group (members with equal request-level sharing keys) —
  /// through Database::run_batch as a single pool task, paces it once,
  /// and settles every member.
  void execute_group(
      const std::vector<std::shared_ptr<PendingQuery>>& items);

  core::Database& db_;
  ServiceOptions options_;
  AdmissionController admission_;
  RequestQueue queue_;
  BatchCoalescer coalescer_;
  PowerMonitor monitor_;
  sched::ThreadPool pool_;
  Stopwatch clock_;

  std::thread dispatcher_;
  std::atomic<bool> stopped_{false};

  std::atomic<std::uint64_t> next_session_id_{1};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<double> peak_power_w_{0};
  /// Queries (or fused groups) currently executing on the worker pool;
  /// each in-flight unit's governor core grant is clamped to its equal
  /// share of the engine pool (ExecOptions::core_cap) so a burst cannot
  /// collectively oversubscribe the machine.
  std::atomic<std::size_t> inflight_{0};
};

}  // namespace eidb::server
