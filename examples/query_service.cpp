// The serving tier, end to end: sessions, energy budgets, live policies.
//
// A QueryService wraps one Database and serves three tenants:
//   * "gold"   — generous joule budget, never throttled;
//   * "bronze" — tiny budget with a slow refill: admission control rejects
//                its queries once the measured joules exhaust the bucket;
//   * "batch"  — runs under the throughput policy in a second service to
//                show paced execution and coalesced wake-ups.
//
//   $ ./query_service
#include <cstdint>
#include <future>
#include <iostream>
#include <vector>

#include "core/database.hpp"
#include "query/request.hpp"
#include "server/query_service.hpp"
#include "util/rng.hpp"
#include "util/table_printer.hpp"

using namespace eidb;

namespace {

void load_events(core::Database& db, std::size_t rows) {
  storage::Table& t = db.create_table(
      "events", storage::Schema({{"id", storage::TypeId::kInt64},
                                 {"severity", storage::TypeId::kInt64},
                                 {"latency_us", storage::TypeId::kInt64}}));
  Pcg32 rng(11);
  std::vector<std::int64_t> id(rows), sev(rows), lat(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    id[i] = static_cast<std::int64_t>(i);
    sev[i] = rng.next_bounded(8);
    lat[i] = rng.next_bounded(1'000'000);
  }
  t.set_column(0, storage::Column::from_int64("id", id));
  t.set_column(1, storage::Column::from_int64("severity", sev));
  t.set_column(2, storage::Column::from_int64("latency_us", lat));
}

constexpr const char* kSql =
    "SELECT COUNT(*), MAX(latency_us) FROM events WHERE severity BETWEEN 6 "
    "AND 7";

}  // namespace

int main() {
  core::Database db;
  load_events(db, 500'000);

  // -- Tenants under one latency-policy service ------------------------------------
  server::QueryService service(db);
  service.set_tenant_budget("bronze", {/*capacity_j=*/0.05,
                                       /*refill_j_per_s=*/0.01});
  auto gold = service.open_session("gold");
  auto bronze = service.open_session("bronze");

  // One request in full first: the plan governor's decision (cores ×
  // P-state, race vs pace) plus predicted and attributed joules.
  std::cout << "== one request, governed ==\n";
  {
    const query::QueryResponse r =
        service.execute(gold, query::QueryRequest::from_sql(kSql));
    std::cout << "  " << kSql << "\n  governor: " << r.governor_cores
              << " cores x " << r.governor_freq_ghz << " GHz ("
              << (r.governor_policy.empty() ? "off" : r.governor_policy)
              << "), predicted " << r.predicted_j << " J, attributed "
              << r.billed_j << " J in " << r.exec_s << " s\n\n";
  }

  std::cout << "== per-tenant admission under energy budgets ==\n";
  TablePrinter tenants({"tenant", "submitted", "completed", "rejected",
                        "billed_J", "balance_J"});
  for (int i = 0; i < 8; ++i) {
    const auto gr = service.execute(gold, query::QueryRequest::from_sql(kSql));
    (void)service.execute(bronze, query::QueryRequest::from_sql(kSql));
    std::cout << "  gold request " << i << ": " << gr.governor_cores
              << " cores x " << gr.governor_freq_ghz << " GHz ("
              << gr.governor_policy << "), predicted " << gr.predicted_j
              << " J, attributed " << gr.billed_j << " J\n";
  }
  for (const auto& [name, session] :
       {std::pair{"gold", gold}, std::pair{"bronze", bronze}}) {
    const server::SessionStats s = session->stats();
    const auto balance =
        service.admission().balance_j(name, service.now_s());
    tenants.add_row({name, TablePrinter::fmt_int(static_cast<long long>(
                               s.submitted)),
                     TablePrinter::fmt_int(static_cast<long long>(s.completed)),
                     TablePrinter::fmt_int(static_cast<long long>(s.rejected)),
                     TablePrinter::fmt(s.energy_j, 4),
                     balance ? TablePrinter::fmt(*balance, 4) : "-"});
  }
  tenants.print(std::cout);
  std::cout << "(bronze's attributed joules drained its 0.05 J bucket; "
               "refill is 0.01 J/s, so it stays throttled until the balance "
               "recovers)\n\n";

  std::cout << "== who spent the joules? (ledger scopes) ==\n";
  for (const std::string& scope : db.ledger().scopes()) {
    const energy::LedgerEntry t = db.ledger().total(scope);
    std::cout << "  scope '" << (scope.empty() ? "<global>" : scope)
              << "': " << t.energy_j << " J over " << t.elapsed_s << " s\n";
  }
  service.stop();

  // -- Throughput policy: paced execution, coalesced wake-ups ------------------------
  std::cout << "\n== throughput policy: race-to-idle batching ==\n";
  server::ServiceOptions batch_opts;
  batch_opts.policy = sched::Policy::kThroughput;
  batch_opts.coalesce_window_s = 0.01;
  server::QueryService batcher(db, batch_opts);
  auto batch_session = batcher.open_session("batch");
  std::vector<std::future<query::QueryResponse>> futures;
  futures.reserve(16);
  for (int i = 0; i < 16; ++i)
    futures.push_back(
        batcher.submit(batch_session, query::QueryRequest::from_sql(kSql)));
  double paced_freq = 0;
  for (auto& f : futures) paced_freq = f.get().governor_freq_ghz;
  const server::ServiceStats bs = batcher.stats();
  std::cout << "  16 queries served in " << bs.batches
            << " wake-up(s); P-state " << paced_freq << " GHz (f_max "
            << db.machine().dvfs.fastest().freq_ghz
            << " GHz); billed energy " << bs.busy_j << " J\n";
  batcher.stop();

  std::cout << "\nmeter: " << energy::to_string(db.meter_source()) << "\n";
  return 0;
}
