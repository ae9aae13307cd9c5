// servebench — drives eidb the way its users do: SQL text submitted to
// server::QueryService by one client thread, in closed loops.
//
//   servebench --workload <scan_agg|star_join>
//              --seed <n> --seconds <s> --trace <0|1>
//              [--rows <fact rows>] [--trace-out <file>]
//              [--source-id <text>] [--corrupt-oracle]
//
// Untraced (--trace 0): kSetups engines are built one after another
// (the median of their set-up times is setup_s); after each set-up,
// whole passes of the workload's seeded sequence run on that engine for
// an equal share of --seconds of measured wall time. The last stdout
// line is the result JSON with the end-to-end metrics.
//
// Traced (--trace 1): the same over half the seconds (the baseline for
// the tracing overhead), then a traced half on the last engine that
// replays the same passes with spans around the benchmark's calls into
// each layer. The last stdout line carries the per-layer metrics.
//
// Every answer is checked, outside the timed region, against the
// oracle's tables built while generating; a mismatch is a failed
// operation.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <future>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/database.hpp"
#include "dataset.hpp"
#include "energy/report.hpp"
#include "query/executor.hpp"
#include "query/physical_plan.hpp"
#include "query/plan_governor.hpp"
#include "query/sql.hpp"
#include "server/query_service.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace {

using namespace servebench;
namespace core = eidb::core;
namespace query = eidb::query;
namespace server = eidb::server;

constexpr std::size_t kEngineWorkers = 2;
constexpr int kSetups = 3;
constexpr const char* kTenant = "bench";
constexpr const char* kTracedTenant = "bench-traced";
constexpr const char* kDirectScope = "bench-direct";
#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// -- Host measurements --------------------------------------------------------

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Machine-wide hypervisor steal seconds so far (/proc/stat, all CPUs).
double steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  for (double& x : v) in >> x;
  return in ? v[7] / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0.0;
}

/// Resets the peak-RSS high-water mark. Throws when the kernel refuses:
/// the mark would then hold the generator's and earlier engines' peaks,
/// not the measured phase's.
void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  if (!out) throw std::runtime_error("cannot reset the peak-RSS mark (/proc/self/clear_refs)");
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB → MiB
  return 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// -- Arguments ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::size_t rows = 4'000'000;
  std::string trace_out;
  std::string source_id = "unknown";
  bool corrupt_oracle = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-oracle") {
      a.corrupt_oracle = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--rows") {
      a.rows = std::stoull(value);
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--source-id") {
      a.source_id = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  if (a.rows < 1000) throw std::invalid_argument("--rows must be >= 1000");
  return a;
}

// -- Engine under test ---------------------------------------------------------

/// One set-up: the database, its service and the client's sessions.
/// Members destroy in reverse order, so the service stops before the
/// database it serves goes away.
struct Engine {
  explicit Engine(const core::DatabaseOptions& options) : db(options) {}
  core::Database db;
  IngestStats ingest;
  std::unique_ptr<server::QueryService> service;
  std::shared_ptr<server::Session> session;
};

/// What the client saw for one query.
struct Observed {
  double submit_start = 0, submit_end = 0, ready = 0;
  query::QueryResponse response;
};

/// Submits one query and waits for its answer.
Observed run_query(server::QueryService& service,
                   const std::shared_ptr<server::Session>& session, const Query& q) {
  Observed o;
  o.submit_start = now_s();
  std::future<query::QueryResponse> future =
      service.submit(session, query::QueryRequest::from_sql(q.sql));
  o.submit_end = now_s();
  o.response = future.get();
  o.ready = now_s();
  return o;
}

/// Answers checked so far.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Counts one answer (null `result` = the call failed with `error`);
  /// the first few mismatches go to stderr.
  bool check(const Query& q, const query::QueryResult* result,
             const std::string& error) {
    ++attempted;
    const bool ok = result != nullptr && matches(*result, q.expected);
    if (!ok && ++failed <= 3)
      std::cerr << "mismatch: " << q.sql << "\n"
                << (result != nullptr ? result->to_string() : error) << "\n";
    return ok;
  }
  bool check(const Query& q, const query::QueryResponse& r) {
    return check(q, r.ok() ? &r.result : nullptr, r.error);
  }
};

std::unique_ptr<Engine> set_up(const Dataset& data, const Workload& w,
                               Tally& tally) {
  core::DatabaseOptions options;
  options.worker_threads = kEngineWorkers;
  auto engine = std::make_unique<Engine>(options);
  engine->ingest = ingest(engine->db, data);
  engine->service = std::make_unique<server::QueryService>(engine->db, w.service);
  engine->session = engine->service->open_session(kTenant);
  auto warmup = engine->service->open_session("warmup");
  for (const Query& q : w.warmup)
    tally.check(q, run_query(*engine->service, warmup, q).response);
  return engine;
}

// -- Untraced measured phase ------------------------------------------------------

/// Totals over whole passes: one pass, a window of consecutive passes,
/// or the whole measured phase.
struct Window {
  std::uint64_t ok = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double billed_j = 0;
  double dram_bytes = 0;  ///< Ledger DRAM bytes, rounded per pass.
  std::vector<double> latency_s;  ///< Per OK response.

  void add(const Window& w) {
    ok += w.ok;
    wall_s += w.wall_s;
    cpu_s += w.cpu_s;
    billed_j += w.billed_j;
    dram_bytes += w.dram_bytes;
    latency_s.insert(latency_s.end(), w.latency_s.begin(), w.latency_s.end());
  }
};

/// p50 and p90 are computed per window of consecutive passes holding at
/// least this many OK responses, and the median over windows is
/// reported. Host interference here comes in bursts (hypervisor steal of
/// several seconds within a 20 s run), and a whole-phase percentile
/// absorbs them: p90's spread over five runs was 0.26 whole-phase and
/// 0.14 windowed. 100 responses keep a window's p90 a real percentile.
/// Every other end-to-end metric is a sum over the whole measured phase
/// divided by another, so any cost the program pays counts in full.
constexpr std::uint64_t kWindowResponses = 100;

struct Measured {
  std::vector<Window> passes;
  double cycles = 0;
  double peak_rss_mb = 0;
  double steal_s = 0;

  [[nodiscard]] Window total() const {
    Window t;
    for (const Window& p : passes) t.add(p);
    return t;
  }

  /// Whole consecutive passes grouped into windows of at least
  /// kWindowResponses OK responses; a short tail joins the last window.
  [[nodiscard]] std::vector<Window> windows() const {
    std::vector<Window> out;
    Window open;
    for (const Window& p : passes) {
      open.add(p);
      if (open.ok >= kWindowResponses) out.push_back(std::exchange(open, Window{}));
    }
    if (out.empty())
      out.push_back(std::move(open));
    else
      out.back().add(open);
    return out;
  }
};

/// Runs whole passes on `e` until `seconds` more of measured wall time,
/// adding them to `m`. Answer checks happen between passes, outside the
/// measured wall and CPU time.
void measure(Engine& e, const Workload& w, double seconds, Tally& tally, Measured& m) {
  const double cycles0 = e.db.ledger().total(kTenant).work.cpu_cycles;
  reset_peak_rss();
  const double steal0 = steal_seconds();
  double wall_s = 0;
  for (bool first = true; first || wall_s < seconds; first = false) {
    std::vector<Observed> seen;
    seen.reserve(w.pass.size());
    const double dram0 = e.db.ledger().total(kTenant).work.dram_bytes;
    const double cpu0 = cpu_seconds();
    const double t0 = now_s();
    for (const Query& q : w.pass) seen.push_back(run_query(*e.service, e.session, q));
    Window pass;
    pass.wall_s = now_s() - t0;
    pass.cpu_s = cpu_seconds() - cpu0;
    // The running ledger total is a double; whole bytes per pass repeat
    // exactly from run to run.
    pass.dram_bytes = std::round(e.db.ledger().total(kTenant).work.dram_bytes - dram0);
    wall_s += pass.wall_s;
    for (std::size_t i = 0; i < w.pass.size(); ++i) {
      const Observed& o = seen[i];
      if (!tally.check(w.pass[i], o.response)) continue;
      ++pass.ok;
      pass.latency_s.push_back(o.ready - o.submit_start);
      pass.billed_j += o.response.billed_j;
    }
    m.passes.push_back(std::move(pass));
  }
  m.steal_s += steal_seconds() - steal0;
  m.peak_rss_mb = std::max(m.peak_rss_mb, peak_rss_mb());
  m.cycles += e.db.ledger().total(kTenant).work.cpu_cycles - cycles0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  const char* kind = "";  ///< "m" host-measured, "mod" modelled (end-to-end only).
};

std::vector<Metric> end_to_end(const Measured& m, double setup_s) {
  const Window t = m.total();
  const double ok = std::max<double>(1.0, static_cast<double>(t.ok));
  std::vector<double> p50, p90;
  for (const Window& w : m.windows()) {
    p50.push_back(percentile(w.latency_s, 0.5) * 1e3);
    p90.push_back(percentile(w.latency_s, 0.9) * 1e3);
  }
  return {
      {"qps", static_cast<double>(t.ok) / t.wall_s, "1/s", "m"},
      {"p50_ms", median(std::move(p50)), "ms", "m"},
      {"p90_ms", median(std::move(p90)), "ms", "m"},
      {"j_per_query", t.billed_j / ok, "J", "mod"},
      {"dram_mb_per_query", t.dram_bytes / ok / 1e6, "MB", "mod"},
      {"cpu_ms_per_query", t.cpu_s / ok * 1e3, "ms", "m"},
      {"peak_rss_mb", m.peak_rss_mb, "MB", "m"},
      {"setup_s", setup_s, "s", "m"},
  };
}

// -- Traced phase ------------------------------------------------------------------

/// Per-layer sums over the traced phase's OK queries.
struct LayerSums {
  std::uint64_t queries = 0;
  double submit_s = 0, queue_s = 0, handoff_s = 0, exec_overhead_s = 0;
  double parse_s = 0, compile_s = 0, execute_s = 0;
  std::map<std::string, double> kind_s, kind_bytes;  // operator split
  double tuples_scanned = 0;
  double run_s = 0, run_overhead_s = 0;
  double granted_cores = 0;
  double policy_j = 0, prediction_error = 0;
  double dram_saved_bytes = 0;
  std::vector<double> latency_s;
  double billed_j = 0;
  double service_wall_s = 0;
};

/// Records one ExecStats' operators as children of `parent`, laid out
/// back to back from `start`, and folds them into the operator split.
void add_operator_spans(Trace& trace, const query::ExecStats& stats,
                        double start, int parent, std::uint64_t request,
                        LayerSums* sums) {
  double t = start;
  for (const query::OperatorStats& op : stats.operators) {
    query::OperatorKind k = query::classify_operator(op.name);
    // classify_operator leaves "group-aggregate" in kOther; count it as
    // the aggregate it is.
    if (k == query::OperatorKind::kOther &&
        op.name.find("aggregate") != std::string::npos)
      k = query::OperatorKind::kAggregate;
    const std::string kind(query::operator_kind_name(k));
    trace.add("query.op." + kind, t, t + op.seconds, parent, request);
    t += op.seconds;
    if (sums != nullptr) {
      sums->kind_s[kind] += op.seconds;
      sums->kind_bytes[kind] += op.work.dram_bytes;
    }
  }
}

/// Replays whole passes with spans until `seconds` of traced wall time.
LayerSums traced(Engine& e, const Workload& w, double seconds, Trace& trace,
                 Tally& tally) {
  LayerSums sums;
  auto session = e.service->open_session(kTracedTenant);
  query::ExecOptions exec;
  exec.pool = &e.db.pool();
  exec.cost_model = &e.db.cost_model();
  exec.governor = &e.db.governor();
  exec.calibration = &e.db.calibration();
  core::RunOptions direct;
  direct.ledger_scope = kDirectScope;

  std::uint64_t request = 0;
  double traced_wall = 0;
  while (request == 0 || traced_wall < seconds) {
    const double pass_start = now_s();
    for (const Query& q : w.pass) {
      ++request;
      const double start = now_s();
      const int root = trace.add("bench.request", start, start, -1, request);

      // 1. Through the service, as the untraced run does.
      const Observed o = run_query(*e.service, session, q);
      const query::QueryResponse& r = o.response;
      const int req = trace.add("server.request", o.submit_start, o.ready, root, request);
      trace.add("server.submit", o.submit_start, o.submit_end, req, request);
      const int wait = trace.add("server.wait", o.submit_end, o.ready, req, request);
      const double dispatch = o.submit_end + r.queue_s;
      trace.add("server.queue", o.submit_end, dispatch, wait, request);
      const int ex = trace.add("server.exec", dispatch, dispatch + r.exec_s, wait, request);
      trace.add("core.engine", dispatch, dispatch + r.report.elapsed_s, ex, request);
      sums.service_wall_s += o.ready - start;
      if (tally.check(q, r)) {
        ++sums.queries;
        sums.latency_s.push_back(o.ready - o.submit_start);
        sums.billed_j += r.billed_j;
        sums.submit_s += o.submit_end - o.submit_start;
        sums.queue_s += r.queue_s;
        sums.handoff_s += (o.ready - o.submit_start) - r.latency_s;
        sums.exec_overhead_s += r.exec_s - r.report.elapsed_s;
        sums.granted_cores += r.governor_cores;
        sums.policy_j += r.policy_energy_j;
        if (r.billed_j > 0)
          sums.prediction_error += std::abs(r.predicted_j - r.billed_j) / r.billed_j;
      }

      // 2. The same SQL through each layer directly.
      double t0 = now_s();
      const query::LogicalPlan plan = query::parse_sql(q.sql);
      double t1 = now_s();
      trace.add("query.parse", t0, t1, root, request);
      sums.parse_s += t1 - t0;

      t0 = now_s();
      const query::PhysicalPlan phys = query::compile_plan(e.db.catalog(), plan, exec);
      t1 = now_s();
      trace.add("query.compile", t0, t1, root, request);
      sums.compile_s += t1 - t0;

      query::Executor executor(e.db.catalog());
      query::ExecStats stats;
      t0 = now_s();
      const query::QueryResult result = executor.execute(phys, stats, exec);
      t1 = now_s();
      const int x = trace.add("query.execute", t0, t1, root, request);
      add_operator_spans(trace, stats, t0, x, request, nullptr);
      sums.execute_s += t1 - t0;
      tally.check(q, &result, "");

      t0 = now_s();
      const core::RunResult run = e.db.run(plan, direct);
      t1 = now_s();
      const int run_span = trace.add("core.run", t0, t1, root, request);
      const int xs = trace.add("core.exec", t0, t0 + run.stats.elapsed_s, run_span, request);
      add_operator_spans(trace, run.stats, t0, xs, request, &sums);
      tally.check(q, run.error.empty() ? &run.result : nullptr, run.error);
      sums.run_s += t1 - t0;
      sums.run_overhead_s += (t1 - t0) - run.stats.elapsed_s;
      sums.tuples_scanned += static_cast<double>(run.stats.tuples_scanned);
      sums.dram_saved_bytes += run.stats.dram_bytes_saved;
      trace.close(root, now_s());
    }
    traced_wall += now_s() - pass_start;
  }
  return sums;
}

// -- Output --------------------------------------------------------------------------

std::string json_number(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

void print_result(bool correct, const Tally& tally, const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << json_number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

void corrupt(Expected& e) {
  if (e.rows.empty()) {
    e.rows.push_back({eidb::storage::Value(std::int64_t{-1})});
    return;
  }
  std::size_t row = 0, col = 0;
  if (e.mode == Expected::Mode::kTopDesc) {
    col = e.column;
    for (std::size_t r = 1; r < e.rows.size(); ++r)
      if (e.rows[r][col].as_int() > e.rows[row][col].as_int()) row = r;
  }
  eidb::storage::Value& v = e.rows[row][col];
  v = v.is_int() ? eidb::storage::Value(v.as_int() + 1)
                 : eidb::storage::Value(v.to_string() + "?");
}

int run(const Args& args) {
  std::cout << "servebench workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << (args.trace ? 1 : 0)
            << " rows=" << args.rows << "\n";

  // Set-up and measurement alternate: each of the kSetups engines is
  // built from freshly generated columns, timed, and then measured for an
  // equal share of the untraced seconds. Thread placement and allocation
  // layout are fixed for an engine's lifetime (median latency of engines
  // within one run was seen to differ by up to 15 %); spreading the
  // measured phase over several engines averages them.
  std::optional<Workload> w;
  double user_bytes = 0;
  Tally tally;
  Measured m;
  std::vector<double> setup_s, ingest_int_s, ingest_string_s;
  std::unique_ptr<Engine> engine;
  const double seconds = args.trace ? args.seconds / 2 : args.seconds;
  for (int r = 0; r < kSetups; ++r) {
    engine.reset();  // one engine's memory at a time
    Dataset data = generate(args.seed, args.rows);
    if (!w) {
      w = make_workload(args.workload, args.seed, data.answers);
      if (args.corrupt_oracle) corrupt(w->pass.front().expected);
      user_bytes = data.user_bytes;
    }
    const double t0 = now_s();
    engine = set_up(data, *w, tally);
    setup_s.push_back(now_s() - t0);
    ingest_int_s.push_back(engine->ingest.int_s);
    ingest_string_s.push_back(engine->ingest.string_s);
    data.release_columns();
    malloc_trim(0);  // hand the freed generator and set-up memory back first
    measure(*engine, *w, seconds / kSetups, tally, m);
  }
  const std::vector<Metric> e2e = end_to_end(m, median(setup_s));
  const Window total = m.total();

  std::cout << "stamp {\"source\": \"" << args.source_id << "\", \"compiler\": \""
            << kCompiler << "\", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
            << ", \"meter\": \"" << eidb::energy::to_string(engine->db.meter_source())
            << "\", \"engine_workers\": " << engine->db.pool().thread_count()
            << ", \"service_workers\": " << w->service.workers
            << ", \"steal_s\": " << std::fixed << std::setprecision(2) << m.steal_s
            << std::defaultfloat << std::setprecision(6) << "}\n";
  std::cout << "measured: passes=" << m.passes.size() << " windows=" << m.windows().size()
            << " ok=" << total.ok << " wall_s=" << total.wall_s << "\n";
  for (const Metric& x : e2e)
    std::cout << "  " << std::left << std::setw(20) << x.name << std::setw(14)
              << x.value << x.unit << " (" << x.kind << ")\n";
  std::cout << "  p99_ms (info)       " << percentile(total.latency_s, 0.99) * 1e3
            << " ms over " << total.latency_s.size() << " samples\n";

  if (!args.trace) {
    std::cout << "attempted=" << tally.attempted << " failed=" << tally.failed << "\n";
    print_result(tally.failed == 0, tally, e2e);
    return 0;
  }

  Trace trace;
  const LayerSums s = traced(*engine, *w, args.seconds - seconds, trace, tally);
  const double q = std::max<double>(1.0, static_cast<double>(s.queries));
  const double ok = std::max<double>(1.0, static_cast<double>(total.ok));
  auto kind_s = [&](const char* k) {
    auto it = s.kind_s.find(k);
    return it == s.kind_s.end() ? 0.0 : it->second / q;
  };
  auto kind_mb = [&](const char* k) {
    auto it = s.kind_bytes.find(k);
    return it == s.kind_bytes.end() ? 0.0 : it->second / q / 1e6;
  };
  const std::vector<Metric> layers = {
      {"server.submit_us", s.submit_s / q * 1e6, "us"},
      {"server.queue_ms", s.queue_s / q * 1e3, "ms"},
      {"server.handoff_us", s.handoff_s / q * 1e6, "us"},
      {"server.exec_overhead_us", s.exec_overhead_s / q * 1e6, "us"},
      {"query.parse_us", s.parse_s / q * 1e6, "us"},
      {"query.compile_us", s.compile_s / q * 1e6, "us"},
      {"query.execute_ms", s.execute_s / q * 1e3, "ms"},
      {"query.scan_ms", kind_s("scan") * 1e3, "ms"},
      {"query.scan_mb", kind_mb("scan"), "MB"},
      {"query.aggregate_ms", kind_s("aggregate") * 1e3, "ms"},
      {"query.aggregate_mb", kind_mb("aggregate"), "MB"},
      {"query.join_ms", kind_s("join") * 1e3, "ms"},
      {"query.join_mb", kind_mb("join"), "MB"},
      {"query.sort_ms", kind_s("sort") * 1e3, "ms"},
      {"query.materialize_ms", kind_s("materialize") * 1e3, "ms"},
      {"query.tuples_scanned_m", s.tuples_scanned / q / 1e6, "Mtuples"},
      {"core.run_ms", s.run_s / q * 1e3, "ms"},
      {"core.overhead_us", s.run_overhead_s / q * 1e6, "us"},
      {"sched.granted_cores", s.granted_cores / q, "cores"},
      {"sched.cpu_per_wall", total.cpu_s / total.wall_s, "ratio"},
      {"energy.policy_j", s.policy_j / q, "J"},
      {"energy.prediction_error", s.prediction_error / q, "ratio"},
      {"energy.cycles_g", m.cycles / ok / 1e9, "Gcycles"},
      {"storage.ingest_int_s", median(ingest_int_s), "s"},
      {"storage.ingest_string_s", median(ingest_string_s), "s"},
      {"storage.stored_bytes_per_user_byte", engine->ingest.stored_bytes / user_bytes, "ratio"},
      {"storage.dram_saved_mb", s.dram_saved_bytes / q / 1e6, "MB"},
  };
  std::cout << "traced: requests=" << s.queries << " spans=" << trace.spans().size() << "\n";
  for (const Metric& x : layers)
    std::cout << "  " << std::left << std::setw(36) << x.name << std::setw(14)
              << x.value << x.unit << "\n";

  // Self time per span name, then per layer (the name up to its first
  // '.'); shares are of the traced wall, which runs every query through
  // the service, the executor and the database in turn.
  const auto by_name = trace.self_seconds_by_name();
  double traced_total = 0;
  std::map<std::string, double> by_layer;
  for (const auto& [name, sec] : by_name) {
    traced_total += sec;
    by_layer[name.substr(0, name.find('.'))] += sec;
  }
  auto print_self = [&](const char* title, const std::map<std::string, double>& table) {
    std::cout << "self time per " << title << " (ms per query, share of traced wall):\n";
    for (const auto& [name, sec] : table)
      std::cout << "  " << std::left << std::setw(24) << name << std::setw(14)
                << sec / q * 1e3 << 100.0 * sec / traced_total << " %\n";
  };
  print_self("span", by_name);
  print_self("layer", by_layer);

  // Tracing overhead: the traced half's service path against the
  // untraced half (same passes, same engine).
  const double traced_qps = static_cast<double>(s.queries) / s.service_wall_s;
  std::cout << "tracing overhead (traced - untraced): p50_ms "
            << (percentile(s.latency_s, 0.5) - percentile(total.latency_s, 0.5)) * 1e3
            << ", p90_ms "
            << (percentile(s.latency_s, 0.9) - percentile(total.latency_s, 0.9)) * 1e3
            << ", qps " << traced_qps - static_cast<double>(total.ok) / total.wall_s
            << ", j_per_query " << s.billed_j / q - total.billed_j / ok << "\n";
  if (!args.trace_out.empty()) {
    if (!trace.write_json(args.trace_out))
      throw std::runtime_error("cannot write " + args.trace_out);
    std::cout << "spans written to " << args.trace_out << "\n";
  }
  std::cout << "attempted=" << tally.attempted << " failed=" << tally.failed << "\n";
  print_result(tally.failed == 0, tally, layers);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "servebench: " << e.what() << "\n";
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "servebench: " << e.what() << "\n";
    return 1;
  }
}
