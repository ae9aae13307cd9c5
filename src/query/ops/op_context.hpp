// Shared state and accounting plumbing for the decomposed physical
// operators (src/query/ops/*). One OpContext lives for the duration of
// one query execution; it owns the charge-once ledger discipline — each
// (table, column) is charged to the DRAM lane at most once per query, at
// the byte count of the representation the pipeline actually streams —
// and the OperatorScope RAII timer that attributes wall seconds and work
// deltas to named operators so per-operator joules sum to the query's
// totals.
#pragma once

#include <algorithm>
#include <cstddef>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "query/executor.hpp"
#include "query/result.hpp"
#include "storage/table.hpp"
#include "util/clock.hpp"

namespace eidb::query::ops {

// Rough cycles/tuple used for abstract-work attribution (the planner's
// calibrated model lives in src/opt/cost_model).
constexpr double kScanCyclesPerTuple = 1.0;
constexpr double kAggCyclesPerTuple = 1.5;
constexpr double kGroupCyclesPerTuple = 6.0;
constexpr double kJoinBuildCyclesPerTuple = 12.0;
constexpr double kJoinProbeCyclesPerTuple = 10.0;
constexpr double kRadixPartitionCyclesPerTuple = 2.5;
constexpr double kMaterializeCyclesPerValue = 20.0;
constexpr double kSortCyclesPerComparison = 4.0;
constexpr double kDictRemapCyclesPerEntry = 3.0;
/// Semi-join filter pass: per build key set in the bitmap and per probe
/// key tested against it.
constexpr double kJoinFilterCyclesPerTuple = 2.0;

/// Column `name` of `t`, bare or qualified with the table's own name
/// ("t.col", as a join plan may name its FROM-table columns).
inline const storage::Column& table_column(const storage::Table& t,
                                           const std::string& name) {
  const std::string prefix = t.name() + ".";
  return t.column(name.rfind(prefix, 0) == 0 ? name.substr(prefix.size())
                                             : name);
}

/// Per-query execution context threaded through every operator.
struct OpContext {
  const storage::Catalog& catalog;
  const ExecOptions& options;
  ExecStats& stats;
  /// Executor-owned scratch for composite group keys (reused across
  /// queries, no per-operator allocation).
  std::vector<std::int64_t>& key_scratch;
  /// (table, column) pairs already charged to the DRAM ledger this query.
  std::set<std::string> charged;

  [[nodiscard]] static std::string charge_key(const storage::Table& t,
                                              const storage::Column& c) {
    return t.name() + "." + c.name();
  }

  /// Simulated tier penalty for touching (table, column), if tiering is on.
  void charge_tier(const storage::Table& t, const storage::Column& c) {
    if (options.tiers == nullptr) return;
    const auto penalty = options.tiers->access(t.name(), c.name());
    stats.cold_tier_time_s += penalty.time_s;
    stats.cold_tier_energy_j += penalty.energy_j;
  }

  /// Charges one sequential read of `c` (the packed image when `packed`,
  /// the plain array otherwise), unconditionally — the predicate-scan
  /// rule: every scan pass over a column is real DRAM traffic.
  void charge_scan(const storage::Table& t, const storage::Column& c,
                   bool packed) {
    if (packed) {
      // The scan streams the packed image: that byte count — not the
      // plain width — is the query's real DRAM traffic, and it is what
      // the energy model and the admission controller's settlement see.
      const double bytes = static_cast<double>(c.scan_byte_size());
      stats.work.dram_bytes += bytes;
      ++stats.packed_column_reads;
      stats.dram_bytes_saved += static_cast<double>(c.byte_size()) - bytes;
    } else {
      stats.work.dram_bytes += static_cast<double>(c.byte_size());
    }
    charge_tier(t, c);
  }

  /// Charge-once variant for operator inputs (aggregate inputs, join
  /// keys, group keys, projections): each column is charged at most once
  /// per query, at the one representation the pipeline streams.
  void charge_column(const storage::Table& t, const storage::Column& c,
                     bool packed) {
    if (!charged.insert(charge_key(t, c)).second) return;
    charge_scan(t, c, packed);
  }

  /// Charges a bounded gather of `rows` values from `c` (top-k
  /// materialization reads only the emitted rows, and the ledger must
  /// charge only those). A column already charged in full is not charged
  /// again; a gather never exceeds the full plain width.
  void charge_gather(const storage::Table& t, const storage::Column& c,
                     std::size_t rows) {
    if (!charged.insert(charge_key(t, c)).second) return;
    const double full = static_cast<double>(c.byte_size());
    const double bytes =
        c.size() == 0
            ? 0.0
            : std::min(full, static_cast<double>(rows) *
                                 (full / static_cast<double>(c.size())));
    stats.work.dram_bytes += bytes;
    charge_tier(t, c);
  }

  /// Charge-once read of `c` at an explicit byte count — the code-domain
  /// consumers (string/double join and group keys) stream the int32 code
  /// array, not the column's plain width, and the ledger must bill the
  /// bytes the pass actually moves. The saving vs the plain width lands
  /// in dram_bytes_saved like a packed read's does.
  void charge_column_bytes(const storage::Table& t, const storage::Column& c,
                           double bytes) {
    if (!charged.insert(charge_key(t, c)).second) return;
    stats.work.dram_bytes += bytes;
    const double full = static_cast<double>(c.byte_size());
    if (full > bytes) stats.dram_bytes_saved += full - bytes;
    charge_tier(t, c);
  }

  /// Charges the dictionary-payload traffic of late-materializing `rows`
  /// string values from `c`: `rows` decodes at the dictionary's average
  /// payload width, capped at one full read of the dictionary (repeat
  /// decodes of a hot dictionary stay cache-resident). Charged once per
  /// column per query under a separate "#dict" key, so the code-array
  /// charge and the payload charge stay independently visible — string
  /// materialization is not free on the ledger.
  void charge_dict_gather(const storage::Table& t, const storage::Column& c,
                          std::size_t rows) {
    if (!c.has_dictionary()) return;
    if (!charged.insert(charge_key(t, c) + "#dict").second) return;
    const double payload = static_cast<double>(c.dictionary().payload_bytes());
    const auto entries = static_cast<double>(c.dictionary().size());
    const double bytes =
        entries == 0.0
            ? 0.0
            : std::min(payload,
                       static_cast<double>(rows) * (payload / entries));
    stats.work.dram_bytes += bytes;
    charge_tier(t, c);
  }
};

/// RAII operator attribution: wall seconds plus the hw::Work delta charged
/// between construction and close() / destruction land in
/// `stats.operators` under `name`. Scopes must not overlap — every charge
/// belongs to exactly one operator, so the per-operator work sums to the
/// query totals byte-exactly.
class OperatorScope {
 public:
  OperatorScope(ExecStats& stats, std::string name)
      : stats_(stats), name_(std::move(name)), base_(stats.work) {}
  OperatorScope(const OperatorScope&) = delete;
  OperatorScope& operator=(const OperatorScope&) = delete;
  ~OperatorScope() { close(); }

  /// Ends the scope early (e.g. before handing off to the next operator).
  void close() {
    if (closed_) return;
    closed_ = true;
    OperatorStats op;
    op.name = std::move(name_);
    op.seconds = sw_.elapsed_seconds();
    op.work = {stats_.work.cpu_cycles - base_.cpu_cycles,
               stats_.work.dram_bytes - base_.dram_bytes,
               stats_.work.net_bytes - base_.net_bytes};
    stats_.operators.push_back(std::move(op));
  }

 private:
  ExecStats& stats_;
  std::string name_;
  hw::Work base_;
  Stopwatch sw_;
  bool closed_ = false;
};

}  // namespace eidb::query::ops
