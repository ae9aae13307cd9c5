// Query results and execution statistics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/machine.hpp"
#include "storage/types.hpp"

namespace eidb::query {

/// Materialized result: named columns of scalar values, row-major access.
class QueryResult {
 public:
  QueryResult() = default;
  explicit QueryResult(std::vector<std::string> column_names)
      : column_names_(std::move(column_names)) {}

  [[nodiscard]] const std::vector<std::string>& column_names() const {
    return column_names_;
  }
  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }
  [[nodiscard]] std::size_t column_count() const {
    return column_names_.size();
  }

  void add_row(std::vector<storage::Value> row);
  [[nodiscard]] const storage::Value& at(std::size_t row,
                                         std::size_t col) const;
  [[nodiscard]] const std::vector<storage::Value>& row(std::size_t i) const;

  /// Index of a result column by name; throws Error when absent.
  [[nodiscard]] std::size_t column_index(const std::string& name) const;

  /// Pretty-prints the result (up to `max_rows` rows).
  [[nodiscard]] std::string to_string(std::size_t max_rows = 20) const;

 private:
  std::vector<std::string> column_names_;
  std::vector<std::vector<storage::Value>> rows_;
};

/// One physical operator's share of a query's execution: wall seconds and
/// the abstract work (cycles + DRAM bytes) charged while it ran. Every
/// charge the executor makes lands inside exactly one operator scope, so
/// summing `work` over `ExecStats::operators` reproduces the query totals
/// byte-exactly — per-operator joules attributed from these deltas sum to
/// the query's attributed joules (the attribution model is linear in both
/// busy seconds and DRAM bytes).
struct OperatorStats {
  std::string name;
  double seconds = 0;
  hw::Work work;

  /// This operator's attributed joules on `machine` at DVFS state `s`
  /// (same incremental-busy model core::Database applies per query: its
  /// host seconds stretched to `s` by sched::slowdown).
  [[nodiscard]] double attributed_j(const hw::MachineSpec& machine,
                                    const hw::DvfsState& s) const;
};

/// Abstract execution statistics gathered by the executor; the energy layer
/// turns these into joules.
struct ExecStats {
  std::uint64_t tuples_scanned = 0;
  std::uint64_t tuples_selected = 0;
  std::uint64_t groups = 0;
  std::uint64_t join_pairs = 0;
  hw::Work work;               ///< Estimated cycles + DRAM traffic.
  /// Column reads served from a bit-packed image (scan/aggregate inputs);
  /// their DRAM bytes are charged at the packed size.
  std::uint64_t packed_column_reads = 0;
  /// Bytes the packed reads saved versus reading the plain arrays —
  /// work.dram_bytes + dram_bytes_saved is what the plain path would have
  /// charged for the same reads.
  double dram_bytes_saved = 0;
  double elapsed_s = 0;        ///< Measured wall time of execution.
  double cold_tier_time_s = 0; ///< Simulated cold-tier penalty (E6).
  double cold_tier_energy_j = 0;
  /// Sharded execution: wire transfers charged through net::Cluster when
  /// shard partials/row ids ship to the coordinator. `work.net_bytes`
  /// carries the byte totals (and per-operator deltas, like DRAM); the
  /// joules/seconds of the modeled links land here, outside the machine's
  /// busy-energy quantum. All zero single-node and at shard_count == 1
  /// (shard 0 lives on the coordinator and ships nothing).
  std::uint64_t shards_executed = 0;
  std::uint64_t wire_messages = 0;
  double wire_time_s = 0;
  double wire_energy_j = 0;
  /// Per-operator time/DRAM/work attribution in execution order; work
  /// deltas sum to `work` (asserted by the executor tests).
  std::vector<OperatorStats> operators;
};

/// EXPLAIN ANALYZE-style table of the per-operator attribution: one line
/// per operator with seconds, cycles, DRAM bytes and attributed joules,
/// plus a totals line. See docs/executor_pipeline.md ("EXPLAIN format").
[[nodiscard]] std::string format_operator_stats(const ExecStats& stats,
                                                const hw::MachineSpec& machine,
                                                const hw::DvfsState& state);

}  // namespace eidb::query
