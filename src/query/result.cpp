#include "query/result.hpp"

#include <sstream>

#include "sched/governor.hpp"
#include "util/assert.hpp"
#include "util/table_printer.hpp"

namespace eidb::query {

void QueryResult::add_row(std::vector<storage::Value> row) {
  EIDB_EXPECTS(row.size() == column_names_.size());
  rows_.push_back(std::move(row));
}

const storage::Value& QueryResult::at(std::size_t row, std::size_t col) const {
  EIDB_EXPECTS(row < rows_.size());
  EIDB_EXPECTS(col < column_names_.size());
  return rows_[row][col];
}

const std::vector<storage::Value>& QueryResult::row(std::size_t i) const {
  EIDB_EXPECTS(i < rows_.size());
  return rows_[i];
}

std::size_t QueryResult::column_index(const std::string& name) const {
  for (std::size_t i = 0; i < column_names_.size(); ++i)
    if (column_names_[i] == name) return i;
  throw Error("no such result column: " + name);
}

double OperatorStats::attributed_j(const hw::MachineSpec& machine,
                                   const hw::DvfsState& s) const {
  return machine.incremental_busy_energy_j(
      work, s, seconds * sched::slowdown(machine, s));
}

std::string format_operator_stats(const ExecStats& stats,
                                  const hw::MachineSpec& machine,
                                  const hw::DvfsState& state) {
  TablePrinter table({"operator", "time_ms", "cycles", "dram_bytes",
                      "net_bytes", "attributed_J"});
  double seconds = 0;
  hw::Work total;
  double joules = 0;
  for (const OperatorStats& op : stats.operators) {
    const double j = op.attributed_j(machine, state);
    table.add_row({op.name, TablePrinter::fmt(op.seconds * 1e3, 4),
                   TablePrinter::fmt(op.work.cpu_cycles, 0),
                   TablePrinter::fmt(op.work.dram_bytes, 0),
                   TablePrinter::fmt(op.work.net_bytes, 0),
                   TablePrinter::fmt(j, 6)});
    seconds += op.seconds;
    total += op.work;
    joules += j;
  }
  table.add_row({"total", TablePrinter::fmt(seconds * 1e3, 4),
                 TablePrinter::fmt(total.cpu_cycles, 0),
                 TablePrinter::fmt(total.dram_bytes, 0),
                 TablePrinter::fmt(total.net_bytes, 0),
                 TablePrinter::fmt(joules, 6)});
  std::ostringstream os;
  table.print(os);
  return os.str();
}

std::string QueryResult::to_string(std::size_t max_rows) const {
  TablePrinter table(column_names_.empty()
                         ? std::vector<std::string>{"(empty)"}
                         : column_names_);
  if (!column_names_.empty()) {
    const std::size_t n = std::min(max_rows, rows_.size());
    for (std::size_t r = 0; r < n; ++r) {
      std::vector<std::string> cells;
      cells.reserve(rows_[r].size());
      for (const storage::Value& v : rows_[r]) cells.push_back(v.to_string());
      table.add_row(std::move(cells));
    }
  }
  std::ostringstream os;
  table.print(os);
  if (rows_.size() > max_rows)
    os << "... (" << rows_.size() - max_rows << " more rows)\n";
  return os.str();
}

}  // namespace eidb::query
