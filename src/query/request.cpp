#include "query/request.hpp"

#include <sstream>

namespace eidb::query {

QueryRequest QueryRequest::from_sql(std::string sql_text) {
  QueryRequest r;
  r.sql = std::move(sql_text);
  return r;
}

QueryRequest QueryRequest::from_plan(LogicalPlan logical_plan) {
  QueryRequest r;
  r.plan = std::move(logical_plan);
  return r;
}

std::string to_string(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk:
      return "ok";
    case ResponseStatus::kRejected:
      return "rejected";
    case ResponseStatus::kError:
      return "error";
    case ResponseStatus::kShutdown:
      return "shutdown";
  }
  return "invalid";
}

std::string QueryResponse::to_string() const {
  std::ostringstream os;
  os << query::to_string(status);
  if (status == ResponseStatus::kOk) {
    os << " rows=" << result.row_count() << " latency_ms=" << latency_s * 1e3
       << " energy_J=" << report.total_j() << " freq_GHz=" << governor_freq_ghz;
  } else if (!error.empty()) {
    os << " (" << error << ")";
  }
  return os.str();
}

}  // namespace eidb::query
