// The serving workloads: seeded SQL sequences, their service settings,
// and the oracle's expected answers.
//
// Each workload has one query shape. A pass is a fixed, seed-derived
// list of queries; the measured phase repeats whole passes, so every run
// issues the same mix. Warm-up queries come from a separate stream of
// the same seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataset.hpp"
#include "query/result.hpp"
#include "server/query_service.hpp"
#include "storage/types.hpp"

namespace servebench {

using Row = std::vector<eidb::storage::Value>;

/// An expected answer and how the result must match it.
struct Expected {
  enum class Mode {
    kSet,      ///< Same rows in any order.
    kTopDesc,  ///< `limit` rows of `rows` with the largest `column`,
               ///< in descending order of it (ties may pick either row).
  };
  Mode mode = Mode::kSet;
  std::vector<Row> rows;
  std::size_t column = 0;
  std::size_t limit = 0;
};

struct Query {
  std::string sql;
  Expected expected;
};

struct Workload {
  std::string name;
  eidb::server::ServiceOptions service;
  std::vector<Query> pass;
  std::vector<Query> warmup;
};

/// Builds `name`'s sequences from `seed`; throws on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed,
                                     const AnswerTables& answers);

/// True when `result` matches `expected`.
[[nodiscard]] bool matches(const eidb::query::QueryResult& result,
                           const Expected& expected);

}  // namespace servebench
