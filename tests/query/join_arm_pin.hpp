// Test helper: pins a join arm the one way the planner allows. The cost
// model (opt::CostModel::pick_join_arm) alone picks each join step's arm,
// so a test that wants one arm hands ExecOptions::cost_model a model whose
// KernelCosts make it pick that arm, and checks the compiled plan.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "opt/cost_model.hpp"
#include "query/physical_plan.hpp"

namespace eidb::query::parity {

/// A cost model under which pick_join_arm picks `arm` for the test
/// catalogs' join steps:
///  - dense: the defaults (the catalogs' dimension keys are dense);
///  - hash: no dense domain, and a cache budget no test build exceeds;
///  - radix: no dense domain, and a cache budget of `first_build_rows` / 16
///    (the rows the first executed step builds). Under that budget
///    pick_radix_bits returns 4, the bits the default budget gives every
///    build below 1Mi rows, so the partitions, and the order in which the
///    radix arm sums doubles, are those of the default model.
/// The planner runs radix only as the first step of an aggregate plan and
/// turns every other radix step into a hash step.
inline opt::CostModel pin_join_arm(opt::JoinArm arm,
                                   std::uint64_t first_build_rows = 0) {
  opt::KernelCosts costs;
  if (arm == opt::JoinArm::kDenseJoin) return opt::CostModel(costs);
  costs.dense_join_max_domain = 0;
  costs.join_cache_build_entries = arm == opt::JoinArm::kHashJoin
                                       ? std::uint64_t{1} << 40
                                       : first_build_rows >> 4;
  return opt::CostModel(costs);
}

/// Checks that `phys` compiled to `arm` on its first executed step and on
/// every later step to the same arm, except that a radix pin runs later
/// steps as hash.
inline void expect_join_arms(const PhysicalPlan& phys, opt::JoinArm arm,
                             const std::string& label) {
  ASSERT_FALSE(phys.joins.empty()) << label;
  const opt::JoinArm later =
      arm == opt::JoinArm::kRadixJoin ? opt::JoinArm::kHashJoin : arm;
  for (std::size_t i = 0; i < phys.joins.size(); ++i)
    EXPECT_EQ(opt::join_arm_name(phys.joins[i].arm),
              opt::join_arm_name(i == 0 ? arm : later))
        << label << ", step " << i;
}

}  // namespace eidb::query::parity
