// Multi-query shared scans: compatibility analysis over compiled plans
// and the group runner that feeds one fused table pass into many
// per-query pipelines (the serving-tier half of exec/shared_scan).
//
// A coalesced batch's plans are grouped by (table, encoding-visible
// column set, conjunct structure). A compatible group makes ONE chunked
// pass over the shared table (exec::shared_scan) producing every member's
// selection bitmap, then runs each member's existing pipeline over its
// bitmap as a preset — bit-identical to independent execution by
// construction: each member is bound by ops::bind_conjunction and
// evaluated by the same pass a solo scan runs with one member.
//
// Ledger discipline: the fused pass streams each distinct predicate
// column ONCE, so the group charges that column's bytes once — not once
// per member — and the single charge is attributed across members by
// per-member work (sink bytes + selected rows), residual to the last
// member so the per-operator byte sums stay exact. Per-member evaluated
// cycles and the pass's wall seconds are attributed the same way, so
// per-operator joules still sum to each query's totals and per-tenant
// settlement stays fair.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hw/machine.hpp"
#include "query/executor.hpp"
#include "query/physical_plan.hpp"
#include "query/result.hpp"
#include "storage/table.hpp"

namespace eidb::query {

/// One member of a candidate shared-scan batch: its compiled plan and the
/// effective exec options it will run under. `phys` may be null (compile
/// failed upstream); such members land in ineligible singletons.
struct SharedBatchMember {
  const PhysicalPlan* phys = nullptr;
  const ExecOptions* options = nullptr;
};

/// Compatibility key of one compiled plan: table plus the ordered multiset
/// of (predicate column, streamed representation) — the representation tag
/// captures the encoding-visible column set (a packed image is a different
/// stream than the plain array). Empty = ineligible for sharing (no
/// predicates, distributed/sharded plan, zone maps, or tiered columns —
/// those paths keep their specialized kernels and charging).
[[nodiscard]] std::string scan_sharing_key(const storage::Catalog& catalog,
                                           const PhysicalPlan& phys,
                                           const ExecOptions& options);

/// Request-level pre-key over a logical plan (no catalog needed): table
/// plus sorted predicate columns. The serving tier partitions coalesced
/// batches with this before compiling; scan_sharing_key() re-verifies on
/// the compiled plans. Empty = trivially ineligible (no predicates).
[[nodiscard]] std::string scan_sharing_prekey(const LogicalPlan& plan);

/// One compatibility group of an analyzed batch.
struct ScanShareGroup {
  std::vector<std::size_t> members;  ///< Indices into the analyzed batch.
  std::string key;                   ///< "" = ineligible singleton.
  bool share = false;  ///< Cost-model verdict: fuse vs run independent.
  double est_scan_bytes = 0;      ///< One pass's streamed bytes.
  double est_independent_j = 0;   ///< Modeled N-independent-scans energy.
  double est_shared_j = 0;        ///< Modeled fused-pass energy.
};

/// Groups a batch by scan_sharing_key and prices each >= 2-member group's
/// share-vs-independent decision (opt::CostModel::pick_scan_sharing with
/// hw::AcceleratorSpec::pim() as the in-memory-compute point).
[[nodiscard]] std::vector<ScanShareGroup> analyze_scan_sharing(
    const storage::Catalog& catalog, const hw::MachineSpec& machine,
    std::span<const SharedBatchMember> batch);

/// One member's outcome of a shared group run.
struct SharedMemberOut {
  QueryResult result;
  ExecStats stats;
  std::string error;  ///< Non-empty when this member's pipeline threw.
};

/// Executes one compatible group: fused pass + per-member pipelines +
/// single-charge scan attribution (see file comment). `members` must all
/// carry compiled plans over the same FROM table with matching
/// scan-visible options (i.e. equal scan_sharing_key); `outs` is aligned
/// with `members`. Each member's stats carry its full per-operator
/// attribution including its share of the fused pass; stats.elapsed_s is
/// the member's pipeline wall plus its attributed share of the pass.
void execute_shared_group(const storage::Catalog& catalog,
                          std::span<const SharedBatchMember> members,
                          std::span<SharedMemberOut> outs);

}  // namespace eidb::query
