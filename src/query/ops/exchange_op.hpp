// Exchange operator: moves shard payloads across the simulated cluster
// and charges the wire lane. Two flavors, matching the planner's DistPlan:
//
//   * result exchange — a real net::WireTable (partial-aggregate rows or
//     gathered row ids) is encoded, run through the per-link codec the
//     opt::CompressionAdvisor picks for energy, and accounted at its
//     *actual* compressed wire bytes;
//   * join (dimension) exchange — dimensions are shared in-process (only
//     the wire is simulated — DESIGN.md §5), so the planner's modeled
//     DistJoinExchange::est_bytes are charged deterministically, plain.
//
// Every charge lands in ctx.stats (work.net_bytes + the wire_* fields)
// and in the cluster's per-link LinkStats, inside whatever OperatorScope
// the caller holds — the per-operator byte-sum invariant extends to the
// wire lane unchanged.
#pragma once

#include <cstddef>

#include "net/cluster.hpp"
#include "net/wire_format.hpp"
#include "query/ops/op_context.hpp"
#include "query/physical_plan.hpp"

namespace eidb::query::ops {

/// Ships `payload` from cluster node `from` to the coordinator (node 0):
/// encodes the wire table, advises a codec for the link, performs the
/// exchange (encode → modeled wire → decode, round-trip verified), charges
/// cluster + ctx.stats, and returns the decoded table. Precondition:
/// from != 0 — shard 0 lives on the coordinator and ships nothing.
[[nodiscard]] net::WireTable exchange_to_coordinator(
    OpContext& ctx, net::Cluster& cluster, std::size_t from,
    const net::WireTable& payload);

/// Charges one join step's planner-modeled dimension exchange: broadcast
/// ships the coordinator's build side to every other node; repartition
/// moves each node's relocating share one hop. Bytes are the plan-time
/// estimate (deterministic across runs); no-op at shards <= 1 or when the
/// estimate is zero.
void charge_join_exchange(OpContext& ctx, net::Cluster& cluster,
                          const DistJoinExchange& exchange,
                          std::size_t shards);

}  // namespace eidb::query::ops
