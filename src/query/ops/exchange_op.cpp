#include "query/ops/exchange_op.hpp"

#include <cstdint>
#include <vector>

#include "net/exchange.hpp"
#include "opt/compression_advisor.hpp"
#include "util/assert.hpp"

namespace eidb::query::ops {

net::WireTable exchange_to_coordinator(OpContext& ctx, net::Cluster& cluster,
                                       std::size_t from,
                                       const net::WireTable& payload) {
  EIDB_EXPECTS(from != 0);
  EIDB_EXPECTS(from < cluster.node_count());
  const std::vector<std::int64_t> encoded = net::encode_wire(payload);

  const hw::MachineSpec& machine = cluster.machine(from);
  const hw::DvfsState& state = machine.dvfs.fastest();
  const hw::LinkSpec& link = cluster.link(from, 0);
  const opt::CompressionAdvisor advisor(machine);
  // The engine's objective is energy: the codec minimizing link + codec
  // joules wins.
  const opt::ExchangeEstimate advice = advisor.advise(
      encoded, encoded.size(), link, state, opt::Objective::kEnergy);

  net::ExchangeResult xr;
  const std::vector<std::int64_t> received =
      net::exchange_payload(encoded, advice.kind, link, machine, state, xr);
  (void)cluster.send(from, 0, xr.wire_bytes);

  ctx.stats.work.net_bytes += xr.wire_bytes;
  ctx.stats.wire_messages += 1;
  ctx.stats.wire_time_s += xr.total_time_s();
  // The codec CPU joules ride the wire lane too: both halves run on the
  // modeled link path, outside the coordinator's busy-energy quantum.
  ctx.stats.wire_energy_j += xr.total_energy_j();
  return net::decode_wire(received);
}

void charge_join_exchange(OpContext& ctx, net::Cluster& cluster,
                          const DistJoinExchange& exchange,
                          std::size_t shards) {
  if (shards <= 1 || exchange.est_bytes <= 0) return;
  const double per_link =
      exchange.est_bytes / static_cast<double>(shards - 1);
  for (std::size_t n = 1; n < shards; ++n) {
    // Broadcast fans the build side out of the coordinator; repartition
    // moves each node's relocating share one ring hop. Either way the
    // total is the planner's estimate, spread over shards − 1 messages.
    const net::Cluster::Transfer t =
        exchange.strategy == ExchangeStrategy::kBroadcast
            ? cluster.send(0, n, per_link)
            : cluster.send(n, n - 1, per_link);
    ctx.stats.wire_time_s += t.time_s;
    ctx.stats.wire_energy_j += t.energy_j;
    ctx.stats.wire_messages += 1;
  }
  ctx.stats.work.net_bytes += exchange.est_bytes;
}

}  // namespace eidb::query::ops
