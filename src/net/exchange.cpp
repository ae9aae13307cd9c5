#include "net/exchange.hpp"

#include "util/assert.hpp"
#include "util/clock.hpp"

namespace eidb::net {

namespace {

ExchangeResult wire_part(double raw_bytes, double wire_bytes,
                         storage::CodecKind codec, const hw::LinkSpec& link) {
  ExchangeResult r;
  r.codec = codec;
  r.raw_bytes = raw_bytes;
  r.wire_bytes = wire_bytes;
  r.wire_s = link.transfer_time_s(wire_bytes);
  r.wire_energy_j = link.transfer_energy_j(wire_bytes);
  return r;
}

}  // namespace

ExchangeResult evaluate_exchange_modeled(std::span<const std::int64_t> payload,
                                         storage::CodecKind codec,
                                         const hw::LinkSpec& link,
                                         const hw::MachineSpec& machine,
                                         const hw::DvfsState& state) {
  const auto impl = storage::make_codec(codec);
  const std::vector<std::byte> encoded = impl->encode(payload);
  ExchangeResult r = wire_part(static_cast<double>(payload.size_bytes()),
                               static_cast<double>(encoded.size()), codec,
                               link);
  const double n = static_cast<double>(payload.size());
  const double cycles = impl->nominal_cycles_per_value() * n;
  // Encode and decode are charged symmetrically from the nominal combined
  // cost; DRAM traffic: read raw + write compressed (and mirrored on decode).
  const double each_s = (cycles / 2.0) / (state.freq_ghz * 1e9);
  r.encode_s = each_s;
  r.decode_s = each_s;
  const double dram_bytes = r.raw_bytes + r.wire_bytes;
  r.cpu_energy_j = machine.incremental_busy_energy_j(
      {0, 2 * dram_bytes}, state, r.encode_s + r.decode_s);
  return r;
}

ExchangeResult evaluate_exchange_measured(
    std::span<const std::int64_t> payload, storage::CodecKind codec,
    const hw::LinkSpec& link, const hw::MachineSpec& machine,
    const hw::DvfsState& state) {
  const auto impl = storage::make_codec(codec);
  Stopwatch sw;
  const std::vector<std::byte> encoded = impl->encode(payload);
  const double encode_s = sw.elapsed_seconds();
  sw.restart();
  const std::vector<std::int64_t> decoded = impl->decode(encoded);
  const double decode_s = sw.elapsed_seconds();
  EIDB_ASSERT(decoded.size() == payload.size());

  ExchangeResult r = wire_part(static_cast<double>(payload.size_bytes()),
                               static_cast<double>(encoded.size()), codec,
                               link);
  r.encode_s = encode_s;
  r.decode_s = decode_s;
  const double dram_bytes = r.raw_bytes + r.wire_bytes;
  r.cpu_energy_j = machine.incremental_busy_energy_j(
      {0, 2 * dram_bytes}, state, encode_s + decode_s);
  return r;
}

std::vector<std::int64_t> exchange_payload(std::span<const std::int64_t> payload,
                                           storage::CodecKind codec,
                                           const hw::LinkSpec& link,
                                           const hw::MachineSpec& machine,
                                           const hw::DvfsState& state,
                                           ExchangeResult& result) {
  const auto impl = storage::make_codec(codec);
  Stopwatch sw;
  const std::vector<std::byte> encoded = impl->encode(payload);
  const double encode_s = sw.elapsed_seconds();
  sw.restart();
  std::vector<std::int64_t> decoded = impl->decode(encoded);
  const double decode_s = sw.elapsed_seconds();
  if (decoded.size() != payload.size())
    throw Error("exchange round-trip size mismatch");

  result = wire_part(static_cast<double>(payload.size_bytes()),
                     static_cast<double>(encoded.size()), codec, link);
  result.encode_s = encode_s;
  result.decode_s = decode_s;
  const double dram_bytes = result.raw_bytes + result.wire_bytes;
  result.cpu_energy_j = machine.incremental_busy_energy_j(
      {0, 2 * dram_bytes}, state, encode_s + decode_s);
  return decoded;
}

}  // namespace eidb::net
