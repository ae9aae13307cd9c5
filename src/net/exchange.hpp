// Intermediate-result exchange with per-link codec choice (experiment E2).
//
// Cost of shipping a column of int64 intermediates from node A to node B:
//   time   = encode(A) + wire(compressed bytes) + decode(B)
//   energy = cpu_energy(encode+decode) + wire_energy(compressed bytes)
// versus the `plain` arm which pays memcpy-only CPU but full wire bytes.
// The two cost factors are independent (the paper's phrasing) so the
// decision depends on link bandwidth/energy and data compressibility.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hw/interconnect.hpp"
#include "hw/machine.hpp"
#include "storage/int_codec.hpp"

namespace eidb::net {

/// Fully accounted cost of one exchange.
struct ExchangeResult {
  storage::CodecKind codec = storage::CodecKind::kPlain;
  double raw_bytes = 0;
  double wire_bytes = 0;
  double encode_s = 0;
  double decode_s = 0;
  double wire_s = 0;
  /// One core busy for encode + decode, billed incrementally
  /// (hw::MachineSpec::incremental_busy_energy_j over the raw and wire
  /// bytes, read and written on each side): the package is on whether or
  /// not the link compresses.
  double cpu_energy_j = 0;
  double wire_energy_j = 0;

  [[nodiscard]] double total_time_s() const {
    return encode_s + wire_s + decode_s;
  }
  [[nodiscard]] double total_energy_j() const {
    return cpu_energy_j + wire_energy_j;
  }
  [[nodiscard]] double compression_ratio() const {
    return wire_bytes > 0 ? raw_bytes / wire_bytes : 0;
  }
};

/// Deterministic, model-based evaluation: codec CPU cost from
/// `nominal_cycles_per_value` (refined by the optimizer's calibrator at
/// runtime), wire cost from the link model, compressed size from actually
/// encoding `payload` (sizes are real; only time/energy are modeled).
[[nodiscard]] ExchangeResult evaluate_exchange_modeled(
    std::span<const std::int64_t> payload, storage::CodecKind codec,
    const hw::LinkSpec& link, const hw::MachineSpec& machine,
    const hw::DvfsState& state);

/// Measured evaluation: encode/decode run for real under a wall clock; the
/// wire remains modeled. Used by the E2 bench for the CPU-side numbers.
[[nodiscard]] ExchangeResult evaluate_exchange_measured(
    std::span<const std::int64_t> payload, storage::CodecKind codec,
    const hw::LinkSpec& link, const hw::MachineSpec& machine,
    const hw::DvfsState& state);

/// Performs the exchange end-to-end (encode, verify round-trip, account):
/// returns the decoded payload, writing the accounting into `result`.
[[nodiscard]] std::vector<std::int64_t> exchange_payload(
    std::span<const std::int64_t> payload, storage::CodecKind codec,
    const hw::LinkSpec& link, const hw::MachineSpec& machine,
    const hw::DvfsState& state, ExchangeResult& result);

}  // namespace eidb::net
