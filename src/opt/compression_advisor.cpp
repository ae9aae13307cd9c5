#include "opt/compression_advisor.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace eidb::opt {

std::string objective_name(Objective o) {
  return o == Objective::kTime ? "time" : "energy";
}

std::vector<CodecProfile> CompressionAdvisor::profile(
    std::span<const std::int64_t> payload, std::size_t sample_values) const {
  const std::size_t n = std::min(sample_values, payload.size());
  const auto sample = payload.subspan(0, n);
  std::vector<CodecProfile> out;
  for (const storage::CodecKind kind : storage::all_codec_kinds()) {
    const auto codec = storage::make_codec(kind);
    CodecProfile p;
    p.kind = kind;
    p.cycles_per_value = codec->nominal_cycles_per_value();
    if (n == 0) {
      p.ratio = 1.0;
    } else {
      const auto encoded = codec->encode(sample);
      p.ratio = encoded.empty()
                    ? 1.0
                    : static_cast<double>(sample.size_bytes()) /
                          static_cast<double>(encoded.size());
    }
    out.push_back(p);
  }
  return out;
}

ExchangeEstimate CompressionAdvisor::estimate(const CodecProfile& profile,
                                              std::uint64_t total_values,
                                              const hw::LinkSpec& link,
                                              const hw::DvfsState& state) const {
  EIDB_EXPECTS(profile.ratio > 0);
  const double raw_bytes = static_cast<double>(total_values) * 8.0;
  const double wire_bytes = raw_bytes / profile.ratio;
  const double cpu_s = profile.cycles_per_value *
                       static_cast<double>(total_values) /
                       (state.freq_ghz * 1e9);
  ExchangeEstimate e;
  e.kind = profile.kind;
  e.time_s = cpu_s + link.transfer_time_s(wire_bytes);
  // CPU billed incrementally (package is on regardless); wire billed fully.
  e.energy_j = machine_.incremental_busy_energy_j({0, raw_bytes + wire_bytes},
                                                  state, cpu_s) +
               link.transfer_energy_j(wire_bytes);
  return e;
}

CompressionAdvisor::StorageAdvice CompressionAdvisor::advise_storage(
    const storage::ColumnStats& stats, storage::TypeId type,
    const CostModel& model, Objective objective,
    bool packed_kernel_available) const {
  StorageAdvice advice;
  const auto plain_bits =
      static_cast<unsigned>(storage::physical_size(type)) * 8;
  advice.bits = plain_bits;
  unsigned bits = 0;
  advice.encoding = storage::choose_encoding(stats, type, &bits);
  if (advice.encoding == storage::Encoding::kPlain) return advice;
  advice.bits = bits;

  // One decision procedure for both objectives: the model picks the arm
  // under modeled energy or roofline time.
  const double plain_bytes = static_cast<double>(storage::physical_size(type));
  advice.scan_arm = model.pick_storage_arm(machine_, stats.rows, bits,
                                           plain_bytes,
                                           packed_kernel_available,
                                           objective == Objective::kTime);
  if (advice.scan_arm == StorageArm::kPlainScan) {
    advice.scan_ratio = 1.0;
  } else {
    const double packed_bytes = static_cast<double>(bits) / 8.0;
    advice.scan_ratio = packed_bytes > 0
                            ? plain_bytes / packed_bytes
                            : static_cast<double>(stats.rows) * plain_bytes;
  }
  return advice;
}

ExchangeEstimate CompressionAdvisor::advise(
    std::span<const std::int64_t> payload, std::uint64_t total_values,
    const hw::LinkSpec& link, const hw::DvfsState& state,
    Objective objective) const {
  const std::vector<CodecProfile> profiles = profile(payload);
  EIDB_ASSERT(!profiles.empty());
  ExchangeEstimate best;
  bool first = true;
  for (const CodecProfile& p : profiles) {
    const ExchangeEstimate e = estimate(p, total_values, link, state);
    const double key = objective == Objective::kTime ? e.time_s : e.energy_j;
    const double best_key =
        objective == Objective::kTime ? best.time_s : best.energy_j;
    if (first || key < best_key) {
      best = e;
      first = false;
    }
  }
  return best;
}

}  // namespace eidb::opt
