// Co-processor (xPU) model (paper §III, §IV.B).
//
// "while init()- and finish()-phases of operators may run on a CPU side,
// the actual work()-part of an operator may be scheduled on a GPU
// platform." No device code runs here (DESIGN.md §5): the model captures
// what an offload's energy depends on — kernel speedup, per-byte link
// energy and device power. The shared-scan cost arm
// (opt::CostModel::pick_scan_sharing) prices fused-scan followers at the
// near-memory point.
#pragma once

#include <string>

namespace eidb::hw {

struct AcceleratorSpec {
  std::string name;
  double speedup = 1;            ///< Kernel throughput vs. one CPU core.
  double link_energy_nj_per_byte = 0;
  double active_power_w = 0;     ///< Device busy power.
  double idle_power_w = 0;       ///< Device powered but idle.

  /// Incremental device energy of running a kernel of `cpu_seconds`
  /// (single-core CPU time) on the device, moving `bytes_in` +
  /// `bytes_out` across the link (above device idle).
  [[nodiscard]] double offload_energy_j(double cpu_seconds, double bytes_in,
                                        double bytes_out) const {
    return (bytes_in + bytes_out) * link_energy_nj_per_byte * 1e-9 +
           (active_power_w - idle_power_w) * (cpu_seconds / speedup);
  }

  /// Near-memory compute point (bulk-bitwise PIM class, Perach et al. /
  /// Mutlu in PAPERS.md): modest kernel speedup, but its "link" is the
  /// DRAM row buffer, so per-byte traffic costs a fraction of a CPU-side
  /// DRAM read and device power is small. The shared-scan cost arm prices
  /// follower queries of a fused pass at this point — they re-touch bytes
  /// a first member already streamed.
  static AcceleratorSpec pim() { return {"pim", 2.0, 0.15, 4.0, 1.0}; }
};

}  // namespace eidb::hw
