// Machine model: cores, P-states, C-states, DRAM — the simulated substrate.
//
// Substitution note (DESIGN.md §5): the paper assumes a lab server with RAPL
// counters and many cores. This model supplies (a) a power curve for the
// `ModelMeter` when RAPL is unavailable, and (b) a virtual multicore for the
// scaling/scheduling experiments on a single-core container. Default
// parameters are calibrated to published Sandy-Bridge-era server numbers
// (the hardware generation of the paper): idle system power ≈ 45% of peak,
// as reported by Tsirogiannis et al. (SIGMOD'10), the paper's citation [12].
#pragma once

#include <string>
#include <vector>

#include "hw/dvfs.hpp"

namespace eidb::hw {

/// A core/package sleep state.
struct CState {
  std::string name;
  double power_w = 0;        ///< Residual power while in this state (per core).
  double wake_latency_s = 0; ///< Time to return to C0.
};

/// Abstract work performed by an operator, convertible to time and energy
/// on any machine at any P-state (roofline-style).
struct Work {
  double cpu_cycles = 0;   ///< Core cycles of computation.
  double dram_bytes = 0;   ///< Bytes transferred to/from DRAM.
  double net_bytes = 0;    ///< Bytes shipped over cluster links (wire lane).

  Work& operator+=(const Work& o) {
    cpu_cycles += o.cpu_cycles;
    dram_bytes += o.dram_bytes;
    net_bytes += o.net_bytes;
    return *this;
  }
  friend Work operator+(Work a, const Work& b) { return a += b; }
  friend Work operator*(Work w, double k) {
    return {w.cpu_cycles * k, w.dram_bytes * k, w.net_bytes * k};
  }
};

/// Full machine description.
struct MachineSpec {
  std::string name;
  int cores = 1;
  DvfsTable dvfs;
  double core_idle_power_w = 0;    ///< C0 idle (halted, clock gated) per core.
  std::vector<CState> cstates;     ///< Deeper per-core sleep states.
  double uncore_power_w = 0;       ///< Package static power while not asleep.
  double package_sleep_power_w = 0;///< Package power in deepest sleep.
  double package_wake_latency_s = 0;
  double dram_bandwidth_gbs = 0;   ///< Sustained GB/s (all channels).
  double dram_energy_nj_per_byte = 0;
  double dram_static_power_w = 0;  ///< Refresh/background.

  /// Execution time of `work` on one core at P-state `s`, roofline model:
  /// max(compute time, memory time). `mem_share` scales the memory
  /// bandwidth available to this core (1.0 = whole machine).
  [[nodiscard]] double exec_time_s(const Work& work, const DvfsState& s,
                                   double mem_share = 1.0) const;

  /// Package power with `active` cores busy at P-state `s` and the remaining
  /// cores C0-idle.
  [[nodiscard]] double package_power_w(const DvfsState& s, int active) const;

  /// Power when the whole package sits in its deepest sleep state.
  [[nodiscard]] double sleep_power_w() const { return package_sleep_power_w; }

  /// Idle power with all cores halted but package awake (shallow idle).
  [[nodiscard]] double idle_power_w() const;

  /// Energy to execute `work` on `active` cores at P-state `s`, assuming
  /// perfect parallelism (work split evenly). Includes DRAM dynamic energy.
  [[nodiscard]] double energy_j(const Work& work, const DvfsState& s,
                                int active = 1) const;

  /// Incremental (above-idle) energy of one core busy at `s` for `busy_s`
  /// seconds performing `work`: the busy-power delta over core idle plus
  /// DRAM dynamic energy. The per-query attribution quantum shared by the
  /// governor's prediction and budget arm (sched::Governor), per-tenant
  /// billing (core::Database ledger scopes), the E8 simulator, and the
  /// bench harnesses — one definition so they cannot drift apart.
  [[nodiscard]] double incremental_busy_energy_j(const Work& work,
                                                 const DvfsState& s,
                                                 double busy_s) const;

  /// Calibrated default: dual-socket-class Sandy Bridge era server
  /// (8 cores, 1.2–2.9 GHz, peak ≈ 150 W, idle ≈ 45% of peak).
  static MachineSpec server();
  /// Small mobile part for laptop-scale experiments.
  static MachineSpec laptop();
};

}  // namespace eidb::hw
