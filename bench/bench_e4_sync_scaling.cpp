// Experiment E4 — synchronization limits parallel speedup (paper §III,
// citing Shore-MT [6]): "Even read-only synchronization already shows a
// significant serial part dramatically reducing the speedup with a growing
// number of parallel operators."
//
// A parallel aggregation (1024 morsels x 1 ms) synchronizes its result
// under four schemes; speedup vs. core count on the simulated multicore
// (DESIGN.md §5 — the host container has one vCPU). The per-morsel
// critical sections are fixed model inputs, not host measurements:
// kMutexCs (20 us), kAtomicCs (1.6 us), kOptimisticCs (2 us) and the
// partitioned scheme's kMergePerCore (40 us per core).
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "hw/sync_sim.hpp"
#include "util/table_printer.hpp"

using namespace eidb;

int main() {
  std::cout << "== E4: speedup vs cores under synchronization schemes ==\n\n";

  const hw::MachineSpec machine = hw::MachineSpec::server();
  const auto& state = machine.dvfs.fastest();

  // A morsel = 1 ms of parallel aggregation work. Schemes differ in what
  // they serialize per morsel:
  //  * global-mutex:   merge a 4 KiB partial into the shared result under
  //                    one lock (~20 us under contention-free conditions).
  //  * global-atomic:  16 atomic fetch-adds; under contention each costs a
  //                    cache-line transfer (~100 ns each).
  //  * partitioned:    zero shared state; one serial merge of all partials
  //                    at the end (cores * 40 us).
  //  * optimistic:     validate-and-publish (~2 us), retries inflate the
  //                    parallel part with contention; modeled via a higher
  //                    effective critical section.
  constexpr std::int64_t kTasks = 1024;
  constexpr double kParallel = 1e-3;
  constexpr double kMutexCs = 20e-6;
  constexpr double kAtomicCs = 1.6e-6;
  constexpr double kOptimisticCs = 2e-6;
  constexpr double kMergePerCore = 40e-6;

  TablePrinter table({"cores", "mutex_speedup", "atomic_speedup",
                      "partitioned_speedup", "optimistic_speedup",
                      "mutex_J", "partitioned_J"});

  for (const int cores : {1, 2, 4, 8, 16, 32, 64, 128}) {
    const hw::SyncWorkload mutex_wl{kTasks, kParallel - kMutexCs, kMutexCs,
                                    0};
    const hw::SyncWorkload atomic_wl{kTasks, kParallel - kAtomicCs, kAtomicCs,
                                     0};
    const hw::SyncWorkload part_wl{kTasks, kParallel, 0,
                                   cores * kMergePerCore};
    // Optimistic: validation critical section; conflict probability grows
    // with cores, aborted work re-executes (inflates the parallel part).
    const double p_conflict =
        std::min(0.5, 0.004 * static_cast<double>(cores - 1));
    const hw::SyncWorkload occ_wl{
        kTasks, (kParallel - kOptimisticCs) * (1.0 + p_conflict),
        kOptimisticCs, 0};

    const auto mutex_r = simulate_sync(mutex_wl, cores, machine, state);
    const auto atomic_r = simulate_sync(atomic_wl, cores, machine, state);
    const auto part_r = simulate_sync(part_wl, cores, machine, state);
    const auto occ_r = simulate_sync(occ_wl, cores, machine, state);

    // Speedup against the clean (synchronization-free, retry-free) serial
    // time — otherwise a scheme's own overhead cancels out of its ratio
    // and optimistic retries would be invisible.
    const double t1 = static_cast<double>(kTasks) * kParallel;
    table.add_row({TablePrinter::fmt_int(cores),
                   TablePrinter::fmt(t1 / mutex_r.makespan_s, 4),
                   TablePrinter::fmt(t1 / atomic_r.makespan_s, 4),
                   TablePrinter::fmt(t1 / part_r.makespan_s, 4),
                   TablePrinter::fmt(t1 / occ_r.makespan_s, 4),
                   TablePrinter::fmt(mutex_r.energy_j, 4),
                   TablePrinter::fmt(part_r.energy_j, 4)});
  }
  table.print(std::cout);

  std::cout << "\nShape checks (Shore-MT [6]): the mutex scheme saturates "
               "at ~ parallel/critical = "
            << (kParallel - kMutexCs) / kMutexCs
            << "x regardless of cores; atomics push the ceiling up ~12x "
               "further; partitioned scales until the serial merge "
               "dominates; optimistic tracks partitioned at low contention "
               "and decays as conflicts grow. Spinning burns energy: the "
               "mutex scheme costs more joules for the same work.\n";
  return 0;
}
