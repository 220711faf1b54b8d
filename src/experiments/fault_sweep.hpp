#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "experiments/tables23.hpp"
#include "fpga/faults.hpp"
#include "netlist/profiles.hpp"
#include "router/width_search.hpp"

namespace fpr {

/// Configuration of the fault-injection yield sweep: for each circuit and
/// each defect rate, (a) the minimum channel width the DEFECTIVE device
/// needs, and (b) how gracefully routing degrades at the fault-free minimum
/// width — the two curves a yield analysis wants (cf. the defect-tolerant
/// FPGA literature in PAPERS.md).
struct FaultSweepOptions {
  unsigned synth_seed = 1995;     // circuit synthesis (same as Tables 2/3)
  std::uint64_t fault_seed = 7;   // base of every per-cell FaultSpec seed

  /// Defect rates swept, in per-mille of wire segments (switch connections
  /// get the same rate, connection-block pins half of it — defects hit the
  /// big switchboxes harder than the short block pigtails). 0 = pristine.
  std::vector<int> fault_permilles{0, 10, 25, 50, 100};

  int max_passes = 12;
  int max_width = 24;

  /// Deterministic node-expansion budget of each width probe and of the
  /// yield route (0 = unlimited); keeps the sweep's wall-clock bounded on
  /// pathological defect draws without introducing wall-clock
  /// nondeterminism.
  long long node_budget_per_probe = 0;

  /// Worker threads for the circuit sweep (0 = shared pool, 1 = serial);
  /// results are identical for every value.
  int threads = 0;
};

/// One (circuit, fault rate) cell of the sweep.
struct FaultSweepCell {
  int permille = 0;
  FaultSpec faults;  // exact injected spec (replayable via describe())

  // Minimum-width search on the defective device.
  WidthSearchStatus status = WidthSearchStatus::kEmptyRange;
  int min_width = -1;
  int probes = 0;           // serial-trace probe count
  int probes_aborted = 0;   // of which budget-aborted

  // Degraded routing at the FAULT-FREE minimum width (how much yield the
  // defects cost if the part had been built for a pristine die).
  double routed_fraction = 1.0;
  int nets_blocked_by_fault = 0;
  int nets_rerouted_around_faults = 0;
  long detour_wirelength_overhead = 0;
  RoutingResult degraded;  // full result, for oracle replay by callers
};

struct FaultSweepRow {
  CircuitProfile profile;
  ArchFamily family = ArchFamily::kXc3000;
  int fault_free_width = -1;  // the rate-0 minimum width (yield baseline)
  std::vector<FaultSweepCell> cells;  // one per options.fault_permilles
};

struct FaultSweepResult {
  std::vector<FaultSweepRow> rows;
};

/// Runs the sweep over `profiles`. Fully deterministic: every fault set is
/// drawn from (fault_seed, circuit name, rate) and every probe is a pure
/// function of its width, so a fixed option set yields a byte-identical
/// result on every platform and thread count.
FaultSweepResult run_fault_sweep(std::span<const CircuitProfile> profiles, ArchFamily family,
                                 const FaultSweepOptions& options = {});

/// The `count` smallest profiles (by array area) — the bounded default
/// subset the bench sweeps without FPR_FULL.
std::vector<CircuitProfile> smallest_profiles(std::span<const CircuitProfile> profiles,
                                              int count);

/// Renders the yield curve as a text table (one row per circuit x rate).
std::string render_fault_sweep(const FaultSweepResult& result);

}  // namespace fpr
