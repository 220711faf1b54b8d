#include "experiments/fault_sweep.hpp"

#include <algorithm>
#include <sstream>

#include "analysis/table.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "netlist/synth.hpp"

namespace fpr {

namespace {

/// The defect spec for one (circuit, rate) cell: seeded by circuit name and
/// rate so every cell's fault set is independent but reproducible, with
/// switches failing at the wire rate and connection-block pins at half.
FaultSpec cell_fault_spec(std::uint64_t base_seed, const std::string& circuit, int permille) {
  FaultSpec spec;
  spec.seed = mix64(base_seed ^ salt64(circuit), static_cast<std::uint64_t>(permille));
  spec.wire_permille = permille;
  spec.switch_permille = permille;
  spec.pin_permille = permille / 2;
  return spec;
}

}  // namespace

std::vector<CircuitProfile> smallest_profiles(std::span<const CircuitProfile> profiles,
                                              int count) {
  std::vector<CircuitProfile> out(profiles.begin(), profiles.end());
  std::stable_sort(out.begin(), out.end(), [](const CircuitProfile& a, const CircuitProfile& b) {
    return a.rows * a.cols < b.rows * b.cols;
  });
  if (count > 0 && static_cast<int>(out.size()) > count) {
    out.resize(static_cast<std::size_t>(count));
  }
  return out;
}

FaultSweepResult run_fault_sweep(std::span<const CircuitProfile> profiles, ArchFamily family,
                                 const FaultSweepOptions& options) {
  FaultSweepResult result;
  result.rows.resize(profiles.size());

  // Circuits are independent (own synthesized netlist, own devices), so the
  // sweep fans out across the pool; rows land at their profile's index, so
  // the output order matches a serial run.
  run_parallel(options.threads, profiles.size(), [&](std::size_t i) {
    const CircuitProfile& profile = profiles[i];
    FaultSweepRow row;
    row.profile = profile;
    row.family = family;
    const Circuit circuit = synthesize_circuit(profile, options.synth_seed);
    const ArchSpec base = arch_for(profile, family);

    WidthSearchOptions search;
    search.max_width = options.max_width;
    // Nested width-probe parallelism rides the shared pool; a serial sweep
    // stays serial all the way down.
    search.threads = options.threads == 1 ? 1 : 0;

    RouterOptions router;
    router.max_passes = options.max_passes;
    router.node_budget = options.node_budget_per_probe;

    row.cells.reserve(options.fault_permilles.size());
    for (const int permille : options.fault_permilles) {
      FaultSweepCell cell;
      cell.permille = permille;
      cell.faults = cell_fault_spec(options.fault_seed, profile.name, permille);

      WidthSearchOptions cell_search = search;
      if (cell.faults.any()) cell_search.faults = cell.faults;
      const WidthSearchResult found =
          find_min_channel_width(base, circuit, router, cell_search);
      cell.status = found.status;
      cell.min_width = found.min_width;
      cell.probes = static_cast<int>(found.attempts.size());
      for (const WidthProbe& probe : found.attempts) {
        cell.probes_aborted += probe.budget_aborted ? 1 : 0;
      }
      if (permille == 0) row.fault_free_width = found.min_width;

      // Yield at the fault-free width: how much of the circuit still routes
      // if the channel was sized for a pristine die.
      if (row.fault_free_width > 0) {
        Device device(base.with_width(row.fault_free_width));
        if (cell.faults.any()) device.install_faults(cell.faults);
        cell.degraded = route_circuit(device, circuit, router);
        cell.routed_fraction = cell.degraded.routed_fraction();
        cell.nets_blocked_by_fault = cell.degraded.nets_blocked_by_fault;
        cell.nets_rerouted_around_faults = cell.degraded.nets_rerouted_around_faults;
        cell.detour_wirelength_overhead = cell.degraded.detour_wirelength_overhead;
      }
      row.cells.push_back(std::move(cell));
    }
    result.rows[i] = std::move(row);
  });
  return result;
}

std::string render_fault_sweep(const FaultSweepResult& result) {
  TextTable table({"Circuit", "Size", "Fault rate", "Min width", "Search", "Routed frac",
                   "Blocked", "Rerouted", "Detour WL"});
  for (const FaultSweepRow& row : result.rows) {
    for (const FaultSweepCell& cell : row.cells) {
      std::ostringstream frac;
      frac.precision(3);
      frac << std::fixed << cell.routed_fraction;
      std::ostringstream rate;
      rate << cell.permille << "/1000";
      table.add_row({row.profile.name,
                     std::to_string(row.profile.rows) + "x" + std::to_string(row.profile.cols),
                     rate.str(),
                     cell.min_width > 0 ? std::to_string(cell.min_width) : "-",
                     std::string(width_search_status_name(cell.status)),
                     frac.str(),
                     std::to_string(cell.nets_blocked_by_fault),
                     std::to_string(cell.nets_rerouted_around_faults),
                     std::to_string(cell.detour_wirelength_overhead)});
    }
  }
  return table.render();
}

}  // namespace fpr
