#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/rng.hpp"
#include "core/route.hpp"
#include "fpga/arch.hpp"
#include "fpga/faults.hpp"
#include "netlist/netlist.hpp"
#include "router/router.hpp"

namespace fpr::check {

// The deterministic seed-mixing scheme lives in core/rng.hpp so the fault
// model (fpga layer) samples from the exact same splitmix64 streams as the
// fuzzer and the test suites; these aliases keep the historical
// fpr::check:: spelling working.
using fpr::mix64;
using fpr::salt64;
using Rng = fpr::SplitMixRng;

/// A graph + net instance for the tree-level oracles (validity, bound,
/// monotonicity). Everything needed to rebuild the instance exactly is in
/// the fields, so a persisted case line IS the repro: the graph is
/// re-materialized from graph_seed, and the shrinker mutates the fields
/// directly.
struct TreeCase {
  enum class Substrate { kRandomGraph, kGrid };

  Substrate substrate = Substrate::kRandomGraph;
  std::uint64_t graph_seed = 0;
  int nodes = 0;        // random-graph substrate
  int extra_edges = 0;  // random-graph substrate: edges beyond the spanning tree
  int grid_width = 0;   // grid substrate
  int grid_height = 0;  // grid substrate
  int max_weight = 10;  // integral edge weights in [1, max_weight]
  std::vector<NodeId> terminals;  // terminals[0] is the source
  Algorithm algorithm = Algorithm::kKmb;

  int node_count() const {
    return substrate == Substrate::kRandomGraph ? nodes : grid_width * grid_height;
  }

  /// Rebuilds the exact graph this case describes.
  Graph materialize() const;

  Net net() const;

  /// One-line record (core/line_format.hpp), the persisted repro format.
  /// parse() also rejects a case materialize() cannot build.
  std::string describe() const;
  static std::optional<TreeCase> parse(const std::string& line);

  friend bool operator==(const TreeCase&, const TreeCase&) = default;
};

/// An FPGA instance + circuit + router configuration for the feasibility
/// oracle. The circuit is re-synthesized deterministically from the fields.
struct CircuitCase {
  enum class Family { kXc3000, kXc4000 };

  Family family = Family::kXc4000;
  int rows = 4;
  int cols = 4;
  int width = 8;
  int nets_2_3 = 6;
  int nets_4_10 = 2;
  int nets_over_10 = 0;
  std::uint64_t synth_seed = 0;
  Algorithm algorithm = Algorithm::kIkmb;
  bool decompose_two_pin = false;

  /// Defect distribution installed on the probe device before routing
  /// (faults.any() == false leaves the device pristine) and work budget for
  /// the router (0 = unlimited) — the fault-oracle dimensions. Serialized
  /// only when non-default, so pre-fault repro lines parse unchanged.
  FaultSpec faults{};
  long long node_budget = 0;

  /// Route in RouterMode::kNegotiated instead of paper mode. Negotiated
  /// probes route whole nets (router_options() forces decompose off) and
  /// the feasibility oracle applies the convergence-contract checks on top
  /// of the shared ones. Serialized only when set ("mode=negotiated").
  bool negotiated = false;

  /// Repair-oracle dimensions: how many ECO events to derive (from
  /// repair_seed, deterministically, against the initially routed state —
  /// see derive_repair_events in fuzz.cpp) and apply through repair_route,
  /// and the per-event work budget (0 = unlimited). repair_events == 0
  /// means the case is not a repair case. Serialized only when non-default.
  int repair_events = 0;
  std::uint64_t repair_seed = 0;
  long long repair_budget = 0;

  ArchSpec arch() const;
  Circuit circuit() const;
  RouterOptions router_options() const;

  /// One-line record (core/line_format.hpp), the persisted repro format.
  std::string describe() const;
  static std::optional<CircuitCase> parse(const std::string& line);

  friend bool operator==(const CircuitCase&, const CircuitCase&) = default;
};

/// Deterministic case generators: the same case_seed always yields the same
/// instance. `algorithms` restricts which constructions are sampled.
TreeCase generate_tree_case(std::uint64_t case_seed, int max_terminals,
                            std::span<const Algorithm> algorithms);
CircuitCase generate_circuit_case(std::uint64_t case_seed);

/// A circuit case with a sampled defect distribution (and sometimes a work
/// budget) layered on top of generate_circuit_case — the fault oracle's
/// generator.
CircuitCase generate_fault_circuit_case(std::uint64_t case_seed);

/// A negotiated-mode circuit case: generate_circuit_case re-targeted at the
/// negotiation loop (narrower channels so passes actually contend, a slice
/// with faults, a slice with a work budget) — the negotiate oracle's
/// generator.
CircuitCase generate_negotiated_circuit_case(std::uint64_t case_seed);

/// A repair circuit case: generate_circuit_case plus 1-4 derived ECO events
/// (a slice with spec faults underneath, a slice with per-event budgets) —
/// the repair oracle's generator. Inherits the base draw's mode mix, so
/// repair is continuously fuzzed in both paper and negotiated modes.
CircuitCase generate_repair_circuit_case(std::uint64_t case_seed);

/// Inverse of algorithm_name() over every Algorithm (heuristics + exact).
std::optional<Algorithm> algorithm_from_name(std::string_view name);

}  // namespace fpr::check
