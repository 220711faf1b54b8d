#include "check/generate.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <sstream>
#include <string_view>

#include "core/line_format.hpp"
#include "graph/grid.hpp"
#include "netlist/profiles.hpp"
#include "netlist/synth.hpp"

namespace fpr::check {

namespace {

constexpr std::array<Algorithm, 10> kAllAlgorithms{
    Algorithm::kKmb,  Algorithm::kZel, Algorithm::kIkmb,      Algorithm::kIzel,
    Algorithm::kDjka, Algorithm::kDom, Algorithm::kPfa,       Algorithm::kIdom,
    Algorithm::kExactGmst,             Algorithm::kExactGsa,
};

// The names describe() writes for each enumerated field, indexed by value.
constexpr std::array<std::string_view, 2> kSubstrateNames{"random", "grid"};
constexpr std::array<std::string_view, 2> kFamilyNames{"xc3000", "xc4000"};
constexpr std::array<std::string_view, 2> kFlagNames{"0", "1"};
constexpr std::array<std::string_view, 2> kModeNames{"paper", "negotiated"};

/// Reads an enumerated field: `value` must be one of `names`, and `out`
/// takes its index.
template <typename T, std::size_t N>
bool parse_enum(std::string_view value, const std::array<std::string_view, N>& names, T& out) {
  for (std::size_t i = 0; i < N; ++i) {
    if (value == names[i]) {
      out = static_cast<T>(i);
      return true;
    }
  }
  return false;
}

bool parse_algorithm(std::string_view value, Algorithm& out) {
  const auto a = algorithm_from_name(value);
  if (a) out = *a;
  return a.has_value();
}

/// Reads `value` as exactly N `sep`-separated non-negative ints.
template <std::size_t N>
bool parse_ints(std::string_view value, char sep, const std::array<int*, N>& out) {
  std::size_t n = 0;
  return line_format::for_each_item(value, sep,
                                    [&](std::string_view piece) {
                                      return n < N && line_format::parse_uint(piece, *out[n++]);
                                    }) &&
         n == N;
}

}  // namespace

std::optional<Algorithm> algorithm_from_name(std::string_view name) {
  for (const Algorithm a : kAllAlgorithms) {
    if (algorithm_name(a) == name) return a;
  }
  return std::nullopt;
}

Graph TreeCase::materialize() const {
  Rng rng(graph_seed);
  if (substrate == Substrate::kGrid) {
    GridGraph grid(grid_width, grid_height);
    Graph g = grid.graph();
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      g.set_edge_weight(e, static_cast<Weight>(1 + rng.below(static_cast<std::uint64_t>(max_weight))));
    }
    return g;
  }
  // Random connected graph: spanning tree plus extra random edges (the
  // same shape tests/test_util.hpp builds, regenerated platform-portably).
  Graph g(static_cast<NodeId>(nodes));
  for (NodeId i = 1; i < static_cast<NodeId>(nodes); ++i) {
    const NodeId pred = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(i)));
    g.add_edge(i, pred, static_cast<Weight>(1 + rng.below(static_cast<std::uint64_t>(max_weight))));
  }
  for (int k = 0; k < extra_edges; ++k) {
    NodeId u = 0, v = 0;
    do {
      u = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(nodes)));
      v = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(nodes)));
    } while (u == v);
    g.add_edge(u, v, static_cast<Weight>(1 + rng.below(static_cast<std::uint64_t>(max_weight))));
  }
  return g;
}

Net TreeCase::net() const {
  Net n;
  if (terminals.empty()) return n;
  n.source = terminals[0];
  n.sinks.assign(terminals.begin() + 1, terminals.end());
  return n;
}

std::string TreeCase::describe() const {
  std::ostringstream os;
  os << "tree substrate=" << kSubstrateNames[static_cast<std::size_t>(substrate)]
     << " graph_seed=" << graph_seed << " nodes=" << nodes << " extra=" << extra_edges
     << " grid=" << grid_width << "x" << grid_height << " max_weight=" << max_weight
     << " algo=" << algorithm_name(algorithm)
     << " terminals=" << line_format::format_ids(terminals);
  return os.str();
}

std::optional<TreeCase> TreeCase::parse(const std::string& line) {
  using line_format::parse_uint;
  TreeCase c;
  const bool read = line_format::read_record(line, "tree", [&](std::string_view key,
                                                              std::string_view value) {
    if (key == "substrate") return parse_enum(value, kSubstrateNames, c.substrate);
    if (key == "graph_seed") return parse_uint(value, c.graph_seed);
    if (key == "nodes") return parse_uint(value, c.nodes);
    if (key == "extra") return parse_uint(value, c.extra_edges);
    if (key == "grid") return parse_ints<2>(value, 'x', {&c.grid_width, &c.grid_height});
    if (key == "max_weight") return parse_uint(value, c.max_weight);
    if (key == "algo") return parse_algorithm(value, c.algorithm);
    if (key == "terminals") return line_format::parse_id_list(value, c.terminals);
    return true;
  });
  // Also reject what materialize() cannot build: a zero weight range, extra
  // edges on a one-node graph, a grid whose node count overflows an int.
  const long long grid_nodes = static_cast<long long>(c.grid_width) * c.grid_height;
  if (!read || c.terminals.empty() || c.max_weight < 1 ||
      (c.substrate == Substrate::kRandomGraph && c.nodes < 2 && c.extra_edges > 0) ||
      (c.substrate == Substrate::kGrid && grid_nodes > std::numeric_limits<int>::max()) ||
      c.node_count() <= 0) {
    return std::nullopt;
  }
  for (const NodeId t : c.terminals) {
    if (t >= static_cast<NodeId>(c.node_count())) return std::nullopt;
  }
  return c;
}

ArchSpec CircuitCase::arch() const {
  return family == Family::kXc3000 ? ArchSpec::xc3000(rows, cols, width)
                                   : ArchSpec::xc4000(rows, cols, width);
}

Circuit CircuitCase::circuit() const {
  CircuitProfile profile;
  profile.name = "fuzz";
  profile.rows = rows;
  profile.cols = cols;
  profile.nets_2_3 = nets_2_3;
  profile.nets_4_10 = nets_4_10;
  profile.nets_over_10 = nets_over_10;
  return synthesize_circuit(profile, static_cast<unsigned>(synth_seed & 0xffffffffull));
}

RouterOptions CircuitCase::router_options() const {
  RouterOptions o;
  o.algorithm = algorithm;
  o.decompose_two_pin = decompose_two_pin;
  // Bound fuzz wall-clock: an instance the router cannot finish in 8 passes
  // is reported as a (valid) failure outcome, which the oracle still checks.
  o.max_passes = 8;
  o.node_budget = node_budget;
  if (negotiated) {
    o.mode = RouterMode::kNegotiated;
    // Negotiated mode routes whole nets only; a parsed line carrying both
    // knobs routes negotiated (the mode key is the later, more specific
    // intent). Same wall-clock bound rationale as max_passes above.
    o.decompose_two_pin = false;
    o.negotiate_passes = 8;
  }
  return o;
}

std::string CircuitCase::describe() const {
  std::ostringstream os;
  os << "circuit family=" << kFamilyNames[static_cast<std::size_t>(family)]
     << " rows=" << rows << " cols=" << cols << " width=" << width << " nets=" << nets_2_3
     << "," << nets_4_10 << "," << nets_over_10 << " synth_seed=" << synth_seed
     << " algo=" << algorithm_name(algorithm)
     << " decompose=" << kFlagNames[decompose_two_pin ? 1 : 0];
  // Non-default fields are emitted only when set so historical repro lines
  // round-trip byte-identically. The fault/budget keys were parsed but
  // never emitted before this block existed — a fault-oracle repro line
  // silently dropped its defect distribution on persist.
  const FaultSpec defaults{};
  if (faults.seed != defaults.seed) os << " fault_seed=" << faults.seed;
  if (faults.wire_permille != 0) os << " fault_wires=" << faults.wire_permille;
  if (faults.switch_permille != 0) os << " fault_switches=" << faults.switch_permille;
  if (faults.pin_permille != 0) os << " fault_pins=" << faults.pin_permille;
  if (faults.clusters != 0) os << " fault_clusters=" << faults.clusters;
  if (faults.cluster_radius != defaults.cluster_radius) {
    os << " fault_radius=" << faults.cluster_radius;
  }
  if (node_budget != 0) os << " budget=" << node_budget;
  if (negotiated) os << " mode=negotiated";
  if (repair_events != 0) {
    os << " repair_events=" << repair_events << " repair_seed=" << repair_seed;
  }
  if (repair_budget != 0) os << " repair_budget=" << repair_budget;
  return os.str();
}

std::optional<CircuitCase> CircuitCase::parse(const std::string& line) {
  using line_format::parse_uint;
  CircuitCase c;
  const bool read = line_format::read_record(line, "circuit", [&](std::string_view key,
                                                                 std::string_view value) {
    if (key == "family") return parse_enum(value, kFamilyNames, c.family);
    if (key == "rows") return parse_uint(value, c.rows);
    if (key == "cols") return parse_uint(value, c.cols);
    if (key == "width") return parse_uint(value, c.width);
    if (key == "nets") {
      return parse_ints<3>(value, ',', {&c.nets_2_3, &c.nets_4_10, &c.nets_over_10});
    }
    if (key == "synth_seed") return parse_uint(value, c.synth_seed);
    if (key == "algo") return parse_algorithm(value, c.algorithm);
    if (key == "decompose") return parse_enum(value, kFlagNames, c.decompose_two_pin);
    if (key == "fault_seed") return parse_uint(value, c.faults.seed);
    if (key == "fault_wires") return parse_uint(value, c.faults.wire_permille);
    if (key == "fault_switches") return parse_uint(value, c.faults.switch_permille);
    if (key == "fault_pins") return parse_uint(value, c.faults.pin_permille);
    if (key == "fault_clusters") return parse_uint(value, c.faults.clusters);
    if (key == "fault_radius") return parse_uint(value, c.faults.cluster_radius);
    if (key == "budget") return parse_uint(value, c.node_budget);
    // describe() writes only "negotiated"; "paper" names the default mode.
    if (key == "mode") return parse_enum(value, kModeNames, c.negotiated);
    if (key == "repair_events") return parse_uint(value, c.repair_events);
    if (key == "repair_seed") return parse_uint(value, c.repair_seed);
    if (key == "repair_budget") return parse_uint(value, c.repair_budget);
    return true;
  });
  if (!read || !c.arch().fits_ids() || !c.faults.valid()) return std::nullopt;
  // A seed without events names no repair case; describe() drops it too.
  if (c.repair_events == 0) c.repair_seed = 0;
  return c;
}

TreeCase generate_tree_case(std::uint64_t case_seed, int max_terminals,
                            std::span<const Algorithm> algorithms) {
  Rng rng(case_seed);
  TreeCase c;
  c.substrate = rng.below(2) == 0 ? TreeCase::Substrate::kRandomGraph
                                  : TreeCase::Substrate::kGrid;
  c.graph_seed = rng.next();
  c.nodes = rng.range(8, 36);
  c.extra_edges = rng.range(0, c.nodes);
  c.grid_width = rng.range(3, 9);
  c.grid_height = rng.range(3, 8);
  c.max_weight = rng.range(1, 12);
  c.algorithm = algorithms[rng.below(algorithms.size())];

  const int node_count = c.node_count();
  const int k = rng.range(2, std::min(max_terminals, node_count));
  while (static_cast<int>(c.terminals.size()) < k) {
    const NodeId v = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(node_count)));
    if (std::find(c.terminals.begin(), c.terminals.end(), v) == c.terminals.end()) {
      c.terminals.push_back(v);
    }
  }
  return c;
}

CircuitCase generate_circuit_case(std::uint64_t case_seed) {
  Rng rng(case_seed);
  CircuitCase c;
  c.family = rng.below(2) == 0 ? CircuitCase::Family::kXc3000 : CircuitCase::Family::kXc4000;
  c.rows = rng.range(3, 5);
  c.cols = rng.range(3, 5);
  c.width = rng.range(6, 10);
  c.nets_2_3 = rng.range(3, 9);
  c.nets_4_10 = rng.range(0, 3);
  c.nets_over_10 = rng.range(0, 1);
  c.synth_seed = rng.below(0xffffffffull);
  c.algorithm = table1_algorithms()[rng.below(table1_algorithms().size())];
  c.decompose_two_pin = rng.below(8) == 0;
  // Discarded draw (formerly a router thread count): removing it would
  // shift every later draw and with it the case stream seeded runs rely on.
  if (rng.below(4) == 0) rng.range(2, 4);
  // One case in eight is promoted to a large array (>= the tile-template
  // sampling floor of 7x7) so every oracle continuously cross-checks the
  // stamped builder, not just the legacy path the small grids take. Width
  // drops and net counts stay small to keep the case budget-friendly; the
  // override redraws are appended last.
  if (rng.below(8) == 0) {
    c.rows = rng.range(12, 16);
    c.cols = rng.range(12, 16);
    c.width = rng.range(5, 7);
    c.nets_4_10 = rng.range(0, 1);
    c.nets_over_10 = 0;
  }
  // A quarter of cases route in negotiated mode, so the general feasibility
  // oracle continuously replays both congestion strategies (the dedicated
  // negotiate oracle adds the contention-heavy distribution on top).
  // Appended last like the draws above.
  if (rng.below(4) == 0) {
    c.negotiated = true;
    c.decompose_two_pin = false;  // negotiated mode routes whole nets only
  }
  return c;
}

CircuitCase generate_fault_circuit_case(std::uint64_t case_seed) {
  CircuitCase c = generate_circuit_case(case_seed);
  Rng rng(mix64(case_seed, salt64("fault-case")));
  c.faults.seed = rng.next();
  // Moderate rates: high enough that most cases carry real defects, low
  // enough that many still route (both branches of the oracle exercised).
  c.faults.wire_permille = rng.range(0, 60);
  c.faults.switch_permille = rng.range(0, 60);
  c.faults.pin_permille = rng.range(0, 40);
  c.faults.clusters = rng.below(4) == 0 ? 1 : 0;
  c.faults.cluster_radius = 1;
  // Occasionally strangle the router mid-circuit: the oracle must hold for
  // partial budget-aborted results too.
  if (rng.below(4) == 0) c.node_budget = 20'000 + 1000 * rng.range(0, 40);
  return c;
}

CircuitCase generate_negotiated_circuit_case(std::uint64_t case_seed) {
  CircuitCase c = generate_circuit_case(case_seed);
  Rng rng(mix64(case_seed, salt64("negotiate-case")));
  c.negotiated = true;
  c.decompose_two_pin = false;  // negotiated mode routes whole nets only
  // Narrower channels than the base draw (6-10): negotiation is only
  // interesting when early passes actually share wires, and a roomy channel
  // converges on pass 1 without ever pricing anything.
  c.width = rng.range(4, 7);
  if (rng.below(4) == 0) {
    // Lighter fault rates than the fault generator: the negotiated loop has
    // no retry ladder, so heavily shredded devices mostly measure the
    // fault-blocked classifier instead of the negotiation contract.
    c.faults.seed = rng.next();
    c.faults.wire_permille = rng.range(0, 40);
    c.faults.switch_permille = rng.range(0, 40);
  }
  if (rng.below(8) == 0) c.node_budget = 20'000 + 1000 * rng.range(0, 40);
  return c;
}

CircuitCase generate_repair_circuit_case(std::uint64_t case_seed) {
  CircuitCase c = generate_circuit_case(case_seed);
  Rng rng(mix64(case_seed, salt64("repair-case")));
  c.repair_seed = rng.next();
  c.repair_events = rng.range(1, 4);
  if (rng.below(4) == 0) {
    // A slice layers the events on top of an installed defect distribution:
    // repair must compose with spec faults (retry ladders engaged, overlay
    // and distribution both avoided). Lighter rates than the fault
    // generator so most seeds still route before the first event.
    c.faults.seed = rng.next();
    c.faults.wire_permille = rng.range(0, 40);
    c.faults.switch_permille = rng.range(0, 30);
  }
  // A slice strangles individual events: budget aborts must degrade
  // gracefully (kAbortedBudget cone nets, byte-stable rest) and replay
  // bit-identically.
  if (rng.below(4) == 0) c.repair_budget = 2'000 + 1000 * rng.range(0, 20);
  return c;
}

}  // namespace fpr::check
