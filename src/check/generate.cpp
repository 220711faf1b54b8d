#include "check/generate.hpp"

#include <algorithm>
#include <array>
#include <sstream>

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

/// Splits "key=value" tokens of a case line into (key, value) pairs.
std::vector<std::pair<std::string, std::string>> tokenize(const std::string& line) {
  std::vector<std::pair<std::string, std::string>> out;
  std::istringstream is(line);
  std::string token;
  while (is >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      out.emplace_back(token, "");
    } else {
      out.emplace_back(token.substr(0, eq), token.substr(eq + 1));
    }
  }
  return out;
}

std::vector<NodeId> parse_id_list(const std::string& text) {
  std::vector<NodeId> out;
  std::istringstream is(text);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(static_cast<NodeId>(std::stol(item)));
  }
  return out;
}

std::string format_id_list(std::span<const NodeId> ids) {
  std::string out;
  for (const NodeId v : ids) {
    if (!out.empty()) out += ',';
    out += std::to_string(v);
  }
  return out;
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
  os << "tree substrate=" << (substrate == Substrate::kGrid ? "grid" : "random")
     << " graph_seed=" << graph_seed << " nodes=" << nodes << " extra=" << extra_edges
     << " grid=" << grid_width << "x" << grid_height << " max_weight=" << max_weight
     << " algo=" << algorithm_name(algorithm) << " terminals=" << format_id_list(terminals);
  return os.str();
}

std::optional<TreeCase> TreeCase::parse(const std::string& line) {
  const auto tokens = tokenize(line);
  if (tokens.empty() || tokens[0].first != "tree") return std::nullopt;
  TreeCase c;
  for (const auto& [key, value] : tokens) {
    if (key == "substrate") {
      c.substrate = value == "grid" ? Substrate::kGrid : Substrate::kRandomGraph;
    } else if (key == "graph_seed") {
      c.graph_seed = std::stoull(value);
    } else if (key == "nodes") {
      c.nodes = std::stoi(value);
    } else if (key == "extra") {
      c.extra_edges = std::stoi(value);
    } else if (key == "grid") {
      const auto x = value.find('x');
      if (x == std::string::npos) return std::nullopt;
      c.grid_width = std::stoi(value.substr(0, x));
      c.grid_height = std::stoi(value.substr(x + 1));
    } else if (key == "max_weight") {
      c.max_weight = std::stoi(value);
    } else if (key == "algo") {
      const auto a = algorithm_from_name(value);
      if (!a) return std::nullopt;
      c.algorithm = *a;
    } else if (key == "terminals") {
      c.terminals = parse_id_list(value);
    }
  }
  if (c.terminals.empty() || c.node_count() <= 0) return std::nullopt;
  for (const NodeId t : c.terminals) {
    if (t < 0 || t >= static_cast<NodeId>(c.node_count())) return std::nullopt;
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
  os << "circuit family=" << (family == Family::kXc3000 ? "xc3000" : "xc4000")
     << " rows=" << rows << " cols=" << cols << " width=" << width << " nets=" << nets_2_3
     << "," << nets_4_10 << "," << nets_over_10 << " synth_seed=" << synth_seed
     << " algo=" << algorithm_name(algorithm) << " decompose=" << (decompose_two_pin ? 1 : 0);
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
  const auto tokens = tokenize(line);
  if (tokens.empty() || tokens[0].first != "circuit") return std::nullopt;
  CircuitCase c;
  for (const auto& [key, value] : tokens) {
    if (key == "family") {
      c.family = value == "xc3000" ? Family::kXc3000 : Family::kXc4000;
    } else if (key == "rows") {
      c.rows = std::stoi(value);
    } else if (key == "cols") {
      c.cols = std::stoi(value);
    } else if (key == "width") {
      c.width = std::stoi(value);
    } else if (key == "nets") {
      const auto counts = parse_id_list(value);
      if (counts.size() != 3) return std::nullopt;
      c.nets_2_3 = counts[0];
      c.nets_4_10 = counts[1];
      c.nets_over_10 = counts[2];
    } else if (key == "synth_seed") {
      c.synth_seed = std::stoull(value);
    } else if (key == "algo") {
      const auto a = algorithm_from_name(value);
      if (!a) return std::nullopt;
      c.algorithm = *a;
    } else if (key == "decompose") {
      c.decompose_two_pin = value == "1";
    } else if (key == "fault_seed") {
      c.faults.seed = std::stoull(value);
    } else if (key == "fault_wires") {
      c.faults.wire_permille = std::stoi(value);
    } else if (key == "fault_switches") {
      c.faults.switch_permille = std::stoi(value);
    } else if (key == "fault_pins") {
      c.faults.pin_permille = std::stoi(value);
    } else if (key == "fault_clusters") {
      c.faults.clusters = std::stoi(value);
    } else if (key == "fault_radius") {
      c.faults.cluster_radius = std::stoi(value);
    } else if (key == "budget") {
      c.node_budget = std::stoll(value);
    } else if (key == "mode") {
      if (value != "negotiated" && value != "paper") return std::nullopt;
      c.negotiated = value == "negotiated";
    } else if (key == "repair_events") {
      c.repair_events = std::stoi(value);
    } else if (key == "repair_seed") {
      c.repair_seed = std::stoull(value);
    } else if (key == "repair_budget") {
      c.repair_budget = std::stoll(value);
    }
  }
  if (c.rows < 1 || c.cols < 1 || c.width < 1) return std::nullopt;
  if (!c.faults.valid() || c.node_budget < 0) return std::nullopt;
  if (c.repair_events < 0 || c.repair_budget < 0) return std::nullopt;
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
