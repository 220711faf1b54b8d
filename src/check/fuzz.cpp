#include "check/fuzz.hpp"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "check/oracles.hpp"
#include "check/shrink.hpp"

namespace fpr::check {

namespace {

constexpr std::array<Oracle, 7> kOracles{
    Oracle::kTreeValidity,
    Oracle::kApproxBound,
    Oracle::kMonotonic,
    Oracle::kFeasibility,
    Oracle::kFaults,
    Oracle::kNegotiate,
    Oracle::kRepair,
};

/// Validity fuzzes every construction including the exact solvers (whose
/// output must be structurally sound too); the bound and monotonicity
/// oracles compare the eight heuristics against the exact references.
constexpr std::array<Algorithm, 10> kValidityAlgorithms{
    Algorithm::kKmb,  Algorithm::kZel, Algorithm::kIkmb,      Algorithm::kIzel,
    Algorithm::kDjka, Algorithm::kDom, Algorithm::kPfa,       Algorithm::kIdom,
    Algorithm::kExactGmst,             Algorithm::kExactGsa,
};
constexpr std::array<Algorithm, 8> kHeuristicAlgorithms{
    Algorithm::kKmb,  Algorithm::kZel, Algorithm::kIkmb, Algorithm::kIzel,
    Algorithm::kDjka, Algorithm::kDom, Algorithm::kPfa,  Algorithm::kIdom,
};

CheckResult run_tree_oracle(Oracle oracle, const TreeCase& c, int max_terminals) {
  const Graph g = c.materialize();
  const Net net = c.net();
  switch (oracle) {
    case Oracle::kTreeValidity: {
      PathOracle paths(g);
      const RoutingTree tree = route(g, net, c.algorithm, paths);
      const std::vector<NodeId> terminals = net.terminals();
      return check_tree_validity(g, terminals, tree);
    }
    case Oracle::kApproxBound:
      return check_approximation_bound(g, net, c.algorithm, max_terminals);
    case Oracle::kMonotonic:
      return check_iterated_monotonicity(g, net);
    case Oracle::kFeasibility:
    case Oracle::kFaults:
    case Oracle::kNegotiate:
    case Oracle::kRepair:
      break;  // not tree-level oracles
  }
  CheckResult r;
  r.fail("internal: tree case routed to a non-tree oracle");
  return r;
}

/// Derives the repair case's ECO event list from the initially routed
/// state, deterministically from repair_seed. The draws skew toward killing
/// wires real nets committed (nonempty cones), with slices for untouched
/// wires (the no-op path), net removals, pin changes, and new nets.
std::vector<RepairEvent> derive_repair_events(const Device& device, const Circuit& circuit,
                                              const RoutingResult& seed_route,
                                              const CircuitCase& c) {
  Rng rng(c.repair_seed);
  std::vector<NodeId> used;
  for (const NetCommitLog& log : seed_route.commit_logs) {
    used.insert(used.end(), log.wires.begin(), log.wires.end());
  }
  std::sort(used.begin(), used.end());
  const Graph& g = device.graph();
  const NodeId first_wire = g.node_count() - device.wire_count();
  const auto random_pin = [&]() {
    return PinRef{rng.range(0, c.cols - 1), rng.range(0, c.rows - 1)};
  };

  std::vector<RepairEvent> events;
  for (int k = 0; k < c.repair_events; ++k) {
    RepairEvent ev;
    ev.budget = c.repair_budget;
    const std::uint64_t draw = rng.below(8);
    if (draw < 4 && !used.empty()) {
      // Kill one or two wires the seed route committed somewhere.
      const int kills = 1 + static_cast<int>(rng.below(2));
      for (int j = 0; j < kills; ++j) {
        ev.faults.dead_wires.push_back(used[rng.below(used.size())]);
      }
      ev.faults.normalize();
    } else if (draw == 4 && device.wire_count() > 0) {
      // Kill a random wire node — often one no net touches (no-op cones).
      ev.faults.dead_wires.push_back(
          first_wire + static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(device.wire_count()))));
    } else if (draw == 5 && !circuit.nets.empty()) {
      ev.removed.push_back(static_cast<int>(rng.below(circuit.nets.size())));
    } else if (draw == 6 && !circuit.nets.empty()) {
      const int idx = static_cast<int>(rng.below(circuit.nets.size()));
      CircuitNet net = circuit.nets[static_cast<std::size_t>(idx)];
      net.sinks.push_back(random_pin());
      ev.changed.emplace_back(idx, std::move(net));
    } else {
      CircuitNet net;
      net.source = random_pin();
      const int sinks = rng.range(1, 2);
      for (int s = 0; s < sinks; ++s) net.sinks.push_back(random_pin());
      ev.added.push_back(std::move(net));
    }
    events.push_back(std::move(ev));
  }
  return events;
}

CheckResult run_repair_oracle(const CircuitCase& c) {
  const ArchSpec arch = c.arch();
  const Circuit circuit = c.circuit();
  const RouterOptions options = c.router_options();
  // Preliminary route purely to derive the events (the router is
  // deterministic, so check_repair's own seed route is identical).
  Device device(arch);
  if (c.faults.any()) device.install_faults(c.faults);
  RouterOptions probe_options = options;
  probe_options.record_commits = true;
  const RoutingResult seed_route = route_circuit(device, circuit, probe_options);
  const std::vector<RepairEvent> events = derive_repair_events(device, circuit, seed_route, c);
  return check_repair(arch, circuit, options, c.faults.any() ? &c.faults : nullptr, events);
}

CheckResult run_circuit_oracle(Oracle oracle, const CircuitCase& c) {
  if (oracle == Oracle::kRepair) return run_repair_oracle(c);
  const ArchSpec arch = c.arch();
  const Circuit circuit = c.circuit();
  const RouterOptions options = c.router_options();
  Device device(arch);
  if (c.faults.any()) device.install_faults(c.faults);
  const RoutingResult result = route_circuit(device, circuit, options);
  CheckResult r = check_routing_feasibility(arch, circuit, result, options,
                                            c.faults.any() ? &c.faults : nullptr);
  // A fresh negotiated route attempts every net in pass 1 (the shared
  // check above only bounds it: a repaired result may have grown since).
  if (options.mode == RouterMode::kNegotiated && !result.reroute_trend.empty() &&
      result.reroute_trend.front() != static_cast<int>(circuit.nets.size())) {
    std::ostringstream os;
    os << "reroute_trend says pass 1 attempted " << result.reroute_trend.front() << " of "
       << circuit.nets.size() << " nets";
    r.fail(os.str());
  }
  return r;
}

bool is_circuit_oracle(Oracle o) {
  return o == Oracle::kFeasibility || o == Oracle::kFaults || o == Oracle::kNegotiate ||
         o == Oracle::kRepair;
}

void persist_failure(FuzzFailure& f, const FuzzOptions& options) {
  if (options.failure_dir.empty()) return;
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(options.failure_dir, ec);
  std::ostringstream name;
  name << oracle_name(f.oracle) << "-seed" << f.case_seed << ".repro";
  const fs::path path = fs::path(options.failure_dir) / name.str();
  std::ofstream out(path);
  if (!out) return;
  out << "# fpr fuzz repro — replay with: fuzz_fpr --replay " << path.string() << "\n"
      << "oracle: " << oracle_name(f.oracle) << "\n"
      << "case_seed: " << f.case_seed << "\n"
      << "violations: " << f.message << "\n"
      << "case: " << f.repro << "\n";
  f.file = path.string();
}

}  // namespace

std::string_view oracle_name(Oracle o) {
  switch (o) {
    case Oracle::kTreeValidity: return "validity";
    case Oracle::kApproxBound: return "approx";
    case Oracle::kMonotonic: return "monotonic";
    case Oracle::kFeasibility: return "feasibility";
    case Oracle::kFaults: return "faults";
    case Oracle::kNegotiate: return "negotiate";
    case Oracle::kRepair: return "repair";
  }
  return "?";
}

std::optional<Oracle> parse_oracle(std::string_view name) {
  for (const Oracle o : kOracles) {
    if (oracle_name(o) == name) return o;
  }
  return std::nullopt;
}

std::span<const Oracle> all_oracles() { return kOracles; }

std::optional<CheckResult> run_case(Oracle oracle, const std::string& case_line,
                                    int max_terminals) {
  if (is_circuit_oracle(oracle)) {
    const auto c = CircuitCase::parse(case_line);
    if (!c) return std::nullopt;
    return run_circuit_oracle(oracle, *c);
  }
  const auto c = TreeCase::parse(case_line);
  if (!c) return std::nullopt;
  return run_tree_oracle(oracle, *c, max_terminals);
}

FuzzReport fuzz(const FuzzOptions& options) {
  FuzzReport report;
  const std::vector<Oracle> oracles =
      options.oracles.empty() ? std::vector<Oracle>(kOracles.begin(), kOracles.end())
                              : options.oracles;

  for (const Oracle oracle : oracles) {
    int oracle_failures = 0;
    int oracle_iterations = 0;
    for (int i = 0; i < options.iterations; ++i) {
      ++oracle_iterations;
      const std::uint64_t case_seed =
          mix64(mix64(options.seed, static_cast<std::uint64_t>(oracle) + 1),
                static_cast<std::uint64_t>(i));

      CheckResult result;
      std::string case_line;
      if (is_circuit_oracle(oracle)) {
        CircuitCase c = oracle == Oracle::kFaults      ? generate_fault_circuit_case(case_seed)
                        : oracle == Oracle::kNegotiate ? generate_negotiated_circuit_case(case_seed)
                        : oracle == Oracle::kRepair    ? generate_repair_circuit_case(case_seed)
                                                       : generate_circuit_case(case_seed);
        if (!options.algorithms.empty()) {
          c.algorithm = options.algorithms[mix64(case_seed, 0x5eed) % options.algorithms.size()];
        }
        result = run_circuit_oracle(oracle, c);
        if (!result.ok()) {
          if (options.shrink) {
            c = shrink_circuit_case(c, [oracle](const CircuitCase& cand) {
              return !run_circuit_oracle(oracle, cand).ok();
            });
          }
          result = run_circuit_oracle(oracle, c);
          case_line = c.describe();
        }
      } else {
        const std::span<const Algorithm> algorithms =
            !options.algorithms.empty() ? std::span<const Algorithm>(options.algorithms)
            : oracle == Oracle::kTreeValidity
                ? std::span<const Algorithm>(kValidityAlgorithms)
                : std::span<const Algorithm>(kHeuristicAlgorithms);
        TreeCase c = generate_tree_case(case_seed, options.max_terminals, algorithms);
        result = run_tree_oracle(oracle, c, options.max_terminals);
        if (!result.ok()) {
          if (options.shrink) {
            c = shrink_tree_case(c, [&](const TreeCase& cand) {
              return !run_tree_oracle(oracle, cand, options.max_terminals).ok();
            });
          }
          result = run_tree_oracle(oracle, c, options.max_terminals);
          case_line = c.describe();
        }
      }

      ++report.iterations;
      if (result.ok()) continue;

      FuzzFailure f;
      f.oracle = oracle;
      f.case_seed = case_seed;
      f.iteration = i;
      f.message = result.message();
      f.repro = case_line;
      persist_failure(f, options);
      if (options.log != nullptr) {
        *options.log << "FAIL [" << oracle_name(oracle) << "] iteration " << i << " case_seed "
                     << case_seed << "\n  minimized: " << f.repro
                     << "\n  violations: " << f.message << "\n";
        if (!f.file.empty()) {
          *options.log << "  persisted: " << f.file << "\n";
        }
      }
      report.failures.push_back(std::move(f));
      if (++oracle_failures >= options.max_failures) {
        if (options.log != nullptr) {
          *options.log << "[" << oracle_name(oracle) << "] stopping after " << oracle_failures
                       << " failures\n";
        }
        break;
      }
    }
    if (options.log != nullptr) {
      *options.log << "[" << oracle_name(oracle) << "] " << oracle_iterations << " iterations, "
                   << oracle_failures << " failure(s)\n";
    }
  }
  return report;
}

std::optional<CheckResult> replay_file(const std::string& path, std::ostream& log) {
  std::ifstream in(path);
  if (!in) {
    log << "cannot open " << path << "\n";
    return std::nullopt;
  }
  std::optional<Oracle> oracle;
  std::string case_line;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("oracle: ", 0) == 0) {
      oracle = parse_oracle(line.substr(8));
    } else if (line.rfind("case: ", 0) == 0) {
      case_line = line.substr(6);
    }
  }
  if (!oracle || case_line.empty()) {
    log << "no oracle/case recorded in " << path << "\n";
    return std::nullopt;
  }
  const auto result = run_case(*oracle, case_line);
  if (!result) {
    log << "unparsable case line in " << path << ": " << case_line << "\n";
    return std::nullopt;
  }
  log << "[" << oracle_name(*oracle) << "] " << case_line << "\n";
  if (result->ok()) {
    log << "PASS: the case no longer violates the oracle\n";
  } else {
    log << "FAIL: " << result->message() << "\n";
  }
  return result;
}

}  // namespace fpr::check
