// Minimal command-line router: load a circuit file (see src/io/text_io.hpp
// for the format; export_benchmarks writes compatible files), route it on a
// Xilinx-style device at the given channel width, and report the outcome.
//
// Usage: route_cli [--repair <events-file>] <circuit.net> [width]
//                  [xc3000|xc4000] [ikmb|pfa|idom] [paper|negotiated]
// With no positional arguments it routes a built-in demo circuit.
//
// --repair streams an ECO scenario: after the initial route, each line of
// <events-file> (RepairEvent::describe format, e.g. "repair wires=12,40";
// blank lines and # comments skipped) is applied through the incremental
// repair engine, and the per-event RepairOutcome line is printed — the same
// text a repair journal records.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/line_format.hpp"
#include "experiments/tables23.hpp"
#include "io/text_io.hpp"
#include "netlist/synth.hpp"
#include "router/repair.hpp"
#include "router/router.hpp"

int main(int argc, char** argv) {
  using namespace fpr;

  std::string events_path;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--repair") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --repair needs an events file\n");
        return 1;
      }
      events_path = argv[++i];
    } else {
      args.emplace_back(argv[i]);
    }
  }

  Circuit circuit;
  if (!args.empty()) {
    const auto loaded = load_circuit(args[0]);
    if (!loaded) {
      std::fprintf(stderr, "error: cannot read circuit file '%s'\n", args[0].c_str());
      return 1;
    }
    circuit = *loaded;
  } else {
    std::printf("(no circuit file given; routing the built-in term1 demo)\n");
    circuit = synthesize_circuit(xc4000_profiles()[2], 1995);
  }

  int width = 8;
  if (args.size() >= 2 && (!line_format::parse_uint(args[1], width) || width < 1)) {
    std::fprintf(stderr, "error: width must be a positive integer, got '%s'\n", args[1].c_str());
    return 1;
  }
  const bool xc3000 = args.size() >= 3 && args[2] == "xc3000";
  const ArchSpec arch = xc3000 ? ArchSpec::xc3000(circuit.rows, circuit.cols, width)
                               : ArchSpec::xc4000(circuit.rows, circuit.cols, width);

  RouterOptions options;
  if (args.size() >= 4) {
    const std::string& algo = args[3];
    if (algo == "pfa") options.algorithm = Algorithm::kPfa;
    else if (algo == "idom") options.algorithm = Algorithm::kIdom;
    else if (algo != "ikmb") {
      std::fprintf(stderr, "error: unknown algorithm '%s'\n", algo.c_str());
      return 1;
    }
  }

  if (args.size() >= 5) {
    const std::string& mode = args[4];
    if (mode == "negotiated") options.mode = RouterMode::kNegotiated;
    else if (mode != "paper") {
      std::fprintf(stderr, "error: unknown router mode '%s'\n", mode.c_str());
      return 1;
    }
  }
  // Repair rips up by exact commit-log subtraction, so the seed route must
  // record per-net logs.
  options.record_commits = !events_path.empty();

  std::printf("Routing '%s' (%zu nets) on %s with %s (%s mode)...\n", circuit.name.c_str(),
              circuit.nets.size(), arch.describe().c_str(),
              algorithm_name(options.algorithm).data(),
              router_mode_name(options.mode).data());
  Device device(arch);
  RoutingResult result = route_circuit(device, circuit, options);
  if (!result.success) {
    std::printf("UNROUTABLE at W=%d: %d nets failed after %d passes\n", width,
                result.failed_nets, result.passes);
    return 2;
  }
  std::printf("SUCCESS in %d pass(es)\n", result.passes);
  if (options.mode == RouterMode::kNegotiated && result.pattern_attempts > 0) {
    std::printf("  pattern fast path:      %lld of %lld two-pin probes accepted\n",
                result.pattern_accepts, result.pattern_attempts);
  }
  std::printf("  wire segments used:     %d of %d\n", result.total_wire_nodes,
              device.wire_count());
  std::printf("  physical wirelength:    %ld hops\n", result.total_physical_wirelength);
  std::printf("  sum of max pathlengths: %ld hops\n", result.total_physical_max_path);
  std::printf("  routed metric: wire %.0f, max paths %.0f (optimal %.0f)\n",
              result.total_wirelength, result.total_max_pathlength,
              result.total_optimal_max_pathlength);

  if (events_path.empty()) return 0;

  std::ifstream in(events_path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read events file '%s'\n", events_path.c_str());
    return 1;
  }
  std::printf("\nApplying ECO events from %s:\n", events_path.c_str());
  std::string line;
  int line_no = 0;
  int applied = 0;
  bool all_clean = true;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    const auto event = RepairEvent::parse(line);
    if (!event) {
      std::fprintf(stderr, "error: %s:%d: not a repair event: %s\n", events_path.c_str(),
                   line_no, line.c_str());
      return 1;
    }
    const RepairOutcome outcome = repair_route(device, circuit, result, *event, options);
    ++applied;
    all_clean = all_clean && outcome.clean();
    std::printf("  %s\n    %s\n", event->describe().c_str(), outcome.describe().c_str());
  }
  std::printf("%d event(s) applied; %s after repair (%d of %zu nets routed)\n", applied,
              result.success ? "ROUTED" : "DEGRADED", static_cast<int>(result.nets.size()) -
              result.failed_nets, result.nets.size());
  return all_clean && result.success ? 0 : 3;
}
