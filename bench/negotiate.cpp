// Negotiated-congestion router bench: paper mode vs negotiated mode over
// the smallest Table 2/3 circuits — minimum channel width, passes at that
// width, route time per net, the nets re-routed over all passes (pass 1
// routes every net, later passes only the nets on overflowed wires), and
// the pattern-probe acceptance ratio (the fast path's quality measure). Every negotiated minimum-width witness is
// replayed through the negotiate feasibility oracle before it is reported,
// so a number in this table is also a verified solution.
//
// Writes a machine-readable record with --json <path>; the committed
// baseline is BENCH_negotiate.json.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "check/oracles.hpp"
#include "netlist/profiles.hpp"
#include "netlist/synth.hpp"
#include "router/router.hpp"
#include "router/width_search.hpp"

namespace {

using namespace fpr;

struct BenchCase {
  std::string name;
  ArchSpec base;  // width 1: the search variable
  Circuit circuit;
  int paper_width_quoted = 0;  // the paper's IKMB column, for context
};

std::vector<BenchCase> bench_cases() {
  std::vector<BenchCase> cases;
  const auto add = [&cases](const CircuitProfile& p, bool xc4000, unsigned seed) {
    cases.push_back({p.name,
                     xc4000 ? ArchSpec::xc4000(p.rows, p.cols, 1)
                            : ArchSpec::xc3000(p.rows, p.cols, 1),
                     synthesize_circuit(p, seed), p.paper_ikmb});
  };
  add(xc3000_profiles()[0], false, 31);  // busc
  add(xc3000_profiles()[1], false, 31);  // dma
  add(xc4000_profiles()[2], true, 7);    // term1
  if (bench::full_mode()) {
    add(xc3000_profiles()[2], false, 31);  // bnre
    add(xc3000_profiles()[3], false, 31);  // dfsm
    add(xc4000_profiles()[0], true, 7);    // 9symml
  }
  return cases;
}

struct ModeRow {
  int min_width = -1;
  int passes = 0;
  long long reroutes = 0;  // nets (re-)routed, summed over passes
  double seconds_at_min = 0;
  long long pattern_attempts = 0;
  long long pattern_accepts = 0;
};

/// Minimum channel width in `mode`, then one timed re-route at that width
/// (the timed run is what the per-net cost is quoted from; the width search
/// itself probes many widths and would smear the timing).
ModeRow run_mode(const BenchCase& bc, RouterMode mode) {
  RouterOptions options;
  options.mode = mode;
  options.max_passes = 20;
  options.negotiate_passes = 20;
  WidthSearchOptions search;
  search.max_width = 30;

  ModeRow row;
  const auto found = find_min_channel_width(bc.base, bc.circuit, options, search);
  row.min_width = found.min_width;
  if (row.min_width < 0) return row;

  ArchSpec at_min = bc.base;
  at_min.channel_width = row.min_width;
  Device device(at_min);
  const bench::Stopwatch watch;
  const RoutingResult r = route_circuit(device, bc.circuit, options);
  row.seconds_at_min = watch.seconds();
  row.passes = r.passes;
  for (const int n : r.reroute_trend) row.reroutes += n;
  row.pattern_attempts = r.pattern_attempts;
  row.pattern_accepts = r.pattern_accepts;

  if (mode == RouterMode::kNegotiated) {
    const auto check = check::check_routing_feasibility(at_min, bc.circuit, r, options);
    if (!check.ok()) {
      std::fprintf(stderr, "FATAL: %s negotiated witness failed the oracle:\n%s\n",
                   bc.name.c_str(), check.message().c_str());
      std::exit(1);
    }
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = bench::json_output_path(argc, argv);
  bench::banner("Negotiated congestion vs paper mode: min width, passes, pattern fast path");
  bench::report_threads();
  std::printf("\n%-8s %6s | %5s %6s %9s | %5s %6s %8s %9s %9s\n", "circuit", "paper*", "width",
              "passes", "us/net", "width", "passes", "reroutes", "us/net", "pat-acc");
  std::printf("%-8s %6s | %21s | %40s\n", "", "(quoted)", "paper mode", "negotiated mode");

  bench::Json rows = bench::Json::array();
  for (const BenchCase& bc : bench_cases()) {
    const ModeRow paper = run_mode(bc, RouterMode::kPaper);
    const ModeRow negotiated = run_mode(bc, RouterMode::kNegotiated);
    const double nets = static_cast<double>(bc.circuit.nets.size());
    const double accept_rate =
        negotiated.pattern_attempts > 0
            ? static_cast<double>(negotiated.pattern_accepts) /
                  static_cast<double>(negotiated.pattern_attempts)
            : 0.0;
    std::printf("%-8s %6d | %5d %6d %9.1f | %5d %6d %8lld %9.1f %8.0f%%\n", bc.name.c_str(),
                bc.paper_width_quoted, paper.min_width, paper.passes,
                paper.seconds_at_min * 1e6 / nets, negotiated.min_width, negotiated.passes,
                negotiated.reroutes, negotiated.seconds_at_min * 1e6 / nets,
                accept_rate * 100.0);

    bench::Json row = bench::Json::object();
    row.field("case", bc.name);
    row.field("nets", static_cast<int>(bc.circuit.nets.size()));
    row.field("paper_quoted_width", bc.paper_width_quoted);
    row.field("paper_min_width", paper.min_width);
    row.field("paper_passes", paper.passes);
    row.field("paper_us_per_net", paper.seconds_at_min * 1e6 / nets);
    row.field("negotiated_min_width", negotiated.min_width);
    row.field("negotiated_passes", negotiated.passes);
    row.field("negotiated_reroutes", negotiated.reroutes);
    row.field("negotiated_us_per_net", negotiated.seconds_at_min * 1e6 / nets);
    row.field("pattern_attempts", negotiated.pattern_attempts);
    row.field("pattern_accepts", negotiated.pattern_accepts);
    rows.element(row);
  }

  if (json_path != nullptr) {
    bench::Json doc = bench::Json::object();
    doc.field("bench", "negotiate_router");
    doc.field("timestamp", bench::iso_timestamp());
    doc.field("full_mode", bench::full_mode());
    doc.field("rows", rows);
    if (bench::write_json(json_path, doc)) {
      std::printf("\nwrote %s\n", json_path);
    } else {
      return 1;
    }
  }
  std::printf("\n(*) paper-quoted IKMB width, for context; measured widths are this repo's.\n");
  return 0;
}
