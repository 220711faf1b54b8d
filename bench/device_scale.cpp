// Device-scale sweep: build + route symmetrical arrays from 25x25 to
// 200x200 with the legacy per-element graph builder and the tile-template
// stamper (DESIGN.md §12), recording peak RSS, graph-build time, and route
// time per case. This is the committed evidence for the template builder's
// scaling claim (BENCH_device_scale.json): same routed bits, a fraction of
// the memory and build time. The record names the host's core count, the
// build type and the git revision it was measured at.
//
// Each (builder, size) case runs in its OWN child process (this binary
// re-invoked with --child) so getrusage's ru_maxrss high-water mark
// measures exactly one build+route and nothing else — an in-line sweep
// would report every case at the footprint of the largest one. The parent
// only parses one RESULT line per child and aggregates.
//
// A legacy (materialized) graph builds its flat adjacency from its
// incident lists on first use. A tiled graph at or below
// Graph::kFlatAdjacencyMaxEdges (the 25x25 and 40x40 cases) stamps it
// during the build instead, which the graph-RSS column includes; above the
// cut the Dijkstra engine synthesizes adjacency from the template and the
// child's peak is search-arena-dominated. Each case records which side it
// ran on (`tiled_adjacency`).
//
// CI smoke mode: `device_scale --smoke <n> --max-rss-kb <k>` runs the
// tiled build+route at n x n in-process and fails (exit 1) if the route
// does not complete or the peak RSS exceeds the envelope.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "fpga/device.hpp"
#include "fpga/tile_template.hpp"
#include "netlist/netlist.hpp"
#include "router/router.hpp"

namespace {

using namespace fpr;

constexpr int kWidth = 12;  // a realistic XC4000-class channel width

/// Deterministic cross-array workload scaled to the device: corner-to-
/// corner, center fan-out, and spanning bus nets. Small enough that the
/// route phase finishes in seconds at 200x200, spread enough that every
/// quadrant's template cells get traversed.
Circuit scale_circuit(int n) {
  Circuit c;
  c.name = "scale-" + std::to_string(n);
  c.rows = n;
  c.cols = n;
  const int m = n / 2, q = n / 4;
  c.nets.push_back({{0, 0}, {{n - 1, n - 1}}});
  c.nets.push_back({{0, n - 1}, {{n - 1, 0}, {m, m}}});
  c.nets.push_back({{m, 0}, {{m, n - 1}}});
  c.nets.push_back({{0, m}, {{n - 1, m}}});
  c.nets.push_back({{q, q}, {{3 * q, q}, {q, 3 * q}, {3 * q, 3 * q}}, true});
  c.nets.push_back({{m, m}, {{m + 1, m}, {m, m + 1}, {m - 1, m - 1}}});
  c.nets.push_back({{1, 1}, {{q, m}}});
  c.nets.push_back({{n - 2, n - 2}, {{3 * q, m}}});
  return c;
}

/// FNV-1a over every routed net's edge list — one 64-bit word that differs
/// if any net's route differs by a single edge. Comparing the legacy and
/// tiled digests per size is the sweep's bit-identity check.
std::uint64_t route_digest(const RoutingResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(r.nets.size()));
  for (const NetRouteResult& net : r.nets) {
    mix(static_cast<std::uint64_t>(net.status));
    for (const EdgeId e : net.edges) mix(static_cast<std::uint64_t>(e));
  }
  return h;
}

struct CaseResult {
  double build_s = 0;      // device construction + route-ready adjacency
  double route_s = 0;
  long build_rss_kib = 0;  // peak RSS at the route-ready point
  long rss_kib = 0;        // peak RSS over the whole child (build + route)
  long long nodes = 0;
  long long edges = 0;
  std::uint64_t digest = 0;
  int routed_nets = 0;
  bool flat = false;  // tiled graph on the flat-adjacency side of the cut
  bool ok = false;
};

/// The measured body, run inside the child process: build, then route.
///
/// "Build" ends when the device is route-ready. For the legacy builder
/// that includes building the flat adjacency from the incident lists — the
/// Dijkstra engine demands it on the first search, so it is part of the
/// representation's true footprint. The tiled build has already stamped it
/// below the size cut; above it the engine reads adjacency straight out of
/// the template, which is most of the memory win.
CaseResult run_case(bool tiled, int n) {
  CaseResult r;
  const ArchSpec spec = ArchSpec::xc4000(n, n, kWidth);
  const bench::Stopwatch build_watch;
  Device device(spec, tiled ? DeviceBuild::kAuto : DeviceBuild::kLegacy);
  r.flat = device.graph().flat_adjacency() != nullptr;
  r.build_s = build_watch.seconds();
  r.build_rss_kib = bench::peak_rss_kib();
  if (device.tiled() != tiled) {
    std::fprintf(stderr, "error: requested %s build, got %s\n", tiled ? "tiled" : "legacy",
                 device.tiled() ? "tiled" : "legacy");
    return r;
  }
  r.nodes = device.graph().node_count();
  r.edges = device.graph().edge_count();

  RouterOptions options;
  options.threads = 1;  // one case per child; keep the child single-threaded
  const Circuit circuit = scale_circuit(n);
  const bench::Stopwatch route_watch;
  const RoutingResult routed = route_circuit(device, circuit, options);
  r.route_s = route_watch.seconds();
  r.digest = route_digest(routed);
  for (const NetRouteResult& net : routed.nets) r.routed_nets += net.routed() ? 1 : 0;
  r.rss_kib = bench::peak_rss_kib();
  r.ok = r.routed_nets == static_cast<int>(circuit.nets.size());
  return r;
}

/// Child mode: one case, one RESULT line on stdout, nothing else.
int child_main(const char* builder, int n) {
  const bool tiled = std::strcmp(builder, "tiled") == 0;
  const CaseResult r = run_case(tiled, n);
  std::printf("RESULT build_s=%.6f route_s=%.6f build_rss_kib=%ld rss_kib=%ld nodes=%lld "
              "edges=%lld digest=%016" PRIx64 " routed=%d flat=%d ok=%d\n",
              r.build_s, r.route_s, r.build_rss_kib, r.rss_kib, r.nodes, r.edges, r.digest,
              r.routed_nets, r.flat ? 1 : 0, r.ok ? 1 : 0);
  return r.ok ? 0 : 1;
}

/// Parent side: run one case in a fresh child via popen and parse its
/// RESULT line. Returns ok=false on spawn/parse/child failure.
CaseResult spawn_case(const char* self, const char* builder, int n) {
  CaseResult r;
  std::string cmd = std::string("\"") + self + "\" --child " + builder + " " + std::to_string(n);
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    std::fprintf(stderr, "error: cannot spawn %s\n", cmd.c_str());
    return r;
  }
  char line[512];
  int flat_flag = 0;
  int ok_flag = 0;
  bool parsed = false;
  while (std::fgets(line, sizeof(line), pipe) != nullptr) {
    if (std::sscanf(line,
                    "RESULT build_s=%lf route_s=%lf build_rss_kib=%ld rss_kib=%ld nodes=%lld "
                    "edges=%lld digest=%" SCNx64 " routed=%d flat=%d ok=%d",
                    &r.build_s, &r.route_s, &r.build_rss_kib, &r.rss_kib, &r.nodes, &r.edges,
                    &r.digest, &r.routed_nets, &flat_flag, &ok_flag) == 10) {
      parsed = true;
    }
  }
  r.flat = flat_flag == 1;
  const int status = pclose(pipe);
  r.ok = parsed && ok_flag == 1 && status == 0;
  return r;
}

int parse_int_flag(int argc, char** argv, const char* flag, int fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return std::atoi(argv[i + 1]);
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 4 && std::strcmp(argv[1], "--child") == 0) {
    return child_main(argv[2], std::atoi(argv[3]));
  }

  // CI smoke: tiled build+route of one large array, in-process, enforcing a
  // peak-memory envelope. Exercises the stamper + tiled Dijkstra end to end
  // on every push without the full sweep's runtime.
  if (has_flag(argc, argv, "--smoke")) {
    const int n = parse_int_flag(argc, argv, "--smoke", 120);
    const long max_rss = parse_int_flag(argc, argv, "--max-rss-kb", 0);
    const CaseResult r = run_case(/*tiled=*/true, n);
    std::printf("smoke %dx%d w=%d: build %.3fs route %.3fs peak-rss %ld KiB routed %d/8 %s\n", n,
                n, kWidth, r.build_s, r.route_s, r.rss_kib, r.routed_nets,
                r.ok ? "ok" : "FAILED");
    if (!r.ok) return 1;
    if (max_rss > 0 && r.rss_kib > max_rss) {
      std::fprintf(stderr, "error: peak RSS %ld KiB exceeds envelope %ld KiB\n", r.rss_kib,
                   max_rss);
      return 1;
    }
    return 0;
  }

  bench::banner(
      "device_scale — symmetrical-array build + route at increasing size\n"
      "legacy per-element builder vs tile-template stamper");
  const char* json_path = bench::json_output_path(argc, argv);
  if (json_path == nullptr) json_path = "BENCH_device_scale.json";

  // 25 and 40 fall below the flat-adjacency cut, 50 and up above it.
  const std::vector<int> sizes = {25, 40, 50, 100, 150, 200};
  bench::Json rows = bench::Json::array();
  bool all_identical = true;
  bool all_ok = true;

  for (const int n : sizes) {
    const CaseResult legacy = spawn_case(argv[0], "legacy", n);
    const CaseResult tiled = spawn_case(argv[0], "tiled", n);
    all_ok = all_ok && legacy.ok && tiled.ok;
    const bool identical = legacy.ok && tiled.ok && legacy.digest == tiled.digest;
    all_identical = all_identical && identical;

    std::printf("%3dx%-3d w=%d  %lld nodes %lld edges  tiled adjacency: %s\n", n, n, kWidth,
                tiled.nodes, tiled.edges, tiled.flat ? "flat" : "arithmetic");
    std::printf("    legacy: build %8.1f ms  route %8.1f ms  graph rss %9ld KiB  total %9ld KiB\n",
                legacy.build_s * 1e3, legacy.route_s * 1e3, legacy.build_rss_kib, legacy.rss_kib);
    std::printf("    tiled:  build %8.1f ms  route %8.1f ms  graph rss %9ld KiB  total %9ld KiB\n",
                tiled.build_s * 1e3, tiled.route_s * 1e3, tiled.build_rss_kib, tiled.rss_kib);
    std::printf(
        "    build speedup %.2fx  graph-rss ratio %.2fx  routes %s\n",
        tiled.build_s > 0 ? legacy.build_s / tiled.build_s : 0.0,
        tiled.build_rss_kib > 0 ? static_cast<double>(legacy.build_rss_kib) / tiled.build_rss_kib
                                : 0.0,
        identical ? "bit-identical" : "DIVERGED");

    bench::Json row = bench::Json::object();
    row.field("size", n)
        .field("width", kWidth)
        .field("nodes", tiled.nodes)
        .field("edges", tiled.edges)
        .field("tiled_adjacency", tiled.flat ? "flat" : "arithmetic")
        .field("legacy_build_ms", legacy.build_s * 1e3)
        .field("legacy_route_ms", legacy.route_s * 1e3)
        .field("legacy_graph_rss_kib", static_cast<long long>(legacy.build_rss_kib))
        .field("legacy_peak_rss_kib", static_cast<long long>(legacy.rss_kib))
        .field("tiled_build_ms", tiled.build_s * 1e3)
        .field("tiled_route_ms", tiled.route_s * 1e3)
        .field("tiled_graph_rss_kib", static_cast<long long>(tiled.build_rss_kib))
        .field("tiled_peak_rss_kib", static_cast<long long>(tiled.rss_kib))
        .field("build_speedup", tiled.build_s > 0 ? legacy.build_s / tiled.build_s : 0.0)
        .field("graph_rss_ratio",
               tiled.build_rss_kib > 0
                   ? static_cast<double>(legacy.build_rss_kib) / tiled.build_rss_kib
                   : 0.0)
        .field("route_bit_identical", identical);
    rows.element(row);
  }

  const TileTemplateStats stats = tile_template_stats();
  bench::Json doc = bench::Json::object();
  doc.field("bench", "device_scale")
      .field("timestamp", bench::iso_timestamp())
      .field("host_cores", static_cast<long long>(std::thread::hardware_concurrency()))
      .field("build_type", FPR_BUILD_TYPE)
      .field("git_rev", FPR_GIT_REV)
      .field("flat_adjacency_max_edges", static_cast<long long>(Graph::kFlatAdjacencyMaxEdges))
      .field("width", kWidth)
      .field("template_compile_failures", static_cast<long long>(stats.compile_failures))
      .field("all_routes_bit_identical", all_identical)
      .field("cases", rows);
  bench::write_json(json_path, doc);

  if (!all_ok || !all_identical) {
    std::fprintf(stderr, "error: %s\n", !all_ok ? "a case failed" : "route digests diverged");
    return 1;
  }
  return 0;
}
