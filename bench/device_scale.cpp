// Device-scale sweep: build + route symmetrical arrays from 25x25 to
// 200x200 with the legacy per-element graph builder and the tile-template
// stamper (DESIGN.md §12), recording peak RSS, graph-build time, and route
// time per case. This is the committed evidence for the template builder's
// scaling claim (BENCH_device_scale.json): same routed bits, a fraction of
// the memory and build time. The record names the host's core count, the
// build type and the git revision of the sources it was built from.
//
// Each (builder, size) case runs in its OWN child process (this binary
// re-invoked with --child) so getrusage's ru_maxrss high-water mark
// measures exactly one build+route and nothing else — an in-line sweep
// would report every case at the footprint of the largest one. The parent
// only parses one RESULT line per child and aggregates. Every case runs
// kSamples times, the two builders alternating, and records the median
// build and route time with the samples' min and max: one wall-clock
// sample on a shared host spreads too widely to show a change.
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

#include <algorithm>
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

// The git revision of the sources this binary was built from; defined in the
// source bench/git_rev.cmake generates on every build.
const char* fpr_git_rev();

namespace {

using namespace fpr;

constexpr int kWidth = 12;  // a realistic XC4000-class channel width
constexpr int kSamples = 5;  // child processes per (builder, size) case

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

/// The median and range of one timing over a case's samples.
struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;
};

template <typename Field>
Spread spread(const std::vector<CaseResult>& samples, Field field) {
  std::vector<double> values;
  for (const CaseResult& r : samples) values.push_back(field(r));
  std::sort(values.begin(), values.end());
  return {values[values.size() / 2], values.front(), values.back()};
}

/// One builder's case over kSamples children: timings as median and range,
/// RSS and counts from the median-route sample. ok only when every sample
/// routed and all digests agree.
struct Summary {
  CaseResult median;  // the sample whose route time is the median
  Spread build_ms;
  Spread route_ms;
  bool ok = false;
};

Summary summarize(std::vector<CaseResult> samples) {
  Summary s;
  s.build_ms = spread(samples, [](const CaseResult& r) { return r.build_s * 1e3; });
  s.route_ms = spread(samples, [](const CaseResult& r) { return r.route_s * 1e3; });
  s.ok = true;
  for (const CaseResult& r : samples) {
    s.ok = s.ok && r.ok && r.digest == samples.front().digest;
  }
  std::sort(samples.begin(), samples.end(),
            [](const CaseResult& a, const CaseResult& b) { return a.route_s < b.route_s; });
  s.median = samples[samples.size() / 2];
  return s;
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
    std::vector<CaseResult> legacy_samples;
    std::vector<CaseResult> tiled_samples;
    for (int i = 0; i < kSamples; ++i) {
      legacy_samples.push_back(spawn_case(argv[0], "legacy", n));
      tiled_samples.push_back(spawn_case(argv[0], "tiled", n));
    }
    const Summary legacy_sum = summarize(legacy_samples);
    const Summary tiled_sum = summarize(tiled_samples);
    const CaseResult& legacy = legacy_sum.median;
    const CaseResult& tiled = tiled_sum.median;
    all_ok = all_ok && legacy_sum.ok && tiled_sum.ok;
    const bool identical = legacy_sum.ok && tiled_sum.ok && legacy.digest == tiled.digest;
    all_identical = all_identical && identical;
    const double build_speedup =
        tiled_sum.build_ms.median > 0 ? legacy_sum.build_ms.median / tiled_sum.build_ms.median
                                      : 0.0;
    const double rss_ratio =
        tiled.build_rss_kib > 0 ? static_cast<double>(legacy.build_rss_kib) / tiled.build_rss_kib
                                : 0.0;

    std::printf("%3dx%-3d w=%d  %lld nodes %lld edges  tiled adjacency: %s  (median of %d)\n", n,
                n, kWidth, tiled.nodes, tiled.edges, tiled.flat ? "flat" : "arithmetic",
                kSamples);
    const auto print = [](const char* name, const Summary& sum) {
      std::printf(
          "    %-7s build %8.1f ms [%.1f, %.1f]  route %8.1f ms [%.1f, %.1f]  graph rss %9ld "
          "KiB  total %9ld KiB\n",
          name, sum.build_ms.median, sum.build_ms.min, sum.build_ms.max, sum.route_ms.median,
          sum.route_ms.min, sum.route_ms.max, sum.median.build_rss_kib, sum.median.rss_kib);
    };
    print("legacy:", legacy_sum);
    print("tiled:", tiled_sum);
    std::printf("    build speedup %.2fx  graph-rss ratio %.2fx  routes %s\n", build_speedup,
                rss_ratio, identical ? "bit-identical" : "DIVERGED");

    bench::Json row = bench::Json::object();
    row.field("size", n)
        .field("width", kWidth)
        .field("nodes", tiled.nodes)
        .field("edges", tiled.edges)
        .field("tiled_adjacency", tiled.flat ? "flat" : "arithmetic");
    const auto add = [&row](const std::string& name, const Summary& sum) {
      row.field(name + "_build_ms", sum.build_ms.median)
          .field(name + "_build_ms_min", sum.build_ms.min)
          .field(name + "_build_ms_max", sum.build_ms.max)
          .field(name + "_route_ms", sum.route_ms.median)
          .field(name + "_route_ms_min", sum.route_ms.min)
          .field(name + "_route_ms_max", sum.route_ms.max)
          .field(name + "_graph_rss_kib", static_cast<long long>(sum.median.build_rss_kib))
          .field(name + "_peak_rss_kib", static_cast<long long>(sum.median.rss_kib));
    };
    add("legacy", legacy_sum);
    add("tiled", tiled_sum);
    row.field("build_speedup", build_speedup)
        .field("graph_rss_ratio", rss_ratio)
        .field("route_bit_identical", identical);
    rows.element(row);
  }

  const TileTemplateStats stats = tile_template_stats();
  bench::Json doc = bench::Json::object();
  doc.field("bench", "device_scale")
      .field("timestamp", bench::iso_timestamp())
      .field("host_cores", static_cast<long long>(std::thread::hardware_concurrency()))
      .field("build_type", FPR_BUILD_TYPE)
      .field("git_rev", fpr_git_rev())
      .field("flat_adjacency_max_edges", static_cast<long long>(Graph::kFlatAdjacencyMaxEdges))
      .field("width", kWidth)
      .field("samples", kSamples)
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
