// fpr_bench: one benchmark for routing speed and quality, end to end and
// per layer. See README.md for the workloads, the metric catalogue and how
// to run it.
//
// The parent process runs every workload in child processes (this binary
// re-invoked with --child), so getrusage peak RSS and the tile-template
// cache belong to one workload, and set-up is measured in fresh processes.
// Children print raw samples in the line protocol of suite.hpp; the parent
// checks that exact outputs agree across processes and prints one row per
// workload and metric:  workload metric value unit n q1 q3

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "results.hpp"
#include "suite.hpp"
#include "workloads.hpp"

namespace {

using namespace fpr::suite;

/// Timed processes per workload. Each sets up once (one setup_s sample)
/// and runs an equal share of --seconds. A process's memory placement
/// shifts its speed by several percent for its whole life, so the rows pool
/// calls from several processes.
constexpr int kTimedProcesses = 3;

/// A repetition's latency is reported at the 95th percentile once at least
/// ten samples lie beyond it.
constexpr std::size_t kP95MinSamples = 200;

struct SuiteOptions {
  unsigned seed = 31;
  double seconds = 10;
  std::vector<std::string> workloads;
  std::string out_path;
  std::string trace_path;
  bool smoke = false;
};

void usage() {
  std::fprintf(stderr,
               "usage: fpr_bench [--seed N] [--seconds S] [--workload NAME]... [--out FILE]\n"
               "                 [--trace FILE]\n"
               "       fpr_bench --smoke\n"
               "       fpr_bench --compare PARENT_FILE... -- CHANGE_FILE...\n");
}

/// Runs `fpr_bench --child ...` as timed process `index` and parses what
/// it prints.
ChildReport spawn_child(const char* self, const std::string& workload, const SuiteOptions& opt,
                        int index, bool traced) {
  char numbers[128];
  std::snprintf(numbers, sizeof(numbers), " --seed %u --index %d --seconds %.17g", opt.seed, index,
                opt.seconds / kTimedProcesses);
  const std::string cmd = std::string("\"") + self + "\" --child " + workload + numbers +
                          (traced ? " --traced" : "") + (opt.smoke ? " --smoke" : "");
  ChildReport report;
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    report.error("cannot spawn " + cmd);
    return report;
  }
  std::string line;
  for (int c = std::fgetc(pipe); c != EOF; c = std::fgetc(pipe)) {
    if (c != '\n') {
      line += static_cast<char>(c);
      continue;
    }
    if (!report.parse_line(line)) report.error("malformed child output: " + line);
    line.clear();
  }
  const int status = pclose(pipe);
  if (status != 0) report.error(workload + " child exited with status " + std::to_string(status));
  return report;
}

/// The row for one metric of one workload; n == 0 when the workload never
/// exercised that layer.
Row make_row(const std::string& workload, const MetricDef& def, const std::vector<double>& values) {
  const Summary s = summarize(values);
  return Row{workload, std::string(def.name), s.median, std::string(def.unit), s.n, s.q1, s.q3};
}

Row make_count_row(const std::string& workload, std::string_view metric, double value) {
  const MetricDef* def = find_metric(metric);
  return Row{workload, std::string(metric), value, std::string(def->unit), 1, value, value};
}

/// Runs one workload's passes and appends its rows; returns its errors.
std::vector<std::string> run_workload_passes(const char* self, const std::string& workload,
                                             const SuiteOptions& opt, bool tracing,
                                             std::vector<Row>& rows,
                                             std::vector<std::pair<std::string, Span>>& spans) {
  ChildReport plain;
  for (int i = 0; i < kTimedProcesses && !opt.smoke; ++i) {
    plain.merge(spawn_child(self, workload, opt, i, false), "timed process " + std::to_string(i));
  }
  ChildReport traced;
  if (tracing) traced = spawn_child(self, workload, opt, 0, true);
  // --smoke runs only the traced child, so it also supplies the end-to-end rows.
  const ChildReport& e2e = opt.smoke ? traced : plain;

  const auto attempted = static_cast<double>(e2e.attempted);
  const auto failed = static_cast<double>(e2e.failed);
  for (const MetricDef& def : metric_catalogue()) {
    if (def.tier == Tier::kLayer && !tracing) continue;
    const ChildReport& src = def.tier == Tier::kLayer ? traced : e2e;
    if (def.name == "latency_p95_ms") {
      const auto latency = e2e.samples.find("latency_ms");
      if (latency != e2e.samples.end() && latency->second.size() >= kP95MinSamples) {
        const double p95 = percentile(latency->second, 95);
        rows.push_back(Row{workload, "latency_p95_ms", p95, "ms", latency->second.size(), p95, p95});
      }
    } else if (def.name == "attempted") {
      rows.push_back(make_count_row(workload, def.name, attempted));
    } else if (def.name == "failed") {
      rows.push_back(make_count_row(workload, def.name, failed));
    } else if (def.name == "fail_frac") {
      rows.push_back(make_count_row(workload, def.name, attempted > 0 ? failed / attempted : 0.0));
    } else {
      const auto it = src.samples.find(std::string(def.name));
      rows.push_back(make_row(workload, def, it == src.samples.end() ? std::vector<double>{} : it->second));
    }
  }
  for (const Span& s : traced.spans) spans.emplace_back(workload, s);

  ChildReport all = e2e;
  if (!opt.smoke && tracing) all.merge(traced, "traced run");
  std::vector<std::string> errors = all.errors;
  if (e2e.attempted < 1) errors.push_back(workload + ": no operation was attempted");
  return errors;
}

bool write_trace(const std::string& path, const std::vector<std::pair<std::string, Span>>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"note\": \"spans are recorded around the suite's calls into each layer; router "
               "self time needs spans inside route_circuit and is not measured\"}\n");
  for (const auto& [workload, s] : spans) {
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"id\": %d, \"parent\": %d, \"name\": \"%s\", "
                 "\"start_s\": %.9f, \"end_s\": %.9f}\n",
                 workload.c_str(), s.id, s.parent, s.name.c_str(), s.start_s, s.end_s);
  }
  return std::fclose(f) == 0;
}

std::vector<std::pair<std::string, std::string>> envelope(const SuiteOptions& opt, bool traced,
                                                          bool correct) {
  std::string threads;
  for (const WorkloadDef& w : workload_table()) {
    if (!threads.empty()) threads += ' ';
    threads.append(w.name).append("=").append(std::to_string(workload_threads(w)));
  }
  char seconds[32];
  std::snprintf(seconds, sizeof(seconds), "%g", opt.seconds);
  return {
      {"schema", "fpr-bench-v2"},
      {"nproc", std::to_string(host_cpus())},
      {"build_type", FPR_BUILD_TYPE},
      {"compiler", __VERSION__},
      {"git_rev", FPR_GIT_REV},
      {"seed", std::to_string(opt.seed)},
      {"seconds", seconds},
      {"threads", threads},
      {"timestamp", fpr::bench::iso_timestamp()},
      {"mode", opt.smoke ? "smoke" : traced ? "traced" : "untraced"},
      {"correct", correct ? "1" : "0"},
  };
}

int run_suite(const char* self, SuiteOptions opt) {
  const bool tracing = opt.smoke || !opt.trace_path.empty();
  if (opt.smoke) opt.seconds = 0;
  if (opt.workloads.empty()) {
    for (const WorkloadDef& w : workload_table()) opt.workloads.emplace_back(w.name);
  }
  std::vector<Row> rows;
  std::vector<std::pair<std::string, Span>> spans;
  std::vector<std::string> errors;
  std::printf("workload metric value unit n q1 q3\n");
  for (const std::string& workload : opt.workloads) {
    const std::size_t first = rows.size();
    for (std::string& e : run_workload_passes(self, workload, opt, tracing, rows, spans)) {
      errors.push_back(std::move(e));
    }
    for (std::size_t i = first; i < rows.size(); ++i) std::printf("%s\n", format_row(rows[i]).c_str());
    std::fflush(stdout);
  }
  if (tracing) {
    std::printf("# router self time: not measured; it needs spans inside route_circuit\n");
  }

  if (opt.smoke) {
    fpr::suite::Manifest manifest;
    std::string error;
    if (!read_manifest(FPR_BENCH_MANIFEST, manifest, error)) {
      errors.push_back(error);
    } else {
      for (std::string& p : check_against_manifest(rows, manifest)) errors.push_back(std::move(p));
    }
  }
  const bool correct = errors.empty();
  if (!opt.out_path.empty() &&
      !write_result_file(opt.out_path, ResultFile{envelope(opt, tracing, correct), rows})) {
    std::fprintf(stderr, "error: cannot write %s\n", opt.out_path.c_str());
    return 1;
  }
  if (!opt.trace_path.empty() && !write_trace(opt.trace_path, spans)) {
    std::fprintf(stderr, "error: cannot write %s\n", opt.trace_path.c_str());
    return 1;
  }
  for (const std::string& e : errors) std::fprintf(stderr, "error: %s\n", e.c_str());
  return correct ? 0 : 3;
}

int child_main(int argc, char** argv) {
  ChildOptions opt;
  opt.workload = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      opt.seed = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--seconds" && i + 1 < argc) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--index" && i + 1 < argc) {
      opt.index = std::atoi(argv[++i]);
    } else if (arg == "--traced") {
      opt.traced = true;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      std::fprintf(stderr, "error: unknown child argument %s\n", arg.c_str());
      return 2;
    }
  }
  // The shared pool (core/parallel.hpp) is sized on first use: size it to
  // the workload's thread budget so no stray workers exist.
  if (const WorkloadDef* def = find_workload(opt.workload)) {
    setenv("FPR_THREADS", std::to_string(workload_threads(*def)).c_str(), 1);
  }
  run_workload(opt).write(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "--child") == 0) return child_main(argc, argv);

  SuiteOptions opt;
  std::vector<std::string> parent_files;
  std::vector<std::string> change_files;
  bool compare = false;
  bool after_separator = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--seed" && has_value) {
      opt.seed = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--workload" && has_value) {
      opt.workloads.emplace_back(argv[++i]);
      if (find_workload(opt.workloads.back()) == nullptr) {
        std::fprintf(stderr, "error: unknown workload %s\n", argv[i]);
        return 2;
      }
    } else if (arg == "--out" && has_value) {
      opt.out_path = argv[++i];
    } else if (arg == "--trace" && has_value) {
      opt.trace_path = argv[++i];
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--compare") {
      compare = true;
    } else if (compare && arg == "--") {
      after_separator = true;
    } else if (compare && arg.rfind("--", 0) != 0) {
      (after_separator ? change_files : parent_files).push_back(arg);
    } else {
      usage();
      return 2;
    }
  }
  if (opt.seconds < 0) {
    usage();
    return 2;
  }
  if (compare) {
    if (parent_files.empty() || change_files.empty()) {
      usage();
      return 2;
    }
    fpr::suite::Manifest manifest;
    std::string error;
    if (!read_manifest(FPR_BENCH_MANIFEST, manifest, error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
    return compare_results(parent_files, change_files, manifest);
  }
  return run_suite(argv[0], opt);
}
