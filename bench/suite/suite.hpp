#pragma once

// Shared vocabulary of the fpr_bench suite: the metric catalogue, the
// workload table, order statistics, and the line protocol a workload child
// process uses to hand its raw measurements to the parent.

#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fpr::suite {

// ---------------------------------------------------------------------------
// Metric catalogue. BENCHMARK.json at the repo root declares the same
// end-to-end and per-layer names and units; `fpr_bench --smoke` fails when
// the two disagree.
// ---------------------------------------------------------------------------

enum class Tier {
  kEndToEnd,  // BENCHMARK.json end_to_end: measured with tracing off
  kExtra,     // printed beside the end-to-end rows, not declared in BENCHMARK.json
  kLayer,     // BENCHMARK.json per_layer: measured in the traced pass
};

struct MetricDef {
  std::string_view name;
  std::string_view unit;
  Tier tier;
  bool lower_is_better;
  /// Deterministic: identical on every repetition, in every process and on
  /// every run of one seed. `--compare` compares these exactly.
  bool exact;
};

std::span<const MetricDef> metric_catalogue();

/// nullptr for a name outside the catalogue.
const MetricDef* find_metric(std::string_view name);

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct WorkloadDef {
  std::string_view name;
  /// Worker threads the workload may use, before the min(4, nproc) cap.
  int threads;
};

std::span<const WorkloadDef> workload_table();
const WorkloadDef* find_workload(std::string_view name);

/// Threads a workload actually runs with on this host: min(def.threads, 4, nproc).
int workload_threads(const WorkloadDef& def);

/// Logical CPUs of this host (>= 1).
int host_cpus();

// ---------------------------------------------------------------------------
// Order statistics, matching Python's statistics.median and
// statistics.quantiles(values, n=4) (the "exclusive" method), so a row's
// q1/q3 agree with what a Python harness computes from the same samples.
// ---------------------------------------------------------------------------

struct Summary {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  std::size_t n = 0;
};

Summary summarize(std::vector<double> values);

/// The p-th percentile (0 < p < 100) by the same exclusive interpolation.
double percentile(std::vector<double> values, int p);

/// `v` with `digits` significant digits (%g style).
std::string format_number(double v, int digits);

// ---------------------------------------------------------------------------
// Child -> parent line protocol. One line per record, fields separated by
// single spaces, numbers printed with all their digits:
//   sample <metric> <value>...        raw samples of one metric
//   tally <attempted|failed> <count>  operations attempted / failed
//   fingerprint <key> <text>          an exact output, compared across processes
//   error <text>                      a failed correctness check
//   span <id> <parent> <name> <start_s> <end_s>
// ---------------------------------------------------------------------------

struct Span {
  int id = 0;
  int parent = -1;  // -1: a root span
  std::string name;
  double start_s = 0;
  double end_s = 0;
};

/// Everything one workload process measured.
struct ChildReport {
  std::map<std::string, std::vector<double>> samples;
  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, std::string> fingerprints;
  std::vector<std::string> errors;
  std::vector<Span> spans;

  void add(std::string_view metric, double value);
  void fingerprint(const std::string& key, const std::string& text);
  void error(const std::string& text);

  void write(std::FILE* out) const;
  /// Parses one protocol line into this report; false for a malformed line.
  bool parse_line(const std::string& line);
  /// Appends `other` (samples, tallies, errors, spans). Fingerprints must
  /// agree key by key; a mismatch becomes an error naming `what`.
  void merge(const ChildReport& other, const std::string& what);
};

}  // namespace fpr::suite
