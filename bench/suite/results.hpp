#pragma once

// fpr_bench result files, the BENCHMARK.json manifest, and the two checks
// built on them: --smoke's catalogue check and --compare's parent/change
// verdicts.

#include <string>
#include <utility>
#include <vector>

namespace fpr::suite {

/// One printed metric: the median of n samples with their quartiles.
struct Row {
  std::string workload;
  std::string metric;
  double value = 0;
  std::string unit;
  std::size_t n = 0;
  double q1 = 0;
  double q3 = 0;
};

/// "workload metric value unit n q1 q3" — the format of stdout and of
/// every result file.
std::string format_row(const Row& row);

/// A result file: "# key value" envelope lines, then one row per line.
struct ResultFile {
  std::vector<std::pair<std::string, std::string>> envelope;
  std::vector<Row> rows;
};

bool write_result_file(const std::string& path, const ResultFile& file);
bool read_result_file(const std::string& path, ResultFile& file, std::string& error);

/// One metric BENCHMARK.json declares.
struct ManifestMetric {
  std::string name;
  std::string unit;
  bool lower_is_better = true;
  double bound = -1;  // share of the parent's median; -1 for per-layer metrics
};

struct Manifest {
  std::vector<std::string> workloads;
  std::vector<ManifestMetric> end_to_end;
  std::vector<ManifestMetric> per_layer;
};

bool read_manifest(const std::string& path, Manifest& manifest, std::string& error);

/// Problems that make `rows` disagree with the manifest: a workload without
/// a row for a declared metric, a unit or direction that differs from the
/// declaration, or a declared name outside the suite's catalogue.
std::vector<std::string> check_against_manifest(const std::vector<Row>& rows,
                                                const Manifest& manifest);

/// Compares result files of a parent and a change, one row per workload
/// and metric (see README.md for the verdicts). Returns the process exit
/// code: 1 when any metric regressed beyond its bound or an exact metric
/// changed, else 0.
int compare_results(const std::vector<std::string>& parent_paths,
                    const std::vector<std::string>& change_paths, const Manifest& manifest);

}  // namespace fpr::suite
