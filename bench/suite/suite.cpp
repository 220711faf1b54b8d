#include "suite.hpp"

#include <algorithm>
#include <sstream>
#include <thread>

namespace fpr::suite {

namespace {

constexpr Tier kE2e = Tier::kEndToEnd;
constexpr Tier kExtra = Tier::kExtra;
constexpr Tier kLayer = Tier::kLayer;
constexpr bool kLower = true;
constexpr bool kHigher = false;
constexpr bool kExact = true;
constexpr bool kTimed = false;

// README.md documents every entry: what it measures on each workload and
// which end-to-end metric it should move.
constexpr MetricDef kCatalogue[] = {
    {"setup_s", "s", kE2e, kLower, kTimed},
    {"latency_ms", "ms", kE2e, kLower, kTimed},
    {"wirelength", "hops", kE2e, kLower, kExact},
    {"max_path", "hops", kE2e, kLower, kExact},
    {"channel_width", "tracks", kE2e, kLower, kExact},
    {"peak_rss_mib", "MiB", kE2e, kLower, kTimed},

    {"latency_p95_ms", "ms", kExtra, kLower, kTimed},
    {"fail_frac", "ratio", kExtra, kLower, kExact},
    {"attempted", "count", kExtra, kLower, kTimed},
    {"failed", "count", kExtra, kLower, kTimed},

    {"netlist.synth_s", "s", kLayer, kLower, kTimed},
    {"fpga.build_s", "s", kLayer, kLower, kTimed},
    {"fpga.nodes", "count", kLayer, kLower, kExact},
    {"fpga.edges", "count", kLayer, kLower, kExact},
    {"fpga.template_compiles", "count", kLayer, kLower, kTimed},
    {"fpga.template_hits", "count", kLayer, kHigher, kTimed},
    {"graph.pops", "count", kLayer, kLower, kExact},
    {"graph.pops_per_s", "1/s", kLayer, kHigher, kTimed},
    {"graph.sssp_s", "s", kLayer, kLower, kTimed},
    {"graph.sssp_runs", "count", kLayer, kLower, kExact},
    {"graph.oracle_hit_rate", "ratio", kLayer, kHigher, kExact},
    {"steiner.tree_s", "s", kLayer, kLower, kTimed},
    {"steiner.trees", "count", kLayer, kLower, kExact},
    {"arbor.tree_s", "s", kLayer, kLower, kTimed},
    {"arbor.trees", "count", kLayer, kLower, kExact},
    {"router.passes", "count", kLayer, kLower, kExact},
    {"router.pass_s", "s", kLayer, kLower, kTimed},
    {"router.failed_nets", "count", kLayer, kLower, kExact},
    {"router.move_to_front_reorders", "count", kLayer, kLower, kExact},
    {"router.congestion_reliefs", "count", kLayer, kLower, kExact},
    {"router.partition.waves", "count", kLayer, kLower, kExact},
    {"router.partition.speculated", "count", kLayer, kLower, kExact},
    {"router.partition.accepted", "count", kLayer, kHigher, kExact},
    {"router.partition.accept_ratio", "ratio", kLayer, kHigher, kExact},
    {"router.negotiate.passes", "count", kLayer, kLower, kExact},
    {"router.negotiate.overflow_first", "count", kLayer, kLower, kExact},
    {"router.patterns.attempts", "count", kLayer, kLower, kExact},
    {"router.patterns.accept_ratio", "ratio", kLayer, kHigher, kExact},
    {"router.width_search.probes", "count", kLayer, kLower, kExact},
    {"router.width_search.probe_ok_s", "s", kLayer, kLower, kTimed},
    {"router.width_search.probe_fail_s", "s", kLayer, kLower, kTimed},
    {"router.width_search.fail_passes", "count", kLayer, kLower, kExact},
    {"router.width_search.pops", "count", kLayer, kLower, kExact},
    {"router.repair.cone_nets", "count", kLayer, kLower, kExact},
    {"router.repair.ripped", "count", kLayer, kLower, kExact},
    {"router.repair.pops_per_event", "count", kLayer, kLower, kExact},
    {"router.repair.detour", "hops", kLayer, kLower, kExact},
    {"check.oracle_s", "s", kLayer, kLower, kTimed},
    {"trace.overhead", "ratio", kLayer, kLower, kTimed},
};

// Thread budgets before the min(4, nproc) cap; README.md gives the reasons
// each workload was chosen.
constexpr WorkloadDef kWorkloads[] = {
    {"paper-busc", 4},
    {"negotiate-busc", 1},
    {"width-term1", 4},
    {"repair-busc", 1},
    {"scale-200", 1},
};

/// Python's statistics.quantiles "exclusive" method, generalised to the
/// cut point i/n of a sorted sample.
double exclusive_quantile(const std::vector<double>& sorted, int i, int n) {
  const auto ld = static_cast<long long>(sorted.size());
  if (ld == 1) return sorted[0];
  const long long m = ld + 1;
  long long j = i * m / n;
  j = std::clamp(j, 1LL, ld - 1);
  const long long delta = i * m - j * n;
  return (sorted[static_cast<std::size_t>(j - 1)] * static_cast<double>(n - delta) +
          sorted[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
         static_cast<double>(n);
}

}  // namespace

std::span<const MetricDef> metric_catalogue() { return kCatalogue; }

const MetricDef* find_metric(std::string_view name) {
  for (const MetricDef& m : kCatalogue) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::span<const WorkloadDef> workload_table() { return kWorkloads; }

const WorkloadDef* find_workload(std::string_view name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

int host_cpus() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int workload_threads(const WorkloadDef& def) { return std::min({def.threads, 4, host_cpus()}); }

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  s.median = values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
  s.q1 = exclusive_quantile(values, 1, 4);
  s.q3 = exclusive_quantile(values, 3, 4);
  return s;
}

std::string format_number(double v, int digits) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
  return buf;
}

double percentile(std::vector<double> values, int p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return exclusive_quantile(values, p, 100);
}

void ChildReport::add(std::string_view metric, double value) {
  samples[std::string(metric)].push_back(value);
}

void ChildReport::fingerprint(const std::string& key, const std::string& text) {
  const auto [it, inserted] = fingerprints.emplace(key, text);
  if (!inserted && it->second != text) {
    error("fingerprint " + key + " changed between repetitions: " + it->second + " vs " + text);
  }
}

void ChildReport::error(const std::string& text) { errors.push_back(text); }

void ChildReport::write(std::FILE* out) const {
  for (const auto& [metric, values] : samples) {
    std::fprintf(out, "sample %s", metric.c_str());
    for (const double v : values) std::fprintf(out, " %s", format_number(v, 17).c_str());
    std::fprintf(out, "\n");
  }
  std::fprintf(out, "tally attempted %lld\ntally failed %lld\n", attempted, failed);
  for (const auto& [key, text] : fingerprints) {
    std::fprintf(out, "fingerprint %s %s\n", key.c_str(), text.c_str());
  }
  for (const std::string& e : errors) std::fprintf(out, "error %s\n", e.c_str());
  for (const Span& s : spans) {
    std::fprintf(out, "span %d %d %s %s %s\n", s.id, s.parent, s.name.c_str(),
                 format_number(s.start_s, 17).c_str(), format_number(s.end_s, 17).c_str());
  }
}

bool ChildReport::parse_line(const std::string& line) {
  std::istringstream in(line);
  std::string kind;
  in >> kind;
  if (kind == "sample") {
    std::string metric;
    if (!(in >> metric) || find_metric(metric) == nullptr) return false;
    std::vector<double>& dst = samples[metric];
    for (double v = 0; in >> v;) dst.push_back(v);
    return in.eof();
  }
  if (kind == "tally") {
    std::string what;
    long long count = 0;
    if (!(in >> what >> count)) return false;
    if (what == "attempted") {
      attempted += count;
    } else if (what == "failed") {
      failed += count;
    } else {
      return false;
    }
    return true;
  }
  if (kind == "fingerprint" || kind == "error") {
    std::string key;
    if (kind == "fingerprint" && !(in >> key)) return false;
    std::string rest;
    std::getline(in >> std::ws, rest);
    if (kind == "error") {
      errors.push_back(rest);
    } else {
      fingerprints[key] = rest;
    }
    return true;
  }
  if (kind == "span") {
    Span s;
    if (!(in >> s.id >> s.parent >> s.name >> s.start_s >> s.end_s)) return false;
    spans.push_back(std::move(s));
    return true;
  }
  return false;
}

void ChildReport::merge(const ChildReport& other, const std::string& what) {
  for (const auto& [metric, values] : other.samples) {
    std::vector<double>& dst = samples[metric];
    dst.insert(dst.end(), values.begin(), values.end());
  }
  attempted += other.attempted;
  failed += other.failed;
  for (const auto& [key, text] : other.fingerprints) {
    const auto [it, inserted] = fingerprints.emplace(key, text);
    if (!inserted && it->second != text) {
      error("fingerprint " + key + " differs across processes (" + what + "): " + it->second +
            " vs " + text);
    }
  }
  errors.insert(errors.end(), other.errors.begin(), other.errors.end());
  spans.insert(spans.end(), other.spans.begin(), other.spans.end());
}

}  // namespace fpr::suite
