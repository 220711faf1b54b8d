#include "results.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string_view>

#include "suite.hpp"

namespace fpr::suite {

namespace {

/// Just enough JSON for BENCHMARK.json: objects, arrays, strings (simple
/// escapes only), numbers and literals.
struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  double number = 0;
  std::string text;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> members;

  const Json* member(std::string_view key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool parse(Json& out) {
    const bool ok = value(out);
    skip();
    return ok && pos_ == text_.size();
  }

 private:
  void skip() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool eat(char c) {
    skip();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool value(Json& out) {
    skip();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return object(out);
    if (c == '[') return array(out);
    if (c == '"') {
      out.kind = Json::Kind::kString;
      return string(out.text);
    }
    for (const char* literal : {"true", "false", "null"}) {
      const std::string_view lit(literal);
      if (text_.compare(pos_, lit.size(), lit) == 0) {
        pos_ += lit.size();
        out.kind = lit == "null" ? Json::Kind::kNull : Json::Kind::kBool;
        out.number = lit == "true" ? 1 : 0;
        return true;
      }
    }
    char* end = nullptr;
    out.number = std::strtod(text_.c_str() + pos_, &end);
    const auto used = static_cast<std::size_t>(end - (text_.c_str() + pos_));
    if (used == 0) return false;
    pos_ += used;
    out.kind = Json::Kind::kNumber;
    return true;
  }

  bool string(std::string& out) {
    if (!eat('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char e = text_[pos_++];
      if (e == 'n') {
        out += '\n';
      } else if (e == 't') {
        out += '\t';
      } else if (e == '"' || e == '\\' || e == '/') {
        out += e;
      } else {
        return false;
      }
    }
    return false;
  }

  bool array(Json& out) {
    out.kind = Json::Kind::kArray;
    if (!eat('[')) return false;
    if (eat(']')) return true;
    do {
      out.items.emplace_back();
      if (!value(out.items.back())) return false;
    } while (eat(','));
    return eat(']');
  }

  bool object(Json& out) {
    out.kind = Json::Kind::kObject;
    if (!eat('{')) return false;
    if (eat('}')) return true;
    do {
      std::string key;
      skip();
      if (!string(key) || !eat(':')) return false;
      out.members.emplace_back(std::move(key), Json{});
      if (!value(out.members.back().second)) return false;
    } while (eat(','));
    return eat('}');
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

bool read_metrics(const Json* list, bool with_bound, std::vector<ManifestMetric>& out,
                  std::string& error) {
  if (list == nullptr || list->kind != Json::Kind::kArray) {
    error = "metric list missing";
    return false;
  }
  for (const Json& item : list->items) {
    const Json* name = item.member("name");
    const Json* unit = item.member("unit");
    const Json* better = item.member("better");
    const Json* bound = item.member("bound");
    if (name == nullptr || unit == nullptr || better == nullptr || (with_bound && bound == nullptr)) {
      error = "a metric lacks name, unit, better or bound";
      return false;
    }
    ManifestMetric m;
    m.name = name->text;
    m.unit = unit->text;
    m.lower_is_better = better->text == "lower";
    m.bound = with_bound ? bound->number : -1;
    out.push_back(std::move(m));
  }
  return true;
}

const Row* find_row(const std::vector<Row>& rows, std::string_view workload,
                    std::string_view metric) {
  for (const Row& r : rows) {
    if (r.workload == workload && r.metric == metric) return &r;
  }
  return nullptr;
}

/// A gain needs at least this many parent/change pairs.
constexpr std::size_t kMinPairs = 10;

/// One side of a comparison: a metric's value in each result file.
struct Side {
  std::vector<double> values;
  Summary summary;
};

std::string describe(const Side& s) {
  return format_number(s.summary.median, 6) + " [" + format_number(s.summary.q1, 6) + "," +
         format_number(s.summary.q3, 6) + "] n=" + std::to_string(s.values.size());
}

}  // namespace

std::string format_row(const Row& row) {
  return row.workload + " " + row.metric + " " + format_number(row.value, 12) + " " + row.unit + " " +
         std::to_string(row.n) + " " + format_number(row.q1, 12) + " " + format_number(row.q3, 12);
}

bool write_result_file(const std::string& path, const ResultFile& file) {
  std::ofstream out(path);
  for (const auto& [key, value] : file.envelope) out << "# " << key << " " << value << "\n";
  for (const Row& row : file.rows) out << format_row(row) << "\n";
  out.flush();
  return static_cast<bool>(out);
}

bool read_result_file(const std::string& path, ResultFile& file, std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot read " + path;
    return false;
  }
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    if (line[0] == '#') {
      std::string hash;
      std::string key;
      std::string value;
      fields >> hash >> key;
      std::getline(fields >> std::ws, value);
      file.envelope.emplace_back(key, value);
      continue;
    }
    Row row;
    if (!(fields >> row.workload >> row.metric >> row.value >> row.unit >> row.n >> row.q1 >>
          row.q3)) {
      error = path + ": malformed row: " + line;
      return false;
    }
    file.rows.push_back(std::move(row));
  }
  return true;
}

bool read_manifest(const std::string& path, Manifest& manifest, std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot read " + path;
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  Json root;
  if (!JsonParser(text).parse(root) || root.kind != Json::Kind::kObject) {
    error = path + " is not a JSON object";
    return false;
  }
  const Json* workloads = root.member("workloads");
  if (workloads == nullptr || workloads->kind != Json::Kind::kArray) {
    error = path + " has no workloads";
    return false;
  }
  for (const Json& w : workloads->items) {
    if (const Json* name = w.member("name")) manifest.workloads.push_back(name->text);
  }
  if (!read_metrics(root.member("end_to_end"), true, manifest.end_to_end, error) ||
      !read_metrics(root.member("per_layer"), false, manifest.per_layer, error)) {
    error = path + ": " + error;
    return false;
  }
  return true;
}

std::vector<std::string> check_against_manifest(const std::vector<Row>& rows,
                                                const Manifest& manifest) {
  std::vector<std::string> problems;
  std::vector<std::string> suite_names;
  for (const WorkloadDef& w : workload_table()) suite_names.emplace_back(w.name);
  if (manifest.workloads != suite_names) {
    problems.push_back("BENCHMARK.json workloads differ from the suite's");
  }
  const auto check_list = [&](const std::vector<ManifestMetric>& list, Tier tier) {
    for (const ManifestMetric& m : list) {
      const MetricDef* def = find_metric(m.name);
      if (def == nullptr || def->tier != tier) {
        problems.push_back(m.name + ": declared in BENCHMARK.json, not a metric of that tier here");
        continue;
      }
      if (def->lower_is_better != m.lower_is_better) {
        problems.push_back(m.name + ": direction differs from BENCHMARK.json");
      }
      for (const std::string& w : suite_names) {
        const Row* row = find_row(rows, w, m.name);
        if (row == nullptr) {
          problems.push_back(w + " " + m.name + ": missing");
        } else if (row->unit != m.unit) {
          problems.push_back(w + " " + m.name + ": unit " + row->unit + ", BENCHMARK.json says " +
                             m.unit);
        }
      }
    }
  };
  check_list(manifest.end_to_end, Tier::kEndToEnd);
  check_list(manifest.per_layer, Tier::kLayer);
  return problems;
}

int compare_results(const std::vector<std::string>& parent_paths,
                    const std::vector<std::string>& change_paths, const Manifest& manifest) {
  // (workload, metric) -> values per side, in first-seen order.
  std::vector<std::pair<std::string, std::string>> keys;
  std::map<std::pair<std::string, std::string>, Side> parent;
  std::map<std::pair<std::string, std::string>, Side> change;
  const auto load = [&](const std::vector<std::string>& paths, auto& side) {
    for (const std::string& path : paths) {
      ResultFile file;
      std::string error;
      if (!read_result_file(path, file, error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return false;
      }
      for (const auto& [key, value] : file.envelope) {
        if (key == "correct" && value != "1") {
          std::fprintf(stderr, "warning: %s failed its correctness checks\n", path.c_str());
        }
      }
      for (const Row& row : file.rows) {
        const auto key = std::make_pair(row.workload, row.metric);
        if (parent.count(key) == 0 && change.count(key) == 0) keys.push_back(key);
        side[key].values.push_back(row.value);
      }
    }
    return true;
  };
  if (!load(parent_paths, parent) || !load(change_paths, change)) return 2;

  int regressions = 0;
  std::printf("%-15s %-34s %-6s %-32s %-32s %8s %7s %s\n", "workload", "metric", "unit",
              "parent median [q1,q3]", "change median [q1,q3]", "delta", "pairs", "verdict");
  for (const auto& key : keys) {
    Side& p = parent[key];
    Side& c = change[key];
    const MetricDef* def = find_metric(key.second);
    if (def == nullptr || p.values.empty() || c.values.empty()) continue;
    p.summary = summarize(p.values);
    c.summary = summarize(c.values);
    double bound = -1;
    for (const auto* list : {&manifest.end_to_end, &manifest.per_layer}) {
      for (const ManifestMetric& m : *list) {
        if (m.name == def->name) bound = m.bound;
      }
    }
    // Signed so that positive means "the change is worse".
    const double sign = def->lower_is_better ? 1.0 : -1.0;
    const double base = std::abs(p.summary.median);
    const double worse_by =
        base == 0 ? 0.0 : sign * (c.summary.median - p.summary.median) / base;
    const std::size_t pairs = std::min(p.values.size(), c.values.size());
    std::size_t won = 0;
    for (std::size_t i = 0; i < pairs; ++i) {
      if (sign * (c.values[i] - p.values[i]) < 0) ++won;
    }
    const auto [p_min, p_max] = std::minmax_element(p.values.begin(), p.values.end());
    const auto [c_min, c_max] = std::minmax_element(c.values.begin(), c.values.end());
    const bool all_better = def->lower_is_better ? *c_max < *p_min : *c_min > *p_max;
    const double parent_iqr = p.summary.q3 - p.summary.q1;
    const bool gain = pairs >= kMinPairs && won * 10 >= pairs * 9 &&
                      std::abs(c.summary.median - p.summary.median) > parent_iqr;

    std::string verdict;
    if (def->exact) {
      const bool same = std::all_of(p.values.begin(), p.values.end(),
                                    [&](double v) { return v == p.values.front(); }) &&
                        std::all_of(c.values.begin(), c.values.end(),
                                    [&](double v) { return v == p.values.front(); });
      verdict = same ? "same" : "CHANGED";
    } else if (bound < 0) {
      verdict = gain && worse_by < 0 ? "better" : "info";
    } else if (base > 0 && parent_iqr / base > bound) {
      verdict = !all_better ? "unresolved" : pairs >= kMinPairs ? "better" : "within-bound";
    } else if (worse_by > bound) {
      verdict = "REGRESSED";
    } else {
      verdict = gain && worse_by < 0 ? "better" : "within-bound";
    }
    if (verdict == "CHANGED" || verdict == "REGRESSED") ++regressions;
    char delta[32];
    std::snprintf(delta, sizeof(delta), "%+.1f%%", worse_by * sign * 100);
    std::printf("%-15s %-34s %-6s %-32s %-32s %8s %3zu/%-3zu %s\n", key.first.c_str(),
                key.second.c_str(), std::string(def->unit).c_str(), describe(p).c_str(),
                describe(c).c_str(), delta, won, pairs, verdict.c_str());
  }
  return regressions == 0 ? 0 : 1;
}

}  // namespace fpr::suite
