#include "analyze.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

namespace fpr::analyze {

namespace {

namespace fs = std::filesystem;
using lint::Finding;
using lint::SourceLine;

// ---------------------------------------------------------------------------
// Small token helpers (mirroring tools/lint/lint.cpp: hand-rolled, no
// <regex> — slow and implementation-varying, which a determinism gate can
// hardly justify using).
// ---------------------------------------------------------------------------

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::size_t skip_spaces(const std::string& s, std::size_t pos) {
  while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos]))) ++pos;
  return pos;
}

std::size_t find_word(const std::string& code, const std::string& word, std::size_t from = 0) {
  std::size_t pos = code.find(word, from);
  while (pos != std::string::npos) {
    const bool left_ok = pos == 0 || !ident_char(code[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= code.size() || !ident_char(code[end]);
    if (left_ok && right_ok) return pos;
    pos = code.find(word, pos + 1);
  }
  return std::string::npos;
}

bool contains_word(const std::string& code, const std::string& word) {
  return find_word(code, word) != std::string::npos;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Normalizes a repo-relative path: forward slashes, no "./" or "..".
std::string norm_path(const std::string& path) {
  return fs::path(path).lexically_normal().generic_string();
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool matches_any_prefix(const std::string& rel, const std::vector<std::string>& prefixes) {
  return std::any_of(prefixes.begin(), prefixes.end(),
                     [&rel](const std::string& p) { return starts_with(rel, p); });
}

// ---------------------------------------------------------------------------
// Manifest parsing. The format is a small TOML subset (see layering.toml):
// [module.<name>] / [frozen] / [include] / [dyadic] / [globals] sections
// with `key = ["a", "b"]` string-array entries (arrays may span lines).
// ---------------------------------------------------------------------------

std::vector<std::string> parse_string_array(const std::string& text) {
  // Collects every "..." item; anything between them (commas, brackets,
  // whitespace) is separator noise.
  std::vector<std::string> out;
  std::size_t pos = 0;
  while ((pos = text.find('"', pos)) != std::string::npos) {
    const std::size_t close = text.find('"', pos + 1);
    if (close == std::string::npos) break;
    out.push_back(text.substr(pos + 1, close - pos - 1));
    pos = close + 1;
  }
  return out;
}

/// Validates the module DAG: every dep names a module and the dependency
/// relation is acyclic. On success fills `reach` with the transitive
/// dependency set (module index -> reachable module indices, sorted).
bool check_module_dag(const Manifest& manifest, std::vector<std::vector<std::size_t>>& reach,
                      std::string& error) {
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < manifest.modules.size(); ++i) {
    if (!index.emplace(manifest.modules[i].name, i).second) {
      error = "duplicate module '" + manifest.modules[i].name + "'";
      return false;
    }
  }
  std::vector<std::vector<std::size_t>> deps(manifest.modules.size());
  for (std::size_t i = 0; i < manifest.modules.size(); ++i) {
    for (const std::string& dep : manifest.modules[i].deps) {
      const auto it = index.find(dep);
      if (it == index.end()) {
        error = "module '" + manifest.modules[i].name + "' depends on unknown module '" + dep +
                "'";
        return false;
      }
      deps[i].push_back(it->second);
    }
  }
  // Iterative three-color DFS for cycle detection + transitive closure.
  enum : unsigned char { kWhite, kGray, kBlack };
  std::vector<unsigned char> color(deps.size(), kWhite);
  reach.assign(deps.size(), {});
  // Process in reverse-postorder-free fashion: recurse via explicit stack.
  for (std::size_t start = 0; start < deps.size(); ++start) {
    if (color[start] != kWhite) continue;
    std::vector<std::pair<std::size_t, std::size_t>> stack{{start, 0}};
    color[start] = kGray;
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      if (next < deps[node].size()) {
        const std::size_t child = deps[node][next++];
        if (color[child] == kGray) {
          error = "module dependency cycle through '" + manifest.modules[child].name + "' and '" +
                  manifest.modules[node].name + "'";
          return false;
        }
        if (color[child] == kWhite) {
          color[child] = kGray;
          stack.emplace_back(child, 0);
        }
      } else {
        color[node] = kBlack;
        std::vector<std::size_t> r;
        for (const std::size_t child : deps[node]) {
          r.push_back(child);
          r.insert(r.end(), reach[child].begin(), reach[child].end());
        }
        std::sort(r.begin(), r.end());
        r.erase(std::unique(r.begin(), r.end()), r.end());
        reach[node] = std::move(r);
        stack.pop_back();
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Per-file context shared by the rules.
// ---------------------------------------------------------------------------

struct IncludeEdge {
  std::string target;  // as written inside the quotes
  int line = 0;        // 1-based
};

struct FileInfo {
  std::string rel;               // repo-root-relative path, forward slashes
  std::vector<SourceLine> lines;
  std::vector<IncludeEdge> includes;
  const Module* module = nullptr;
  std::vector<Finding> findings;
};

/// Extracts `#include "..."` directives. Detection uses the stripped view
/// (so a commented-out include is not an edge), but the target path is read
/// from the raw line — strip_source blanks string-literal contents, and the
/// include target is lexically a string literal. Conditional includes (#if
/// branches) all count: layering must hold for every build configuration.
std::vector<IncludeEdge> extract_includes(const std::vector<SourceLine>& lines,
                                          const std::string& content) {
  std::vector<std::string> raw;
  std::string current;
  for (const char c : content) {
    if (c == '\n') {
      raw.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  raw.push_back(std::move(current));

  std::vector<IncludeEdge> out;
  for (std::size_t i = 0; i < lines.size() && i < raw.size(); ++i) {
    const std::string& code = lines[i].code;
    std::size_t pos = skip_spaces(code, 0);
    if (pos >= code.size() || code[pos] != '#') continue;
    pos = skip_spaces(code, pos + 1);
    if (code.compare(pos, 7, "include") != 0) continue;
    const std::size_t open = raw[i].find('"');
    if (open == std::string::npos) continue;
    const std::size_t close = raw[i].find('"', open + 1);
    if (close == std::string::npos) continue;
    out.push_back(
        IncludeEdge{raw[i].substr(open + 1, close - open - 1), static_cast<int>(i + 1)});
  }
  return out;
}

/// Resolves a quoted include against the including file's directory, then
/// the manifest include roots — the same order the build uses. Empty when
/// nothing exists.
std::string resolve_include(const fs::path& root, const std::string& includer_rel,
                            const std::string& target, const Manifest& manifest) {
  std::vector<std::string> candidates;
  const std::string dir = fs::path(includer_rel).parent_path().generic_string();
  candidates.push_back(norm_path(dir.empty() ? target : dir + "/" + target));
  for (const std::string& inc_root : manifest.include_roots) {
    candidates.push_back(norm_path(inc_root + "/" + target));
  }
  for (const std::string& cand : candidates) {
    std::error_code ec;
    if (fs::is_regular_file(root / cand, ec)) return cand;
  }
  return {};
}

// ---------------------------------------------------------------------------
// Rule 1: layering.
// ---------------------------------------------------------------------------

void add_finding(FileInfo& file, int line, const char* rule, std::string message) {
  file.findings.push_back(Finding{file.rel, line, rule, std::move(message), false, {}});
}

void check_layering(const fs::path& root, const Manifest& manifest,
                    const std::vector<std::vector<std::size_t>>& reach,
                    std::map<std::string, FileInfo>& files) {
  std::map<const Module*, std::size_t> module_index;
  for (std::size_t i = 0; i < manifest.modules.size(); ++i) {
    module_index[&manifest.modules[i]] = i;
  }

  // Resolved edges between *scanned* files, for cycle detection.
  std::map<std::string, std::vector<std::pair<std::string, int>>> graph;

  for (auto& [rel, file] : files) {
    if (file.module == nullptr) {
      add_finding(file, 1, "layering",
                  "file is not covered by any module in the layering manifest; add it to a "
                  "module (or a new one) in tools/analyze/layering.toml");
      continue;
    }
    const std::size_t src_idx = module_index.at(file.module);
    for (const IncludeEdge& inc : file.includes) {
      const std::string target = resolve_include(root, rel, inc.target, manifest);
      if (target.empty()) {
        add_finding(file, inc.line, "layering",
                    "cannot resolve include \"" + inc.target +
                        "\" against the file's directory or the manifest include roots");
        continue;
      }
      if (files.count(target) != 0) graph[rel].emplace_back(target, inc.line);

      // Frozen reference headers: only their pinned consumers may include
      // them, no matter what the module DAG would allow.
      for (const FrozenHeader& frozen : manifest.frozen) {
        if (target != frozen.header || rel == frozen.header) continue;
        if (std::find(frozen.consumers.begin(), frozen.consumers.end(), rel) ==
            frozen.consumers.end()) {
          add_finding(file, inc.line, "layering",
                      "\"" + target + "\" is a frozen reference header; only its pinned "
                      "consumers listed in layering.toml may include it");
        }
      }

      const Module* target_module = module_of(manifest, target);
      if (target_module == nullptr) {
        add_finding(file, inc.line, "layering",
                    "includes \"" + target + "\" which no manifest module covers");
        continue;
      }
      if (target_module == file.module) continue;
      const std::size_t dst_idx = module_index.at(target_module);
      if (!std::binary_search(reach[src_idx].begin(), reach[src_idx].end(), dst_idx)) {
        add_finding(file, inc.line, "layering",
                    "layer inversion: module '" + file.module->name + "' may not include \"" +
                        target + "\" (module '" + target_module->name +
                        "'); fix the dependency or amend the manifest DAG");
      }
    }
  }

  // File-level include cycles (three-color DFS over scanned files). The
  // module DAG alone cannot catch an intra-module header cycle.
  enum : unsigned char { kWhite, kGray, kBlack };
  std::map<std::string, unsigned char> color;
  for (const auto& [rel, file] : files) color[rel] = kWhite;
  for (const auto& [start, unused] : files) {
    (void)unused;
    if (color[start] != kWhite) continue;
    struct Frame {
      std::string node;
      std::size_t next = 0;
    };
    std::vector<Frame> stack{{start, 0}};
    color[start] = kGray;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto git = graph.find(frame.node);
      const auto& edges = git == graph.end()
                              ? std::vector<std::pair<std::string, int>>{}
                              : git->second;
      if (frame.next < edges.size()) {
        const auto& [child, line] = edges[frame.next++];
        if (color[child] == kGray) {
          // Back edge: reconstruct the cycle from the DFS stack.
          std::string path;
          auto it = std::find_if(stack.begin(), stack.end(),
                                 [&child](const Frame& f) { return f.node == child; });
          for (; it != stack.end(); ++it) {
            if (!path.empty()) path += " -> ";
            path += it->node;
          }
          path += " -> " + child;
          add_finding(files.at(frame.node), line, "layering", "include cycle: " + path);
        } else if (color[child] == kWhite) {
          color[child] = kGray;
          stack.push_back(Frame{child, 0});
        }
      } else {
        color[frame.node] = kBlack;
        stack.pop_back();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 2: dyadic-float. Decimal-string arithmetic keeps the check exact for
// literals of any length (no float round-trip in the tool that polices
// float exactness).
// ---------------------------------------------------------------------------

/// In-place long division of a decimal digit string by `d` (2..9); returns
/// the remainder and strips leading zeros from the quotient.
int div_string(std::string& digits, int d) {
  int rem = 0;
  for (char& c : digits) {
    const int cur = rem * 10 + (c - '0');
    c = static_cast<char>('0' + cur / d);
    rem = cur % d;
  }
  const std::size_t firstnz = digits.find_first_not_of('0');
  digits = firstnz == std::string::npos ? "0" : digits.substr(firstnz);
  return rem;
}

bool is_pow2_string(std::string digits) {
  if (digits == "0") return false;
  while (digits != "1") {
    if (div_string(digits, 2) != 0) return false;
  }
  return true;
}

struct NumLit {
  bool is_fp = false;
  bool dyadic = true;  // exactly m / 2^n for integers m, n >= 0
  bool pow2 = false;   // exactly 2^n (n may be negative)
  std::size_t length = 0;
  std::string text;
};

/// Parses the numeric literal starting at `pos` (caller guarantees a digit,
/// or '.' followed by a digit, with a non-identifier left boundary).
NumLit parse_literal(const std::string& code, std::size_t pos) {
  NumLit lit;
  const std::size_t start = pos;
  const auto digits_while = [&code, &pos](auto pred) {
    std::string out;
    while (pos < code.size() && (pred(code[pos]) || code[pos] == '\'')) {
      if (code[pos] != '\'') out += code[pos];
      ++pos;
    }
    return out;
  };
  const auto is_dec = [](char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; };
  const auto is_hex = [](char c) { return std::isxdigit(static_cast<unsigned char>(c)) != 0; };

  if (code.compare(pos, 2, "0x") == 0 || code.compare(pos, 2, "0X") == 0) {
    pos += 2;
    digits_while(is_hex);
    bool hex_float = false;
    if (pos < code.size() && code[pos] == '.') {
      ++pos;
      digits_while(is_hex);
      hex_float = true;
    }
    if (pos < code.size() && (code[pos] == 'p' || code[pos] == 'P')) {
      ++pos;
      if (pos < code.size() && (code[pos] == '+' || code[pos] == '-')) ++pos;
      digits_while(is_dec);
      hex_float = true;
    }
    while (pos < code.size() && ident_char(code[pos])) ++pos;  // suffixes
    // Hex mantissa + binary exponent: dyadic by construction. Power-of-two
    // detection is skipped (no hex-float divisors exist in this tree).
    lit.is_fp = hex_float;
    lit.dyadic = true;
    lit.pow2 = false;
    lit.length = pos - start;
    lit.text = code.substr(start, lit.length);
    return lit;
  }

  std::string int_part = digits_while(is_dec);
  std::string frac_part;
  bool has_dot = false;
  if (pos < code.size() && code[pos] == '.' &&
      !(pos + 1 < code.size() && code[pos + 1] == '.')) {
    has_dot = true;
    ++pos;
    frac_part = digits_while(is_dec);
  }
  long exp10 = 0;
  bool has_exp = false;
  if (pos < code.size() && (code[pos] == 'e' || code[pos] == 'E') &&
      (pos + 1 < code.size() &&
       (std::isdigit(static_cast<unsigned char>(code[pos + 1])) != 0 || code[pos + 1] == '+' ||
        code[pos + 1] == '-'))) {
    has_exp = true;
    ++pos;
    bool neg = false;
    if (code[pos] == '+' || code[pos] == '-') {
      neg = code[pos] == '-';
      ++pos;
    }
    const std::string exp_digits = digits_while(is_dec);
    exp10 = 0;
    for (const char c : exp_digits) {
      exp10 = std::min<long>(10000, exp10 * 10 + (c - '0'));
    }
    if (neg) exp10 = -exp10;
  }
  while (pos < code.size() && ident_char(code[pos])) ++pos;  // suffixes (f, L, u, ...)
  lit.length = pos - start;
  lit.text = code.substr(start, lit.length);
  lit.is_fp = has_dot || has_exp;

  std::string mantissa = int_part + frac_part;
  const std::size_t firstnz = mantissa.find_first_not_of('0');
  mantissa = firstnz == std::string::npos ? "0" : mantissa.substr(firstnz);
  long t = exp10 - static_cast<long>(frac_part.size());
  if (mantissa == "0") {
    lit.dyadic = true;  // zero
    lit.pow2 = false;
    return lit;
  }
  // Trailing decimal zeros shift into the exponent (0.50 == 0.5).
  while (t < 0 && mantissa.size() > 1 && mantissa.back() == '0') {
    mantissa.pop_back();
    ++t;
  }
  if (t >= 0) {
    lit.dyadic = true;
    lit.pow2 = t == 0 && is_pow2_string(mantissa);
    return lit;
  }
  // value = mantissa / 10^k = mantissa / (2^k * 5^k): dyadic iff 5^k
  // divides the mantissa; then a power of two iff the quotient is one.
  std::string m = mantissa;
  for (long k = t; k < 0; ++k) {
    if (div_string(m, 5) != 0) {
      lit.dyadic = false;
      lit.pow2 = false;
      return lit;
    }
  }
  lit.dyadic = true;
  lit.pow2 = is_pow2_string(m);
  return lit;
}

/// True when `code[pos]` starts a numeric literal (left boundary is not an
/// identifier character or '.', so `x2` or `a.5` members don't match).
bool literal_starts_at(const std::string& code, std::size_t pos) {
  const char c = code[pos];
  const bool starts = std::isdigit(static_cast<unsigned char>(c)) != 0 ||
                      (c == '.' && pos + 1 < code.size() &&
                       std::isdigit(static_cast<unsigned char>(code[pos + 1])) != 0);
  if (!starts) return false;
  if (pos == 0) return true;
  const char prev = code[pos - 1];
  return !ident_char(prev) && prev != '.';
}

void check_dyadic(FileInfo& file) {
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;
    const int line = static_cast<int>(i + 1);
    bool line_has_fp = false;

    // Pass A: every floating-point literal must be dyadic.
    for (std::size_t pos = 0; pos < code.size();) {
      if (!literal_starts_at(code, pos)) {
        // Skip identifiers wholesale so `x2` cannot restart mid-token.
        if (ident_char(code[pos])) {
          while (pos < code.size() && ident_char(code[pos])) ++pos;
        } else {
          ++pos;
        }
        continue;
      }
      const NumLit lit = parse_literal(code, pos);
      if (lit.is_fp) line_has_fp = true;
      if (lit.is_fp && !lit.dyadic) {
        add_finding(file, line, "dyadic-float",
                    "non-dyadic floating-point literal " + lit.text +
                        " in a determinism-critical module; constants must be exactly m/2^n "
                        "(e.g. 0.25, 0.5, 4096.0) so accumulation is bit-exact");
      }
      pos += std::max<std::size_t>(1, lit.length);
    }
    const bool fp_context = line_has_fp || contains_word(code, "double") ||
                            contains_word(code, "float");

    // Pass B: division by a constant must be by a power of two.
    for (std::size_t pos = 0; pos < code.size(); ++pos) {
      if (code[pos] != '/') continue;
      std::size_t after = pos + 1;
      if (after < code.size() && code[after] == '=') ++after;  // x /= k
      after = skip_spaces(code, after);
      if (after >= code.size() || !literal_starts_at(code, after)) continue;
      const NumLit divisor = parse_literal(code, after);
      if (divisor.pow2) continue;
      if (!divisor.is_fp && !fp_context) continue;  // exact integer division
      add_finding(file, line, "dyadic-float",
                  "division by non-power-of-two constant " + divisor.text +
                      "; multiply by a dyadic reciprocal or restructure so the divisor is a "
                      "power of two (bit-exact across platforms)");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 3: global-state. A brace-scope tracker distinguishes namespace scope
// (where any mutable variable is hidden global state) from function scope
// (where only static/thread_local persists) and type scope (members are the
// object's state, not the program's — out of scope here).
// ---------------------------------------------------------------------------

struct ScopeFrame {
  enum Kind { kNamespace, kType, kFunction } kind;
  bool allowed;  // inside an allowlisted namespace (e.g. testhooks)
};

/// Removes project annotation macros (FPR_GUARDED_BY(mu), FPR_CAPABILITY,
/// ...) so `std::map<K,V> g FPR_GUARDED_BY(mu);` is seen as the variable
/// declaration it is, not mistaken for a function declaration.
std::string strip_annotation_macros(const std::string& stmt) {
  std::string out;
  for (std::size_t pos = 0; pos < stmt.size();) {
    if (stmt.compare(pos, 4, "FPR_") == 0 && (pos == 0 || !ident_char(stmt[pos - 1]))) {
      std::size_t end = pos;
      while (end < stmt.size() && ident_char(stmt[end])) ++end;
      end = skip_spaces(stmt, end);
      if (end < stmt.size() && stmt[end] == '(') {
        int depth = 0;
        while (end < stmt.size()) {
          if (stmt[end] == '(') ++depth;
          if (stmt[end] == ')' && --depth == 0) {
            ++end;
            break;
          }
          ++end;
        }
      }
      pos = end;
      continue;
    }
    out += stmt[pos++];
  }
  return out;
}

/// Removes balanced template argument lists so a `const` inside
/// `shared_ptr<const T>` is not mistaken for a top-level cv-qualifier.
/// Unbalanced '<' (a comparison in an initializer) is left untouched.
std::string strip_template_args(const std::string& stmt) {
  std::string out;
  for (std::size_t pos = 0; pos < stmt.size();) {
    if (stmt[pos] == '<') {
      int depth = 0;
      std::size_t end = pos;
      while (end < stmt.size()) {
        if (stmt[end] == '<') ++depth;
        if (stmt[end] == '>' && --depth == 0) break;
        ++end;
      }
      if (end < stmt.size()) {
        pos = end + 1;
        continue;
      }
    }
    out += stmt[pos++];
  }
  return out;
}

/// The declared name of a variable statement: the token before '=' if any,
/// else the last identifier before an initializer ('{', '(') or array
/// brackets. Template arguments are already stripped by the caller.
std::string declared_name(const std::string& stmt) {
  std::string head = stmt;
  const std::size_t eq = head.find('=');
  if (eq != std::string::npos) head = head.substr(0, eq);
  std::string name;
  for (std::size_t pos = 0; pos < head.size();) {
    if (ident_char(head[pos]) && std::isdigit(static_cast<unsigned char>(head[pos])) == 0) {
      std::size_t end = pos;
      while (end < head.size() && ident_char(head[end])) ++end;
      name = head.substr(pos, end - pos);
      pos = end;
    } else if (head[pos] == '{' || head[pos] == '[' || head[pos] == '(') {
      break;  // initializer or array extent: the name precedes it
    } else {
      ++pos;
    }
  }
  return name;
}

bool namespace_name_allowed(const std::string& stmt,
                            const std::vector<std::string>& allow_namespaces) {
  const std::size_t pos = find_word(stmt, "namespace");
  if (pos == std::string::npos) return false;
  // `namespace a::b` — every component is checked.
  std::size_t p = skip_spaces(stmt, pos + 9);
  while (p < stmt.size()) {
    std::size_t end = p;
    while (end < stmt.size() && ident_char(stmt[end])) ++end;
    if (end == p) break;
    const std::string component = stmt.substr(p, end - p);
    if (std::find(allow_namespaces.begin(), allow_namespaces.end(), component) !=
        allow_namespaces.end()) {
      return true;
    }
    p = end;
    if (stmt.compare(p, 2, "::") == 0) {
      p += 2;
    } else {
      break;
    }
  }
  return false;
}

void check_globals(FileInfo& file, const Manifest& manifest) {
  // Build the scan text: stripped code with preprocessor lines (and their
  // backslash continuations) blanked — a brace inside a macro definition is
  // not a scope.
  std::string text;
  std::vector<std::size_t> line_start;
  bool in_preproc = false;
  for (const SourceLine& src_line : file.lines) {
    line_start.push_back(text.size());
    const std::string& code = src_line.code;
    const std::size_t first = skip_spaces(code, 0);
    const bool starts_preproc = first < code.size() && code[first] == '#';
    const bool skip = in_preproc || starts_preproc;
    const std::string kept = skip ? std::string() : code;
    in_preproc = (in_preproc || starts_preproc) && !code.empty() && code.back() == '\\';
    text += kept;
    text += '\n';
  }
  const auto line_of = [&line_start](std::size_t offset) {
    const auto it = std::upper_bound(line_start.begin(), line_start.end(), offset);
    return static_cast<int>(it - line_start.begin());
  };

  std::vector<ScopeFrame> scopes;
  std::string stmt;
  std::size_t stmt_start = 0;
  int paren_depth = 0;

  const auto parent_allowed = [&scopes]() { return !scopes.empty() && scopes.back().allowed; };

  const auto analyze_stmt = [&](const std::string& raw, std::size_t start_offset) {
    const bool ns_scope = std::all_of(scopes.begin(), scopes.end(), [](const ScopeFrame& f) {
      return f.kind == ScopeFrame::kNamespace;
    });
    const bool fn_scope = !scopes.empty() && scopes.back().kind == ScopeFrame::kFunction;
    if (!ns_scope && !fn_scope) return;  // type scope: members are not globals
    if (parent_allowed()) return;        // allowlisted namespace (testhooks)

    const std::string body = trim(strip_template_args(strip_annotation_macros(raw)));
    if (body.empty() || body[0] == '#') return;
    const bool is_const = contains_word(body, "const") || contains_word(body, "constexpr");
    const bool is_static =
        contains_word(body, "static") || contains_word(body, "thread_local");

    if (fn_scope) {
      // Only static/thread_local persists beyond the call.
      std::size_t p = skip_spaces(body, 0);
      const bool leads = body.compare(p, 6, "static") == 0 ||
                         body.compare(p, 12, "thread_local") == 0;
      if (!leads || is_const) return;
      const std::string name = declared_name(body);
      add_finding(file, line_of(start_offset), "global-state",
                  "function-local static '" + (name.empty() ? body : name) +
                      "' is hidden mutable global state; move it onto core/metrics, a "
                      "testhooks namespace, or pass it explicitly");
      return;
    }

    // Namespace scope.
    static const char* kSkipLeads[] = {"using",  "typedef",   "template", "friend",
                                       "extern", "namespace", "class",    "struct",
                                       "union",  "enum",      "concept",  "static_assert"};
    // GCC's __extension__ marker (it silences -Wpedantic, e.g. on
    // __int128) can precede any declaration without changing what it
    // declares, so the lead keyword is the first word after it.
    std::size_t first = skip_spaces(body, 0);
    if (body.compare(first, 13, "__extension__") == 0) first = skip_spaces(body, first + 13);
    for (const char* lead : kSkipLeads) {
      const std::size_t p = find_word(body, lead);
      if (p != std::string::npos && p <= first) return;
    }
    if (is_const) return;
    // Function declaration/definition heuristic: a '(' before any '='
    // belongs to a parameter list, not an initializer.
    const std::size_t paren = body.find('(');
    const std::size_t eq = body.find('=');
    if (paren != std::string::npos && (eq == std::string::npos || paren < eq)) {
      if (!is_static || eq == std::string::npos) return;
    }
    // A declaration needs a declarator: an initializer, or at least two
    // identifier tokens (type + name). A lone expression/label is neither.
    const std::string name = declared_name(body);
    if (name.empty()) return;
    if (eq == std::string::npos) {
      // Count top-level identifier-ish tokens.
      int tokens = 0;
      for (std::size_t p = 0; p < body.size();) {
        if (ident_char(body[p])) {
          ++tokens;
          while (p < body.size() && (ident_char(body[p]) || body[p] == ':')) ++p;
        } else if (body[p] == '<') {
          int depth = 0;
          while (p < body.size()) {
            if (body[p] == '<') ++depth;
            if (body[p] == '>' && --depth == 0) {
              ++p;
              break;
            }
            ++p;
          }
        } else if (body[p] == '{') {
          break;
        } else {
          ++p;
        }
      }
      if (tokens < 2) return;
    }
    add_finding(file, line_of(start_offset), "global-state",
                "namespace-scope mutable variable '" + name +
                    "'; hidden globals make results depend on what ran before — use "
                    "core/metrics counters, a testhooks namespace, or plumb the state "
                    "explicitly");
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '(') {
      ++paren_depth;
      stmt += c;
    } else if (c == ')') {
      paren_depth = std::max(0, paren_depth - 1);
      stmt += c;
    } else if (c == '{' && paren_depth == 0) {
      const bool is_ns = contains_word(stmt, "namespace") || contains_word(stmt, "extern");
      const bool is_type = contains_word(stmt, "class") || contains_word(stmt, "struct") ||
                           contains_word(stmt, "union") || contains_word(stmt, "enum");
      const bool is_fn = stmt.find('(') != std::string::npos ||
                         contains_word(stmt, "do") || contains_word(stmt, "else") ||
                         contains_word(stmt, "try") || contains_word(stmt, "catch");
      if (is_ns) {
        scopes.push_back(ScopeFrame{
            ScopeFrame::kNamespace,
            parent_allowed() ||
                namespace_name_allowed(stmt, manifest.globals_allow_namespaces)});
      } else if (is_type) {
        scopes.push_back(ScopeFrame{ScopeFrame::kType, parent_allowed()});
      } else if (is_fn) {
        scopes.push_back(ScopeFrame{ScopeFrame::kFunction, parent_allowed()});
      } else {
        // Brace initializer (e.g. `std::atomic<bool> flag{false}`): part of
        // the statement, not a scope — swallow to the matching brace.
        int depth = 0;
        while (i < text.size()) {
          if (text[i] == '{') ++depth;
          if (text[i] == '}' && --depth == 0) break;
          stmt += text[i];
          ++i;
        }
        if (i < text.size()) stmt += '}';
        continue;
      }
      stmt.clear();
      paren_depth = 0;
    } else if (c == '}' && paren_depth == 0) {
      if (!scopes.empty()) scopes.pop_back();
      stmt.clear();
    } else if (c == ';' && paren_depth == 0) {
      if (trim(stmt).empty()) {
        stmt.clear();
        continue;
      }
      analyze_stmt(stmt, stmt_start);
      stmt.clear();
    } else {
      if (trim(stmt).empty() && !std::isspace(static_cast<unsigned char>(c))) stmt_start = i;
      stmt += c;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

const std::vector<lint::RuleInfo>& rule_catalog() { return lint::analyze_rule_catalog(); }

const Module* module_of(const Manifest& manifest, const std::string& rel_path) {
  const Module* best = nullptr;
  std::size_t best_len = 0;
  for (const Module& module : manifest.modules) {
    for (const std::string& prefix : module.paths) {
      if (starts_with(rel_path, prefix) && prefix.size() >= best_len) {
        // Ties go to the earlier declaration (>= keeps the first because
        // later equal-length prefixes only win with strictly longer ones).
        if (prefix.size() > best_len || best == nullptr) {
          best = &module;
          best_len = prefix.size();
        }
      }
    }
  }
  return best;
}

bool parse_manifest(const std::string& text, Manifest& out, std::string& error) {
  out = Manifest{};
  std::istringstream in(text);
  std::string line;
  std::string section;       // "module", "frozen", "include", "dyadic", "globals"
  int line_no = 0;

  const auto fail = [&error, &line_no](const std::string& message) {
    error = "line " + std::to_string(line_no) + ": " + message;
    return false;
  };

  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos && line.find('"') == std::string::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) continue;

    if (line[0] == '[') {
      const std::size_t close = line.find(']');
      if (close == std::string::npos) return fail("unterminated section header");
      const std::string header = line.substr(1, close - 1);
      if (starts_with(header, "module.")) {
        section = "module";
        Module module;
        module.name = header.substr(7);
        if (module.name.empty()) return fail("empty module name");
        out.modules.push_back(std::move(module));
      } else if (header == "frozen" || header == "include" || header == "dyadic" ||
                 header == "globals") {
        section = header;
      } else {
        return fail("unknown section [" + header + "]");
      }
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) return fail("expected key = [\"...\"]");
    const std::string key = trim(line.substr(0, eq));
    std::string value = trim(line.substr(eq + 1));
    // Arrays may span lines: accumulate until the closing bracket.
    while (value.find(']') == std::string::npos && std::getline(in, line)) {
      ++line_no;
      value += " " + trim(line);
    }
    std::vector<std::string> items = parse_string_array(value);
    for (std::string& item : items) {
      const bool dir = !item.empty() && item.back() == '/';
      item = norm_path(item);
      if (dir && !item.empty() && item.back() != '/') item += '/';
    }

    if (section == "module") {
      if (out.modules.empty()) return fail("key outside a [module.*] section");
      if (key == "paths") {
        out.modules.back().paths = std::move(items);
      } else if (key == "deps") {
        // deps are module names, not paths — undo the normalization.
        out.modules.back().deps = parse_string_array(value);
      } else {
        return fail("unknown module key '" + key + "'");
      }
    } else if (section == "frozen") {
      // "header" = ["consumer", ...] — the key itself is a quoted path.
      const std::vector<std::string> header = parse_string_array(key);
      if (header.size() != 1) return fail("frozen entry needs one quoted header path");
      out.frozen.push_back(FrozenHeader{norm_path(header[0]), std::move(items)});
    } else if (section == "include") {
      if (key != "roots") return fail("unknown include key '" + key + "'");
      out.include_roots = std::move(items);
    } else if (section == "dyadic") {
      if (key != "paths") return fail("unknown dyadic key '" + key + "'");
      out.dyadic_paths = std::move(items);
    } else if (section == "globals") {
      if (key == "paths") {
        out.globals_paths = std::move(items);
      } else if (key == "allow_paths") {
        out.globals_allow_paths = std::move(items);
      } else if (key == "allow_namespaces") {
        out.globals_allow_namespaces = parse_string_array(value);
      } else {
        return fail("unknown globals key '" + key + "'");
      }
    } else {
      return fail("key before any section");
    }
  }

  if (out.modules.empty()) {
    error = "manifest declares no modules";
    return false;
  }
  std::vector<std::vector<std::size_t>> reach;
  return check_module_dag(out, reach, error);
}

bool load_manifest(const std::string& path, Manifest& out, std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot read manifest '" + path + "'";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!parse_manifest(buffer.str(), out, error)) {
    error = path + ": " + error;
    return false;
  }
  return true;
}

std::vector<Finding> analyze_tree(const std::string& root, const Manifest& manifest,
                                  const std::vector<std::string>& paths,
                                  const Options& options) {
  const fs::path root_path = fs::path(root).lexically_normal();
  const auto enabled = [&options](const char* rule) {
    return options.only_rules.empty() ||
           std::find(options.only_rules.begin(), options.only_rules.end(), rule) !=
               options.only_rules.end();
  };

  std::map<std::string, FileInfo> files;
  std::vector<Finding> io_errors;
  for (const std::string& path : paths) {
    const fs::path abs = root_path / path;
    for (const std::string& source : lint::collect_sources(abs.generic_string())) {
      const std::string rel =
          fs::path(source).lexically_normal().lexically_relative(root_path).generic_string();
      if (files.count(rel) != 0) continue;
      std::ifstream in(source, std::ios::binary);
      if (!in) {
        io_errors.push_back(Finding{rel, 0, "io-error", "cannot read file", false, {}});
        continue;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      FileInfo info;
      info.rel = rel;
      info.lines = lint::strip_source(buffer.str());
      info.includes = extract_includes(info.lines, buffer.str());
      info.module = module_of(manifest, rel);
      files.emplace(rel, std::move(info));
    }
  }

  std::vector<std::vector<std::size_t>> reach;
  std::string dag_error;
  if (!check_module_dag(manifest, reach, dag_error)) {
    // parse_manifest validates this already; belt and braces for callers
    // constructing Manifest by hand.
    io_errors.push_back(Finding{"<manifest>", 0, "layering", dag_error, false, {}});
  } else if (enabled("layering")) {
    check_layering(root_path, manifest, reach, files);
  }

  for (auto& [rel, file] : files) {
    if (enabled("dyadic-float") && matches_any_prefix(rel, manifest.dyadic_paths)) {
      check_dyadic(file);
    }
    if (enabled("global-state") && matches_any_prefix(rel, manifest.globals_paths) &&
        !matches_any_prefix(rel, manifest.globals_allow_paths)) {
      check_globals(file, manifest);
    }
  }

  std::vector<Finding> findings = std::move(io_errors);
  for (auto& [rel, file] : files) {
    // Same inline-suppression protocol as fpr-lint; malformed directives are
    // fpr-lint's to report (exactly once per tree).
    lint::apply_directives(rel, file.lines, /*report_malformed=*/false, file.findings);
    findings.insert(findings.end(), std::make_move_iterator(file.findings.begin()),
                    std::make_move_iterator(file.findings.end()));
  }
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return findings;
}

}  // namespace fpr::analyze
