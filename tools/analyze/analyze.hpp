#pragma once

#include <string>
#include <vector>

#include "lint.hpp"

/// fpr-analyze — semantic static analysis for the FPGA-routing repo
/// (DESIGN.md §10). Where fpr-lint is purely lexical (single-line token
/// rules), fpr-analyze is preprocessor- and declaration-aware: it extracts
/// the full include graph, tracks brace scopes, and parses numeric literal
/// values. Three gates, all driven by one committed manifest
/// (tools/analyze/layering.toml):
///
///   layering      the include graph must match the committed module DAG —
///                 no cycles, no layer inversions, and frozen reference
///                 headers (dijkstra_reference.hpp) only from their pinned
///                 consumers. This is what keeps the frozen differential
///                 baselines (PR 2/7) isolated from production code.
///   dyadic-float  in determinism-critical modules (congestion pricing,
///                 router, fault sampling) every floating-point literal must
///                 be dyadic (m/2^n) and every division by a constant must
///                 be by a power of two, so accumulation is bit-exact across
///                 platforms and backends (PR 8's convergence contract).
///   global-state  no namespace-scope mutable variable or function-local
///                 static outside the allowlist (core/metrics counters,
///                 testhooks namespaces): hidden globals make a result
///                 depend on what ran earlier in the process, which breaks
///                 memoized replay and the determinism pins.
///
/// Findings reuse the fpr-lint machinery end to end: the same Finding
/// struct, the same stripped-source view, and the same inline
/// `// fpr-lint: allow(<rule>) <reason>` suppression protocol (reason
/// mandatory). Like fpr-lint, the library is dependency-free and builds
/// standalone so CI can gate on it before the project's own dependencies
/// exist.
namespace fpr::analyze {

/// One module of the layering manifest: a name, the path prefixes that
/// assign files to it (longest prefix wins across modules), and the modules
/// it may include (dependencies are transitive: if router may use core and
/// core may use graph, router may include graph headers).
struct Module {
  std::string name;
  std::vector<std::string> paths;
  std::vector<std::string> deps;
};

/// A frozen reference header and the only files allowed to include it.
struct FrozenHeader {
  std::string header;
  std::vector<std::string> consumers;
};

/// Parsed layering.toml (see that file for the concrete format). All paths
/// are repo-root-relative with forward slashes.
struct Manifest {
  std::vector<Module> modules;
  std::vector<FrozenHeader> frozen;
  /// Directories quoted includes resolve against (after the including
  /// file's own directory), mirroring the build's include dirs.
  std::vector<std::string> include_roots;
  /// Determinism-critical path prefixes the dyadic-float rule applies to.
  std::vector<std::string> dyadic_paths;
  /// Path prefixes the global-state rule applies to...
  std::vector<std::string> globals_paths;
  /// ...minus these (the sanctioned mutable-state homes, e.g. core/metrics).
  std::vector<std::string> globals_allow_paths;
  /// Namespaces whose contents are sanctioned mutable state (testhooks).
  std::vector<std::string> globals_allow_namespaces;
};

/// Parses manifest text. Returns false and sets `error` on syntax errors,
/// duplicate/unknown module names, or a cyclic module DAG — a broken
/// manifest is a configuration error, not a suppressible finding.
bool parse_manifest(const std::string& text, Manifest& out, std::string& error);

/// Reads and parses a manifest file.
bool load_manifest(const std::string& path, Manifest& out, std::string& error);

/// The three semantic rules, in reporting order (names are registered with
/// fpr::lint::is_known_rule so suppressions cross-validate in both tools).
const std::vector<lint::RuleInfo>& rule_catalog();

struct Options {
  /// Restrict checking to these rules (empty = all).
  std::vector<std::string> only_rules;
};

/// Longest-prefix module lookup for a repo-relative path; nullptr when no
/// module covers it.
const Module* module_of(const Manifest& manifest, const std::string& rel_path);

/// Analyzes the tree: collects C++ sources under each of `paths` (files or
/// directories, repo-root-relative), runs the three rules, and applies
/// inline suppressions. `root` anchors both the scan and every manifest
/// path. Findings come back sorted by (file, line, rule), suppressed ones
/// included — callers filter on `suppressed`, exactly like fpr-lint.
std::vector<lint::Finding> analyze_tree(const std::string& root, const Manifest& manifest,
                                        const std::vector<std::string>& paths,
                                        const Options& options = {});

}  // namespace fpr::analyze
