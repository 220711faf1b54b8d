#include "analyze.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

// Fixture-driven proof that every fpr-analyze rule is live (fires on a
// minimal violating fixture tree), precise (does not fire on the adjacent
// non-violations), and suppressible (the suppressed twin reports only
// documented exceptions), mirroring tests/lint/lint_test.cpp. The final
// tests lock the real tree against the committed manifest: src/, tools/ and
// bench/ must stay at zero unsuppressed findings — the same gate CI runs.

namespace fpr::analyze {
namespace {

using lint::Finding;

Manifest load_fixture_manifest(const std::string& family) {
  Manifest manifest;
  std::string error;
  const std::string path =
      std::string(FPR_ANALYZE_FIXTURES) + "/" + family + "/manifest.toml";
  EXPECT_TRUE(load_manifest(path, manifest, error)) << error;
  return manifest;
}

std::vector<Finding> analyze_fixture(const std::string& family,
                                     const std::string& sub_path = ".") {
  const Manifest manifest = load_fixture_manifest(family);
  return analyze_tree(std::string(FPR_ANALYZE_FIXTURES) + "/" + family, manifest,
                      {sub_path});
}

std::vector<Finding> unsuppressed(const std::vector<Finding>& findings) {
  std::vector<Finding> out;
  std::copy_if(findings.begin(), findings.end(), std::back_inserter(out),
               [](const Finding& f) { return !f.suppressed; });
  return out;
}

bool has_finding(const std::vector<Finding>& findings, const std::string& file,
                 const std::string& rule, const std::string& message_part) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.file == file && f.rule == rule &&
           f.message.find(message_part) != std::string::npos;
  });
}

// --- catalog -------------------------------------------------------------

TEST(AnalyzeCatalog, ThreeRulesRegisteredWithLint) {
  const auto& catalog = rule_catalog();
  ASSERT_EQ(catalog.size(), 3u);
  EXPECT_EQ(catalog[0].name, "layering");
  EXPECT_EQ(catalog[1].name, "dyadic-float");
  EXPECT_EQ(catalog[2].name, "global-state");
  // Shared suppression protocol: fpr-lint must accept allow() directives
  // naming fpr-analyze rules, or suppressions in src/ would be flagged as
  // unknown-rule directives by the other tool.
  for (const auto& rule : catalog) {
    EXPECT_TRUE(lint::is_known_rule(rule.name)) << rule.name;
    EXPECT_FALSE(rule.summary.empty());
  }
}

// --- manifest parsing ----------------------------------------------------

TEST(AnalyzeManifest, ParsesModulesFrozenAndScopes) {
  Manifest manifest;
  std::string error;
  const std::string text =
      "[module.base]\n"
      "paths = [\"src/base/\"]\n"
      "deps = []\n"
      "[module.top]\n"
      "paths = [\n  \"src/top/\",\n  \"src/extra/\",\n]\n"  // multi-line array
      "deps = [\"base\"]\n"
      "[frozen]\n"
      "\"src/base/ref.hpp\" = [\"src/top/user.cpp\"]\n"
      "[include]\n"
      "roots = [\"src\"]\n"
      "[dyadic]\n"
      "paths = [\"src/top/\"]\n"
      "[globals]\n"
      "paths = [\"src/\"]\n"
      "allow_paths = [\"src/base/metrics.\"]\n"
      "allow_namespaces = [\"testhooks\"]\n";
  ASSERT_TRUE(parse_manifest(text, manifest, error)) << error;
  ASSERT_EQ(manifest.modules.size(), 2u);
  EXPECT_EQ(manifest.modules[1].paths.size(), 2u);
  ASSERT_EQ(manifest.frozen.size(), 1u);
  EXPECT_EQ(manifest.frozen[0].header, "src/base/ref.hpp");
  EXPECT_EQ(manifest.include_roots, std::vector<std::string>{"src"});
  EXPECT_EQ(manifest.dyadic_paths, std::vector<std::string>{"src/top/"});
  EXPECT_EQ(manifest.globals_allow_namespaces, std::vector<std::string>{"testhooks"});
}

TEST(AnalyzeManifest, RejectsUnknownDepDuplicateAndCycle) {
  Manifest manifest;
  std::string error;
  EXPECT_FALSE(parse_manifest("[module.a]\npaths = [\"a/\"]\ndeps = [\"ghost\"]\n",
                              manifest, error));
  EXPECT_NE(error.find("unknown module"), std::string::npos) << error;

  EXPECT_FALSE(parse_manifest(
      "[module.a]\npaths = [\"a/\"]\ndeps = []\n[module.a]\npaths = [\"b/\"]\ndeps = []\n",
      manifest, error));
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;

  EXPECT_FALSE(parse_manifest(
      "[module.a]\npaths = [\"a/\"]\ndeps = [\"b\"]\n"
      "[module.b]\npaths = [\"b/\"]\ndeps = [\"a\"]\n",
      manifest, error));
  EXPECT_NE(error.find("cycle"), std::string::npos) << error;

  EXPECT_FALSE(parse_manifest("", manifest, error));
  EXPECT_FALSE(parse_manifest("[mystery]\nkey = [\"x\"]\n", manifest, error));
}

TEST(AnalyzeManifest, ModuleOfPicksLongestPrefix) {
  Manifest manifest;
  std::string error;
  ASSERT_TRUE(parse_manifest(
      "[module.core]\npaths = [\"src/core/\"]\ndeps = []\n"
      "[module.core_base]\npaths = [\"src/core/contract.hpp\"]\ndeps = []\n",
      manifest, error))
      << error;
  const Module* base = module_of(manifest, "src/core/contract.hpp");
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(base->name, "core_base");
  const Module* core = module_of(manifest, "src/core/metrics.cpp");
  ASSERT_NE(core, nullptr);
  EXPECT_EQ(core->name, "core");
  EXPECT_EQ(module_of(manifest, "bench/other.cpp"), nullptr);
}

// --- layering ------------------------------------------------------------

TEST(AnalyzeLayering, FiresOnEveryViolationClass) {
  const auto findings = unsuppressed(analyze_fixture("layering_bad"));
  EXPECT_EQ(findings.size(), 5u);
  EXPECT_TRUE(has_finding(findings, "base/inverted.cpp", "layering", "layer inversion"));
  EXPECT_TRUE(has_finding(findings, "top/rogue.cpp", "layering", "frozen reference header"));
  EXPECT_TRUE(has_finding(findings, "top/missing.cpp", "layering", "cannot resolve"));
  EXPECT_TRUE(has_finding(findings, "stray/orphan.cpp", "layering", "not covered"));
  const bool cycle = has_finding(findings, "top/cyc_x.hpp", "layering", "include cycle") ||
                     has_finding(findings, "top/cyc_y.hpp", "layering", "include cycle");
  EXPECT_TRUE(cycle);
}

TEST(AnalyzeLayering, CleanTreeIncludingPinnedFrozenConsumerIsClean) {
  const auto findings = analyze_fixture("layering_clean");
  EXPECT_TRUE(findings.empty());
}

TEST(AnalyzeLayering, SuppressionCoversTheEdgeAndKeepsTheReason) {
  const auto findings = analyze_fixture("layering_suppressed");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(findings[0].suppressed);
  EXPECT_EQ(findings[0].rule, "layering");
  EXPECT_FALSE(findings[0].suppress_reason.empty());
}

// --- dyadic-float --------------------------------------------------------

TEST(AnalyzeDyadic, FiresOnNonDyadicLiteralsAndNonPow2Divisors) {
  const auto findings = unsuppressed(analyze_fixture("dyadic", "src"));
  EXPECT_EQ(findings.size(), 5u);
  EXPECT_TRUE(has_finding(findings, "src/dyadic_bad.cpp", "dyadic-float", "literal 0.1"));
  EXPECT_TRUE(has_finding(findings, "src/dyadic_bad.cpp", "dyadic-float", "literal 1e-3f"));
  EXPECT_TRUE(has_finding(findings, "src/dyadic_bad.cpp", "dyadic-float", "constant 3.0"));
  EXPECT_TRUE(has_finding(findings, "src/dyadic_bad.cpp", "dyadic-float", "constant 10"));
  EXPECT_TRUE(has_finding(findings, "src/dyadic_bad.cpp", "dyadic-float", "constant 100.0"));
  // Precision: the clean file (1.5, 4096.0, hex floats, x/2.0, integer /10
  // without FP context, comments mentioning 0.1) contributes nothing.
  for (const auto& f : findings) EXPECT_EQ(f.file, "src/dyadic_bad.cpp");
}

TEST(AnalyzeDyadic, SuppressionCoversTheDisplayOnlyConstant) {
  const auto all = analyze_fixture("dyadic", "src/dyadic_suppressed.cpp");
  ASSERT_EQ(all.size(), 1u);
  EXPECT_TRUE(all[0].suppressed);
  EXPECT_EQ(all[0].rule, "dyadic-float");
}

// --- global-state --------------------------------------------------------

TEST(AnalyzeGlobals, FiresOnNamespaceScopeAndFunctionLocalStatics) {
  const auto findings = unsuppressed(analyze_fixture("globals", "src"));
  EXPECT_EQ(findings.size(), 5u);
  EXPECT_TRUE(has_finding(findings, "src/globals_bad.cpp", "global-state", "'g_counter'"));
  EXPECT_TRUE(has_finding(findings, "src/globals_bad.cpp", "global-state", "'g_scratch'"));
  EXPECT_TRUE(has_finding(findings, "src/globals_bad.cpp", "global-state", "'g_wide'"));
  EXPECT_TRUE(has_finding(findings, "src/globals_bad.cpp", "global-state", "'g_flag'"));
  EXPECT_TRUE(has_finding(findings, "src/globals_bad.cpp", "global-state", "'calls'"));
  // Precision: constants, members, locals, type aliases (an __extension__
  // typedef included) and the testhooks namespace in the adjacent files
  // contribute nothing.
  for (const auto& f : findings) EXPECT_EQ(f.file, "src/globals_bad.cpp");
}

TEST(AnalyzeGlobals, SuppressionCoversBothScopes) {
  const auto all = analyze_fixture("globals", "src/globals_suppressed.cpp");
  ASSERT_EQ(all.size(), 2u);
  for (const auto& f : all) {
    EXPECT_TRUE(f.suppressed);
    EXPECT_EQ(f.rule, "global-state");
    EXPECT_FALSE(f.suppress_reason.empty());
  }
}

// --- the real tree -------------------------------------------------------

TEST(AnalyzeTree, CommittedManifestParsesAndCoversRealModules) {
  Manifest manifest;
  std::string error;
  ASSERT_TRUE(load_manifest(
      std::string(FPR_SOURCE_ROOT) + "/tools/analyze/layering.toml", manifest, error))
      << error;
  // The core split that makes the DAG acyclic: contract.hpp sits below
  // graph, metrics above.
  const Module* base = module_of(manifest, "src/core/contract.hpp");
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(base->name, "core_base");
  const Module* core = module_of(manifest, "src/core/metrics.cpp");
  ASSERT_NE(core, nullptr);
  EXPECT_EQ(core->name, "core");
  ASSERT_EQ(manifest.frozen.size(), 1u);
  EXPECT_EQ(manifest.frozen[0].header, "src/graph/dijkstra_reference.hpp");
}

TEST(AnalyzeTree, SrcToolsAndBenchHaveNoUnsuppressedFindings) {
  Manifest manifest;
  std::string error;
  ASSERT_TRUE(load_manifest(
      std::string(FPR_SOURCE_ROOT) + "/tools/analyze/layering.toml", manifest, error))
      << error;
  const auto findings =
      analyze_tree(FPR_SOURCE_ROOT, manifest, {"src", "tools", "bench"});
  std::string report;
  std::size_t count = 0;
  for (const auto& f : findings) {
    if (f.suppressed) continue;
    ++count;
    report += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " + f.message + "\n";
  }
  EXPECT_EQ(count, 0u) << "fpr-analyze must stay clean on the real tree "
                          "(fix the finding or add an inline allow() with a reason):\n"
                       << report;
  // Every suppression carries its mandatory reason.
  for (const auto& f : findings) {
    if (f.suppressed) {
      EXPECT_FALSE(f.suppress_reason.empty()) << f.file;
    }
  }
}

}  // namespace
}  // namespace fpr::analyze
