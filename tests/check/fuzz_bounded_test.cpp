// Bounded tier-1 slice of the fuzzer (src/check/fuzz.hpp): a fixed-seed,
// fixed-iteration run of every oracle must come back clean, and the
// case/replay plumbing must round-trip. The unbounded version of this is
// the fuzz_fpr binary (nightly CI / local soak) — see TESTING.md.

#include "check/fuzz.hpp"

#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "check/oracles.hpp"

namespace fpr::check {
namespace {

using FuzzBoundedTest = ::testing::Test;

TEST_F(FuzzBoundedTest, AllOraclesCleanAtFixedSeed) {
  FuzzOptions options;
  options.seed = 20260806;
  options.iterations = 60;  // per oracle; bounded for ctest wall-clock
  options.log = nullptr;
  const FuzzReport report = fuzz(options);
  const long expected = 60 * static_cast<long>(all_oracles().size());
  EXPECT_EQ(report.iterations, expected);
  EXPECT_TRUE(report.clean());
  for (const FuzzFailure& f : report.failures) {
    ADD_FAILURE() << oracle_name(f.oracle) << " seed " << f.case_seed << ": " << f.message
                  << "\n  " << f.repro;
  }
}

TEST_F(FuzzBoundedTest, OracleSelectionRestrictsTheRun) {
  FuzzOptions options;
  options.seed = 5;
  options.iterations = 10;
  options.oracles = {Oracle::kTreeValidity};
  options.log = nullptr;
  const FuzzReport report = fuzz(options);
  EXPECT_EQ(report.iterations, 10);
  EXPECT_TRUE(report.clean());
}

TEST_F(FuzzBoundedTest, OracleNamesRoundTrip) {
  for (const Oracle o : all_oracles()) {
    const auto parsed = parse_oracle(oracle_name(o));
    ASSERT_TRUE(parsed.has_value()) << oracle_name(o);
    EXPECT_EQ(*parsed, o);
  }
  EXPECT_FALSE(parse_oracle("no-such-oracle").has_value());
}

TEST_F(FuzzBoundedTest, RunCaseExecutesADescribedCase) {
  const TreeCase c = generate_tree_case(99, 9, std::array<Algorithm, 1>{Algorithm::kKmb});
  const auto result = run_case(Oracle::kApproxBound, c.describe());
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok()) << result->message();
  EXPECT_FALSE(run_case(Oracle::kApproxBound, "not a case line").has_value());
}

TEST_F(FuzzBoundedTest, RunCaseExecutesACircuitCase) {
  const CircuitCase c = generate_circuit_case(4);
  const auto result = run_case(Oracle::kFeasibility, c.describe());
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok()) << result->message();
}

// The two minimized cases `fuzz_fpr --seed 31 --iters 2000 --oracle faults`
// caught: paper mode spends its budget at the end of a pass whose failures
// are all congestion or fault failures, and used to report
// budget_exhausted with no kAbortedBudget net. Both arrays are 4x4, below
// the tile-template floor, so they also route on materialized graphs.
TEST_F(FuzzBoundedTest, BudgetFlagMatchesStatusesOnPinnedFaultRepros) {
  constexpr std::array<const char*, 2> kRepros = {
      "circuit family=xc4000 rows=4 cols=4 width=7 nets=4,0,0 synth_seed=4101929214 algo=IZEL "
      "decompose=0 fault_seed=6042168530349774957 fault_clusters=1 budget=38000",
      "circuit family=xc3000 rows=4 cols=4 width=9 nets=3,0,0 synth_seed=3639070916 algo=IZEL "
      "decompose=0 fault_seed=17855663260196826688 fault_clusters=1 budget=53000",
  };
  for (const char* repro : kRepros) {
    const auto verdict = run_case(Oracle::kFaults, repro);
    ASSERT_TRUE(verdict.has_value()) << repro;
    EXPECT_TRUE(verdict->ok()) << repro << "\n" << verdict->message();
  }
}

TEST_F(FuzzBoundedTest, ReplayFileRoundTrip) {
  const TreeCase c = generate_tree_case(12, 9, std::array<Algorithm, 1>{Algorithm::kIdom});
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "roundtrip.repro";
  {
    std::ofstream out(path);
    out << "oracle: validity\n"
        << "case: " << c.describe() << "\n";
  }
  std::ostringstream log;
  const auto result = replay_file(path.string(), log);
  ASSERT_TRUE(result.has_value()) << log.str();
  EXPECT_TRUE(result->ok()) << result->message();
  EXPECT_NE(log.str().find("PASS"), std::string::npos) << log.str();
}

TEST_F(FuzzBoundedTest, ReplayRejectsMalformedFiles) {
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "malformed.repro";
  {
    std::ofstream out(path);
    out << "neither oracle nor case\n";
  }
  std::ostringstream log;
  EXPECT_FALSE(replay_file(path.string(), log).has_value());
  EXPECT_FALSE(replay_file("/nonexistent/file.repro", log).has_value());
}

}  // namespace
}  // namespace fpr::check
