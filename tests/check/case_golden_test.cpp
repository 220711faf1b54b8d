// Golden digests of the persisted repro lines.
//
// Each digest folds describe() of 200 generated cases per generator (and,
// for circuit cases, the FaultSpec line of the case's defect distribution),
// so a change to any generator draw or to any byte a describe() writes
// changes a digest. Every line must also parse back to a case that
// describes to the same bytes. The values were recorded from the code
// before the record lines moved onto core/line_format; they change only
// with a deliberate format change.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

#include "check/generate.hpp"
#include "fpga/faults.hpp"
#include "test_util.hpp"

namespace fpr::check {
namespace {

constexpr int kCases = 200;

std::uint64_t fold(std::uint64_t h, const std::string& line) { return mix64(h, salt64(line)); }

/// Folds `line` and checks it re-parses to a case that describes the same.
template <class Case>
std::uint64_t fold_case(std::uint64_t h, const std::string& line) {
  const auto parsed = Case::parse(line);
  EXPECT_TRUE(parsed.has_value()) << line;
  if (parsed) {
    EXPECT_EQ(parsed->describe(), line);
  }
  return fold(h, line);
}

std::uint64_t fold_circuit(std::uint64_t h, const CircuitCase& c) {
  h = fold_case<CircuitCase>(h, c.describe());
  const std::string spec = c.faults.describe();
  const auto parsed = FaultSpec::parse(spec);
  EXPECT_TRUE(parsed.has_value()) << spec;
  if (parsed) {
    EXPECT_EQ(*parsed, c.faults) << spec;
  }
  return fold(h, spec);
}

template <class Generate>
std::uint64_t digest_circuits(const char* suite, Generate generate) {
  std::uint64_t h = 0;
  for (int i = 0; i < kCases; ++i) {
    h = fold_circuit(h, generate(testing::seeded_rng(suite, static_cast<std::uint64_t>(i))));
  }
  return h;
}

TEST(CaseGoldenTest, TreeCases) {
  std::uint64_t h = 0;
  for (int i = 0; i < kCases; ++i) {
    const TreeCase c = generate_tree_case(
        testing::seeded_rng("case_golden_tree", static_cast<std::uint64_t>(i)), 9,
        table1_algorithms());
    h = fold_case<TreeCase>(h, c.describe());
  }
  EXPECT_EQ(h, 17421788332330086994u);
}

TEST(CaseGoldenTest, CircuitCases) {
  EXPECT_EQ(digest_circuits("case_golden_circuit", generate_circuit_case),
            11133249272755582916u);
}

TEST(CaseGoldenTest, FaultCircuitCases) {
  EXPECT_EQ(digest_circuits("case_golden_fault", generate_fault_circuit_case),
            1064573921646080799u);
}

TEST(CaseGoldenTest, NegotiatedCircuitCases) {
  EXPECT_EQ(digest_circuits("case_golden_negotiated", generate_negotiated_circuit_case),
            11444667089679903946u);
}

TEST(CaseGoldenTest, RepairCircuitCases) {
  EXPECT_EQ(digest_circuits("case_golden_repair", generate_repair_circuit_case),
            9249527740152762124u);
}

// The repro lines pinned verbatim in tests/check (fuzz_bounded_test,
// negotiate_mutation_test, repair_mutation_test).
TEST(CaseGoldenTest, PinnedReproLines) {
  constexpr std::array<const char*, 4> kPinned = {
      "circuit family=xc4000 rows=4 cols=4 width=7 nets=4,0,0 synth_seed=4101929214 algo=IZEL "
      "decompose=0 fault_seed=6042168530349774957 fault_clusters=1 budget=38000",
      "circuit family=xc3000 rows=4 cols=4 width=9 nets=3,0,0 synth_seed=3639070916 algo=IZEL "
      "decompose=0 fault_seed=17855663260196826688 fault_clusters=1 budget=53000",
      "circuit family=xc3000 rows=2 cols=3 width=3 nets=3,0,0 synth_seed=4268943187 "
      "algo=DJKA decompose=0 mode=negotiated",
      "circuit family=xc4000 rows=4 cols=5 width=2 nets=1,0,0 synth_seed=1737231601 "
      "algo=ZEL decompose=0 repair_events=2 repair_seed=4762824867115632430",
  };
  std::uint64_t h = 0;
  for (const char* line : kPinned) h = fold_case<CircuitCase>(h, line);
  EXPECT_EQ(h, 9918361694714258387u);
}

}  // namespace
}  // namespace fpr::check
