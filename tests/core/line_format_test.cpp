// The one-line record reader (src/core/line_format.hpp) and the six record
// kinds parsed through it: FaultSpec, FaultEvent, RepairEvent,
// RepairOutcome, TreeCase and CircuitCase. Beyond the unit cases, a seeded
// mutation sweep mangles describe() lines of every kind; each parse must
// return nullopt or a value that round-trips, and must never throw.

#include "core/line_format.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "check/generate.hpp"
#include "fpga/faults.hpp"
#include "router/repair.hpp"
#include "test_util.hpp"

namespace fpr {
namespace {

using Pairs = std::vector<std::pair<std::string, std::string>>;

/// read_record with a reader that collects every pair.
bool read_all(std::string_view line, std::string_view tag, Pairs& out) {
  out.clear();
  return line_format::read_record(line, tag, [&](std::string_view key, std::string_view value) {
    out.emplace_back(key, value);
    return true;
  });
}

TEST(LineFormatTest, ReadRecordSplitsOnWhitespace) {
  Pairs pairs;
  ASSERT_TRUE(read_all("  rec a=1\tb=x,y  c= \r\n", "rec", pairs));
  EXPECT_EQ(pairs, (Pairs{{"a", "1"}, {"b", "x,y"}, {"c", ""}}));
  ASSERT_TRUE(read_all("rec", "rec", pairs));
  EXPECT_TRUE(pairs.empty());
  // Only the first '=' splits: the value keeps the rest.
  ASSERT_TRUE(read_all("rec k=v=w", "rec", pairs));
  EXPECT_EQ(pairs, (Pairs{{"k", "v=w"}}));
}

TEST(LineFormatTest, ReadRecordRejectsTagAndBareTokens) {
  Pairs pairs;
  EXPECT_FALSE(read_all("", "rec", pairs));
  EXPECT_FALSE(read_all("   ", "rec", pairs));
  EXPECT_FALSE(read_all("other a=1", "rec", pairs));
  EXPECT_FALSE(read_all("record a=1", "rec", pairs));
  EXPECT_FALSE(read_all("rec=1 a=1", "rec", pairs));
  EXPECT_FALSE(read_all("rec a=1 bare", "rec", pairs));
}

TEST(LineFormatTest, ReadRecordStopsWhenTheReaderRejects) {
  int calls = 0;
  EXPECT_FALSE(line_format::read_record("rec a=1 b=2 c=3", "rec",
                                        [&](std::string_view key, std::string_view) {
                                          ++calls;
                                          return key != "b";
                                        }));
  EXPECT_EQ(calls, 2);
}

TEST(LineFormatTest, ParseUintChecksDigitsAndRange) {
  int i = -1;
  EXPECT_TRUE(line_format::parse_uint("0", i));
  EXPECT_EQ(i, 0);
  EXPECT_TRUE(line_format::parse_uint("2147483647", i));
  EXPECT_EQ(i, std::numeric_limits<int>::max());
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x", "0x10", "2147483648", "1e3"}) {
    EXPECT_FALSE(line_format::parse_uint(bad, i)) << bad;
  }
  EXPECT_EQ(i, std::numeric_limits<int>::max());  // untouched on failure

  std::uint64_t u = 0;
  EXPECT_TRUE(line_format::parse_uint("18446744073709551615", u));
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(line_format::parse_uint("18446744073709551616", u));
  EXPECT_FALSE(line_format::parse_uint("99999999999999999999", u));

  long long ll = 0;
  EXPECT_TRUE(line_format::parse_uint("9223372036854775807", ll));
  EXPECT_FALSE(line_format::parse_uint("9223372036854775808", ll));
}

TEST(LineFormatTest, IdListsRejectEmptyPieces) {
  std::vector<std::int32_t> ids;
  ASSERT_TRUE(line_format::parse_id_list("12,40,7", ids));
  EXPECT_EQ(ids, (std::vector<std::int32_t>{12, 40, 7}));
  EXPECT_EQ(line_format::format_ids(ids), "12,40,7");
  for (const char* bad : {"", ",", "1,", ",1", "1,,2", "1;2", "-1", "2147483648"}) {
    EXPECT_FALSE(line_format::parse_id_list(bad, ids)) << bad;
  }
}

TEST(LineFormatTest, EnumeratedKeysAcceptOnlyTheirNames) {
  const std::string tree = "tree substrate=grid graph_seed=1 nodes=9 extra=0 grid=3x3 "
                           "max_weight=2 algo=KMB terminals=0,8";
  ASSERT_TRUE(check::TreeCase::parse(tree).has_value());
  const auto swap = [](std::string line, const std::string& from, const std::string& to) {
    return line.replace(line.find(from), from.size(), to);
  };
  EXPECT_FALSE(check::TreeCase::parse(swap(tree, "grid graph", "mesh graph")));
  EXPECT_FALSE(check::TreeCase::parse(swap(tree, "algo=KMB", "algo=kmb")));

  const std::string circuit =
      "circuit family=xc4000 rows=4 cols=4 width=8 nets=6,2,0 synth_seed=3 algo=IKMB decompose=0";
  ASSERT_TRUE(check::CircuitCase::parse(circuit).has_value());
  EXPECT_FALSE(check::CircuitCase::parse(swap(circuit, "xc4000", "xc5000")));
  EXPECT_FALSE(check::CircuitCase::parse(swap(circuit, "decompose=0", "decompose=2")));
  EXPECT_FALSE(check::CircuitCase::parse(circuit + " mode=fast"));
  const auto paper = check::CircuitCase::parse(circuit + " mode=paper");
  ASSERT_TRUE(paper.has_value());
  EXPECT_FALSE(paper->negotiated);
}

TEST(LineFormatTest, CaseLinesRejectWhatTheyCannotBuild) {
  const std::string base = "tree substrate=random graph_seed=1 nodes=1 extra=0 grid=3x3 "
                           "max_weight=2 algo=KMB terminals=0";
  EXPECT_TRUE(check::TreeCase::parse(base).has_value());
  EXPECT_FALSE(check::TreeCase::parse(base + " max_weight=0"));
  EXPECT_FALSE(check::TreeCase::parse(base + " extra=2"));  // no second node to join
  EXPECT_FALSE(check::TreeCase::parse(base + " terminals=1"));
  EXPECT_FALSE(check::TreeCase::parse(base + " substrate=grid grid=65536x65536"));
  EXPECT_FALSE(check::TreeCase::parse(base + " grid=3x"));
  EXPECT_FALSE(check::TreeCase::parse(base + " grid=3x3x3"));

  const std::string circuit = "circuit rows=4 cols=4 width=8";
  EXPECT_TRUE(check::CircuitCase::parse(circuit).has_value());
  EXPECT_FALSE(check::CircuitCase::parse(circuit + " width=0"));
  EXPECT_FALSE(check::CircuitCase::parse(circuit + " nets=1,2"));
  EXPECT_FALSE(check::CircuitCase::parse(circuit + " fault_wires=1001"));
  EXPECT_FALSE(check::CircuitCase::parse(circuit + " nodes=abc width=x"));
  EXPECT_FALSE(check::CircuitCase::parse(circuit + " rows=99999999999"));
  // Each field fits an int, but the device's node count does not.
  EXPECT_FALSE(check::CircuitCase::parse(circuit + " rows=20000 cols=20000 width=8"));
  // Unknown keys (an old `threads=` draw) are accepted.
  EXPECT_TRUE(check::CircuitCase::parse(circuit + " threads=3").has_value());
  // A repair seed without events names no repair case.
  const auto seedless = check::CircuitCase::parse(circuit + " repair_seed=5");
  ASSERT_TRUE(seedless.has_value());
  EXPECT_EQ(seedless->repair_seed, 0u);
}

TEST(LineFormatTest, RepairEventReadsFaultKeysLikeFaultEvent) {
  const auto event = FaultEvent::parse("event wires=40,12,12 edges=7 future=1");
  const auto repair = RepairEvent::parse("repair wires=40,12,12 edges=7 future=1");
  ASSERT_TRUE(event.has_value());
  ASSERT_TRUE(repair.has_value());
  EXPECT_EQ(repair->faults, *event);
  EXPECT_EQ(event->describe(), "event wires=12,40 edges=7");
  EXPECT_EQ(repair->describe(), "repair wires=12,40 edges=7");
}

// --- Seeded mutation sweep ------------------------------------------------

constexpr int kLinesPerKind = 150;
constexpr std::string_view kSwapIns = "-x9,=;@:.";

/// One mangled copy of `line`: truncated, one character swapped for one
/// of kSwapIns, or a digit run repeated until it exceeds every type's range.
std::string mutate(const std::string& line, check::Rng& rng) {
  std::string out = line;
  switch (rng.below(3)) {
    case 0:
      out.resize(rng.below(out.size() + 1));
      break;
    case 1:
      out[rng.below(out.size())] = kSwapIns[rng.below(kSwapIns.size())];
      break;
    default: {
      std::vector<std::size_t> digits;
      for (std::size_t i = 0; i < out.size(); ++i) {
        if (out[i] >= '1' && out[i] <= '9') digits.push_back(i);
      }
      if (digits.empty()) break;
      std::size_t begin = digits[rng.below(digits.size())];
      std::size_t end = begin;
      while (begin > 0 && out[begin - 1] >= '0' && out[begin - 1] <= '9') --begin;
      while (end < out.size() && out[end] >= '0' && out[end] <= '9') ++end;
      std::string run = out.substr(begin, end - begin);
      while (run.size() <= 20) run += run;
      if (run[0] == '0') run[0] = '9';  // keep the repeat above every range
      out.replace(begin, end - begin, run);
      break;
    }
  }
  return out;
}

/// Parses every mutation of `line`; a parse must not throw, and a value it
/// returns must describe to a line that parses back to the same value.
template <class Record>
void check_mutations(const std::string& line, check::Rng& rng, int& accepted) {
  const auto original = Record::parse(line);
  ASSERT_TRUE(original.has_value()) << line;
  EXPECT_EQ(original->describe(), line);
  for (int m = 0; m < 8; ++m) {
    const std::string mangled = mutate(line, rng);
    std::optional<Record> parsed;
    EXPECT_NO_THROW(parsed = Record::parse(mangled)) << mangled;
    if (!parsed) continue;
    ++accepted;
    const auto again = Record::parse(parsed->describe());
    ASSERT_TRUE(again.has_value()) << mangled << "\n  -> " << parsed->describe();
    EXPECT_TRUE(*again == *parsed) << mangled << "\n  -> " << parsed->describe();
  }
}

std::vector<std::int32_t> random_ids(check::Rng& rng, int max_count) {
  std::vector<std::int32_t> ids(rng.below(static_cast<std::uint64_t>(max_count) + 1));
  for (auto& id : ids) id = static_cast<std::int32_t>(rng.below(5000));
  return ids;
}

CircuitNet random_net(check::Rng& rng) {
  CircuitNet net;
  net.critical = rng.below(2) == 0;
  net.source = {rng.range(0, 20), rng.range(0, 20)};
  for (int k = rng.range(1, 3); k > 0; --k) {
    net.sinks.push_back({rng.range(0, 20), rng.range(0, 20)});
  }
  return net;
}

FaultEvent random_fault_event(check::Rng& rng) {
  FaultEvent event;
  event.dead_wires = random_ids(rng, 4);
  event.dead_edges = random_ids(rng, 3);
  event.normalize();
  return event;
}

TEST(LineFormatTest, MutatedLinesParseToNulloptOrARoundTrip) {
  int accepted = 0;
  for (int i = 0; i < kLinesPerKind; ++i) {
    const std::uint64_t seed =
        testing::seeded_rng("line_format_mutations", static_cast<std::uint64_t>(i));
    check::Rng rng(seed);

    const check::TreeCase tree = check::generate_tree_case(seed, 9, table1_algorithms());
    check_mutations<check::TreeCase>(tree.describe(), rng, accepted);

    const auto generate =
        std::array{check::generate_circuit_case, check::generate_fault_circuit_case,
                   check::generate_negotiated_circuit_case,
                   check::generate_repair_circuit_case}[i % 4];
    const check::CircuitCase circuit = generate(seed);
    check_mutations<check::CircuitCase>(circuit.describe(), rng, accepted);
    check_mutations<FaultSpec>(check::generate_fault_circuit_case(seed).faults.describe(), rng,
                               accepted);

    check_mutations<FaultEvent>(random_fault_event(rng).describe(), rng, accepted);

    RepairEvent repair;
    repair.faults = random_fault_event(rng);
    for (int k = rng.range(0, 2); k > 0; --k) {
      repair.changed.emplace_back(rng.range(0, 30), random_net(rng));
    }
    for (int k = rng.range(0, 2); k > 0; --k) repair.added.push_back(random_net(rng));
    repair.removed = random_ids(rng, 2);
    repair.budget = rng.below(2) == 0 ? 0 : static_cast<long long>(rng.below(100000));
    check_mutations<RepairEvent>(repair.describe(), rng, accepted);

    RepairOutcome outcome;
    outcome.cone_nets = rng.range(0, 40);
    outcome.repaired = rng.range(0, 40);
    outcome.degraded = rng.range(0, 5);
    outcome.aborted = rng.range(0, 5);
    outcome.budget_used = static_cast<long long>(rng.below(1'000'000));
    outcome.detour_overhead = rng.range(0, 50);
    check_mutations<RepairOutcome>(outcome.describe(), rng, accepted);
  }
  // The sweep exercises both outcomes, not only rejection.
  EXPECT_GT(accepted, kLinesPerKind);
}

}  // namespace
}  // namespace fpr
