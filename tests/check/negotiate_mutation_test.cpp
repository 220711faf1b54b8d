// Negotiated-mode mutation smoke test: plant the seeded history-update bug
// (testhooks::negotiate_break_history_update skips odd-id wires from both
// the end-of-pass overflow tally and the history accrual, so the loop
// believes a pass with shared odd-id wires converged and ships a solution
// violating wire exclusivity) and prove the negotiate fuzz oracle catches
// it with a minimized, replayable repro — plus a deterministic direct
// check on a congested circuit, and a control run that exonerates the
// oracle itself.

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "check/fuzz.hpp"
#include "core/metrics.hpp"
#include "router/negotiate.hpp"

namespace fpr::check {
namespace {

class NegotiateMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    counters().reset();
    testhooks::negotiate_break_history_update.store(true);
  }
  void TearDown() override { testhooks::negotiate_break_history_update.store(false); }
};

// The minimized case the fuzz run below first caught, pinned verbatim: a
// tiny congested 2x3 array where the broken end-of-pass sweep believes a
// pass with shared odd-id wires converged. Kept as a direct regression so
// the bug-catch does not depend on re-running the whole fuzz loop. Re-pin
// it from that fuzz run's minimized repro whenever the negotiated loop's
// pass schedule changes (which nets a pass re-routes decides whether a
// shared odd-id wire survives to the believed-converged pass).
constexpr const char* kPinnedRepro =
    "circuit family=xc3000 rows=2 cols=3 width=3 nets=3,0,0 synth_seed=4268943187 "
    "algo=DJKA decompose=0 mode=negotiated";

TEST_F(NegotiateMutationTest, OracleCatchesBrokenHistoryUpdateOnPinnedCase) {
  const auto verdict = run_case(Oracle::kNegotiate, kPinnedRepro);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_FALSE(verdict->ok())
      << "seeded history-update bug shipped a solution the oracle waved through";

  // Same case, hook off: clean — the failure above is the injected fault,
  // not the oracle or the case itself.
  testhooks::negotiate_break_history_update.store(false);
  const auto control = run_case(Oracle::kNegotiate, kPinnedRepro);
  ASSERT_TRUE(control.has_value());
  EXPECT_TRUE(control->ok()) << control->message();
}

TEST_F(NegotiateMutationTest, FuzzOracleCatchesBrokenHistoryUpdate) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "negotiate-mutation-failures";
  std::filesystem::remove_all(dir);

  FuzzOptions options;
  options.seed = 1;
  options.iterations = 150;
  options.oracles = {Oracle::kNegotiate};
  options.max_failures = 1;  // first catch is enough for the smoke test
  options.failure_dir = dir.string();
  options.log = nullptr;
  const FuzzReport report = fuzz(options);

  ASSERT_FALSE(report.clean())
      << "broken history update survived 150 negotiate-oracle iterations";
  const FuzzFailure& f = report.failures.front();
  EXPECT_FALSE(f.repro.empty());
  EXPECT_FALSE(f.message.empty());

  // The minimized repro parses, still fails, and is a negotiated case —
  // the shrinker's mode move (drop to paper mode) must NOT have fired,
  // since the planted bug lives inside the negotiation loop.
  const auto minimized = CircuitCase::parse(f.repro);
  ASSERT_TRUE(minimized.has_value()) << f.repro;
  EXPECT_TRUE(minimized->negotiated) << f.repro;
  const auto rerun = run_case(Oracle::kNegotiate, f.repro);
  ASSERT_TRUE(rerun.has_value());
  EXPECT_FALSE(rerun->ok()) << "minimized repro no longer fails: " << f.repro;

  // ...and was persisted as a self-contained file that replays.
  ASSERT_FALSE(f.file.empty());
  EXPECT_TRUE(std::filesystem::exists(f.file));
  std::ostringstream log;
  const auto replayed = replay_file(f.file, log);
  ASSERT_TRUE(replayed.has_value()) << log.str();
  EXPECT_FALSE(replayed->ok());

  std::filesystem::remove_all(dir);
}

TEST_F(NegotiateMutationTest, SameSeedIsCleanWithoutTheMutation) {
  // Control: the exact fuzz run above passes once the hook is off, pinning
  // the failures on the injected fault rather than the oracle or the
  // negotiated generator.
  testhooks::negotiate_break_history_update.store(false);
  FuzzOptions options;
  options.seed = 1;
  options.iterations = 150;
  options.oracles = {Oracle::kNegotiate};
  options.log = nullptr;
  EXPECT_TRUE(fuzz(options).clean());
}

}  // namespace
}  // namespace fpr::check
