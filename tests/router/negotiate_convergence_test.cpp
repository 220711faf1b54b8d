// Convergence-regression tier for the negotiated-congestion router
// (DESIGN.md §13), pinned on Table 2/3 circuits at fixed synthesis seeds:
//  - the run converges (zero wire overflow) at the paper's minimum channel
//    width, in a pinned number of passes (everything is deterministic, so
//    the pins are exact — a drift in passes-to-converge is a behavior
//    change that must be reviewed, not absorbed);
//  - the overflow trend is monotone non-increasing and ends at zero;
//  - the minimum channel width the negotiated mode needs is no worse than
//    the paper mode's on the same circuit (any future regression must
//    update the pin with a documented delta).
// Numbers were measured on the seed implementation; see also
// bench/negotiate.cpp, which reports the full-table comparison.

#include <gtest/gtest.h>

#include "check/oracles.hpp"
#include "core/metrics.hpp"
#include "netlist/profiles.hpp"
#include "netlist/synth.hpp"
#include "router/router.hpp"
#include "router/width_search.hpp"

namespace fpr {
namespace {

enum class ArchFamily3or4 { kXc3000, kXc4000 };

// The measured pins (seed implementation, fixed synthesis seeds below).
// These are EXACT: the negotiated loop is deterministic, so any drift is a
// behavior change to review and re-pin deliberately.
constexpr int kBuscPasses = 17;
constexpr int kDmaPasses = 5;
constexpr int kTerm1Passes = 2;
// Min-width pins: negotiation WINS a track on busc (7 vs 8) and pays one
// on term1 (6 vs 5) — the documented delta; see BENCH_negotiate.json for
// the full table.
constexpr int kBuscPaperWidth = 8;
constexpr int kBuscNegotiatedWidth = 7;
constexpr int kTerm1PaperWidth = 5;
constexpr int kTerm1NegotiatedWidth = 6;

RouterOptions negotiated_options() {
  RouterOptions o;
  o.mode = RouterMode::kNegotiated;
  o.negotiate_passes = 20;  // same feasibility threshold as the paper loop
  return o;
}

/// Shared body: route `profile` at its paper IKMB width in negotiated mode
/// and pin the convergence contract plus the exact passes-to-converge.
void expect_converges(const CircuitProfile& profile, ArchFamily3or4 family, unsigned seed,
                      int expected_passes) {
  const ArchSpec arch = family == ArchFamily3or4::kXc3000
                            ? ArchSpec::xc3000(profile.rows, profile.cols, profile.paper_ikmb)
                            : ArchSpec::xc4000(profile.rows, profile.cols, profile.paper_ikmb);
  const Circuit circuit = synthesize_circuit(profile, seed);
  const RouterOptions options = negotiated_options();
  Device device(arch);
  const RoutingResult r = route_circuit(device, circuit, options);

  EXPECT_TRUE(r.success) << profile.name << " failed to converge at width "
                         << profile.paper_ikmb;
  ASSERT_FALSE(r.overflow_trend.empty());
  EXPECT_EQ(r.overflow_trend.back(), 0) << "converged run must end at zero overflow";
  for (std::size_t i = 1; i < r.overflow_trend.size(); ++i) {
    EXPECT_LE(r.overflow_trend[i], r.overflow_trend[i - 1])
        << "overflow trend regressed at pass " << i + 1;
  }
  EXPECT_EQ(static_cast<int>(r.overflow_trend.size()), r.passes);
  EXPECT_EQ(r.passes, expected_passes)
      << profile.name << ": passes-to-converge drifted — review and re-pin";

  const auto check = check::check_routing_feasibility(arch, circuit, r, options);
  EXPECT_TRUE(check.ok()) << check.message();
}

TEST(NegotiateConvergenceTest, BuscConvergesAtPaperWidth) {
  const CircuitProfile& profile = xc3000_profiles()[0];
  ASSERT_EQ(profile.name, "busc");
  expect_converges(profile, ArchFamily3or4::kXc3000, 31, kBuscPasses);
}

TEST(NegotiateConvergenceTest, DmaConvergesAtPaperWidth) {
  const CircuitProfile& profile = xc3000_profiles()[1];
  ASSERT_EQ(profile.name, "dma");
  expect_converges(profile, ArchFamily3or4::kXc3000, 31, kDmaPasses);
}

TEST(NegotiateConvergenceTest, Term1ConvergesAtPaperWidth) {
  const CircuitProfile& profile = xc4000_profiles()[2];
  ASSERT_EQ(profile.name, "term1");
  expect_converges(profile, ArchFamily3or4::kXc4000, 7, kTerm1Passes);
}

TEST(NegotiateConvergenceTest, BuscMinWidthIsNoWorseThanPaperMode) {
  const CircuitProfile& profile = xc3000_profiles()[0];
  const ArchSpec base = ArchSpec::xc3000(profile.rows, profile.cols, 1);
  const Circuit circuit = synthesize_circuit(profile, 31);
  WidthSearchOptions search;
  search.max_width = 16;

  RouterOptions paper;
  paper.max_passes = 20;
  const int paper_width = find_min_channel_width(base, circuit, paper, search).min_width;

  const auto negotiated = find_min_channel_width(base, circuit, negotiated_options(), search);
  ASSERT_GT(negotiated.min_width, 0);
  ASSERT_GT(paper_width, 0);
  EXPECT_LE(negotiated.min_width, paper_width);
  // Exact pins: a change in either is a routing-quality change to review.
  EXPECT_EQ(paper_width, kBuscPaperWidth);
  EXPECT_EQ(negotiated.min_width, kBuscNegotiatedWidth);
  // The witness at the minimum width is a converged negotiated solution.
  EXPECT_TRUE(negotiated.at_min_width.success);
  ASSERT_FALSE(negotiated.at_min_width.overflow_trend.empty());
  EXPECT_EQ(negotiated.at_min_width.overflow_trend.back(), 0);
}

TEST(NegotiateConvergenceTest, Term1MinWidthDeltaIsPinned) {
  const CircuitProfile& profile = xc4000_profiles()[2];
  const ArchSpec base = ArchSpec::xc4000(profile.rows, profile.cols, 1);
  const Circuit circuit = synthesize_circuit(profile, 7);
  WidthSearchOptions search;
  search.max_width = 16;

  RouterOptions paper;
  paper.max_passes = 20;
  const int paper_width = find_min_channel_width(base, circuit, paper, search).min_width;

  const auto negotiated = find_min_channel_width(base, circuit, negotiated_options(), search);
  ASSERT_GT(negotiated.min_width, 0);
  ASSERT_GT(paper_width, 0);
  // Documented delta: on term1 the negotiated mode currently pays one
  // track over paper mode (it wins one on busc). A drift past the pinned
  // +1 is a real routing-quality regression.
  EXPECT_LE(negotiated.min_width, paper_width + 1);
  EXPECT_EQ(paper_width, kTerm1PaperWidth);
  EXPECT_EQ(negotiated.min_width, kTerm1NegotiatedWidth);
}

// ---------------------------------------------------------------------------
// Mode-gating boundary: the paper mode's relief/reordering machinery and
// the negotiated mode's trend/pattern machinery are mutually exclusive.
// ---------------------------------------------------------------------------

TEST(NegotiateBoundaryTest, PaperMachineryNeverEngagesInNegotiatedMode) {
  // A faulted, congested run — exactly the conditions that drive paper-mode
  // congestion relief and move-to-front — must leave both counters at zero
  // when routed by negotiation.
  const CircuitProfile& profile = xc3000_profiles()[0];
  const ArchSpec arch = ArchSpec::xc3000(profile.rows, profile.cols, profile.paper_ikmb);
  FaultSpec faults;
  faults.seed = 9;
  faults.wire_permille = 30;
  faults.switch_permille = 20;
  counters().reset();
  Device device(arch);
  device.install_faults(faults);
  RouterOptions options = negotiated_options();
  options.negotiate_passes = 16;
  const RoutingResult r = route_circuit(device, synthesize_circuit(profile, 31), options);
  EXPECT_EQ(counters().congestion_reliefs.load(), 0u)
      << "CongestionRelief engaged during a negotiated run";
  EXPECT_EQ(counters().move_to_front_reorders.load(), 0u)
      << "move-to-front reordering engaged during a negotiated run";
  // Negotiated machinery did engage (the gate is directional, not dead).
  EXPECT_GT(counters().negotiate_runs.load(), 0u);
  EXPECT_FALSE(r.overflow_trend.empty());
  for (const auto& net : r.nets) EXPECT_EQ(net.retries, 0);
}

TEST(NegotiateBoundaryTest, ReliefCountersAreLiveInPaperMode) {
  // Control for the test above: the same faulted scenario in paper mode
  // DOES build CongestionRelief guards — proving the zero assertion is
  // checking a live counter, not a never-incremented one.
  const CircuitProfile& profile = xc3000_profiles()[0];
  const ArchSpec arch = ArchSpec::xc3000(profile.rows, profile.cols, profile.paper_ikmb);
  FaultSpec faults;
  faults.seed = 9;
  faults.wire_permille = 30;
  faults.switch_permille = 20;
  counters().reset();
  Device device(arch);
  device.install_faults(faults);
  RouterOptions paper;
  paper.max_passes = 6;
  const RoutingResult r = route_circuit(device, synthesize_circuit(profile, 31), paper);
  EXPECT_GT(counters().congestion_reliefs.load(), 0u);
  // And the negotiated result surface stays silent in paper mode.
  EXPECT_TRUE(r.overflow_trend.empty());
  EXPECT_EQ(r.pattern_attempts, 0);
  EXPECT_EQ(r.pattern_accepts, 0);
  EXPECT_EQ(counters().negotiate_runs.load(), 0u);
  EXPECT_EQ(counters().pattern_attempts.load(), 0u);
}

}  // namespace
}  // namespace fpr
