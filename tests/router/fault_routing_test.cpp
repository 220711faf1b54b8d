// Defect-aware routing and deterministic work budgets: NetStatus
// classification, graceful degradation under injected faults, budget-abort
// consistency, and the width-search status paths that used to collapse
// into a silent min_width == -1.

#include <gtest/gtest.h>

#include <vector>

#include "check/oracles.hpp"
#include "router/router.hpp"
#include "router/width_search.hpp"

namespace fpr {
namespace {

Circuit small_circuit() {
  Circuit c;
  c.name = "fault-unit";
  c.rows = 4;
  c.cols = 4;
  c.nets.push_back({{0, 0}, {{3, 3}}});
  c.nets.push_back({{0, 3}, {{3, 0}, {2, 2}}});
  c.nets.push_back({{1, 1}, {{2, 1}, {1, 2}, {3, 2}}});
  c.nets.push_back({{0, 1}, {{0, 2}}});
  return c;
}

FaultSpec moderate_faults(std::uint64_t seed = 21) {
  FaultSpec spec;
  spec.seed = seed;
  spec.wire_permille = 60;
  spec.switch_permille = 40;
  spec.pin_permille = 20;
  return spec;
}

/// Field-by-field equality over everything the determinism contract
/// promises (RoutingResult has no operator==; spelling the fields out also
/// localizes a failure to the field that diverged).
void expect_identical(const RoutingResult& a, const RoutingResult& b) {
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.passes, b.passes);
  EXPECT_EQ(a.failed_nets, b.failed_nets);
  EXPECT_EQ(a.total_wirelength, b.total_wirelength);
  EXPECT_EQ(a.total_wire_nodes, b.total_wire_nodes);
  EXPECT_EQ(a.nets_rerouted_around_faults, b.nets_rerouted_around_faults);
  EXPECT_EQ(a.nets_blocked_by_fault, b.nets_blocked_by_fault);
  EXPECT_EQ(a.nets_aborted_budget, b.nets_aborted_budget);
  EXPECT_EQ(a.detour_wirelength_overhead, b.detour_wirelength_overhead);
  EXPECT_EQ(a.work_used, b.work_used);
  EXPECT_EQ(a.budget_exhausted, b.budget_exhausted);
  ASSERT_EQ(a.nets.size(), b.nets.size());
  for (std::size_t i = 0; i < a.nets.size(); ++i) {
    EXPECT_EQ(a.nets[i].status, b.nets[i].status) << "net " << i;
    EXPECT_EQ(a.nets[i].retries, b.nets[i].retries) << "net " << i;
    EXPECT_EQ(a.nets[i].blocked_sink, b.nets[i].blocked_sink) << "net " << i;
    EXPECT_EQ(a.nets[i].edges, b.nets[i].edges) << "net " << i;
  }
}

TEST(FaultRoutingTest, NetStatusNamesAreStable) {
  EXPECT_EQ(net_status_name(NetStatus::kRouted), "routed");
  EXPECT_EQ(net_status_name(NetStatus::kFailedCongestion), "congestion");
  EXPECT_EQ(net_status_name(NetStatus::kBlockedByFault), "fault");
  EXPECT_EQ(net_status_name(NetStatus::kAbortedBudget), "budget");
}

TEST(FaultRoutingTest, RoutesAroundInjectedFaultsOracleClean) {
  const ArchSpec arch = ArchSpec::xc4000(4, 4, 5);
  const Circuit circuit = small_circuit();
  Device device(arch);
  device.install_faults(moderate_faults());
  RouterOptions options;
  const RoutingResult r = route_circuit(device, circuit, options);

  // The widened channel leaves room to detour: everything still routes.
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.nets_blocked_by_fault, 0);
  EXPECT_EQ(r.nets_aborted_budget, 0);

  // The defect-aware oracle replays the device with the same faults and
  // asserts no routed net occupies a dead wire or crosses a dead edge.
  const FaultSpec faults = moderate_faults();
  const auto check = check::check_routing_feasibility(arch, circuit, r, options, &faults);
  EXPECT_TRUE(check.ok()) << check.message();
}

TEST(FaultRoutingTest, TotalWireOutageClassifiesNetsAsBlocked) {
  const ArchSpec arch = ArchSpec::xc4000(4, 4, 3);
  const Circuit circuit = small_circuit();
  Device device(arch);
  FaultSpec everything;
  everything.seed = 1;
  everything.wire_permille = 1000;  // every wire segment stuck open
  device.install_faults(everything);
  RouterOptions options;
  options.max_passes = 3;
  const RoutingResult r = route_circuit(device, circuit, options);

  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.routed_fraction(), 0.0);
  EXPECT_EQ(r.nets_blocked_by_fault, static_cast<int>(circuit.nets.size()));
  for (const auto& net : r.nets) {
    EXPECT_EQ(net.status, NetStatus::kBlockedByFault);
    EXPECT_NE(net.blocked_sink, kInvalidNode);  // the probe names a culprit
    EXPECT_TRUE(net.edges.empty());
  }
  // Nothing half-committed leaks into the device.
  EXPECT_EQ(device.used_wire_count(), 0);

  const auto check =
      check::check_routing_feasibility(arch, circuit, r, options, &everything);
  EXPECT_TRUE(check.ok()) << check.message();
}

TEST(FaultRoutingTest, DecomposedModeRollsBackPartialCommitsUnderFaults) {
  // Two-pin decomposition commits sink-by-sink; a mid-net fault blockage
  // must roll the committed prefix back (CommitLog), never leaking wires.
  const ArchSpec arch = ArchSpec::xc4000(4, 4, 3);
  const Circuit circuit = small_circuit();
  Device device(arch);
  const FaultSpec faults = moderate_faults(33);
  device.install_faults(faults);
  RouterOptions options;
  options.decompose_two_pin = true;
  options.max_passes = 4;
  const RoutingResult r = route_circuit(device, circuit, options);

  // Whatever routed must be consistent; whatever failed must leave nothing.
  const auto check = check::check_routing_feasibility(arch, circuit, r, options, &faults);
  EXPECT_TRUE(check.ok()) << check.message();
  int expected_wires = 0;
  for (const auto& net : r.nets) expected_wires += net.wire_nodes_used;
  EXPECT_EQ(device.used_wire_count(), expected_wires);
}

TEST(FaultRoutingTest, FaultRetriesNeverFireOnPristineDevices) {
  // With no faults installed the retry ladder is inert: results are
  // identical whether retries are enabled or not (zero behavior change).
  const Circuit circuit = small_circuit();
  RouterOptions with_retries;
  with_retries.fault_retries = 2;
  RouterOptions without;
  without.fault_retries = 0;
  Device a(ArchSpec::xc4000(4, 4, 4));
  Device b(ArchSpec::xc4000(4, 4, 4));
  const RoutingResult ra = route_circuit(a, circuit, with_retries);
  const RoutingResult rb = route_circuit(b, circuit, without);
  expect_identical(ra, rb);
  for (const auto& net : ra.nets) EXPECT_EQ(net.retries, 0);
}

TEST(FaultRoutingTest, BudgetAbortIsDeterministicAndConsistent) {
  const ArchSpec arch = ArchSpec::xc4000(4, 4, 4);
  const Circuit circuit = small_circuit();
  RouterOptions options;
  options.node_budget = 60;  // a handful of heap pops: expires mid-circuit

  Device d1(arch);
  const RoutingResult r1 = route_circuit(d1, circuit, options);
  EXPECT_TRUE(r1.budget_exhausted);
  EXPECT_LE(r1.work_used, options.node_budget);
  EXPECT_GT(r1.nets_aborted_budget, 0);
  for (const auto& net : r1.nets) {
    // A budget abort never misclassifies: every net either routed before
    // the budget died or is marked kAbortedBudget.
    EXPECT_TRUE(net.status == NetStatus::kRouted || net.status == NetStatus::kAbortedBudget);
  }
  // The partial result is still a consistent (oracle-clean) solution.
  const auto check = check::check_routing_feasibility(arch, circuit, r1, options);
  EXPECT_TRUE(check.ok()) << check.message();

  // Node expansions, not wall-clock: bit-identical on every run.
  Device d2(arch);
  expect_identical(r1, route_circuit(d2, circuit, options));
}

TEST(FaultRoutingTest, AmpleBudgetMatchesUnlimited) {
  const Circuit circuit = small_circuit();
  RouterOptions unlimited;  // node_budget = 0
  RouterOptions ample;
  ample.node_budget = 100'000'000;
  Device a(ArchSpec::xc4000(4, 4, 4));
  Device b(ArchSpec::xc4000(4, 4, 4));
  const RoutingResult ru = route_circuit(a, circuit, unlimited);
  const RoutingResult rb = route_circuit(b, circuit, ample);
  EXPECT_FALSE(rb.budget_exhausted);
  EXPECT_GT(rb.work_used, 0);
  expect_identical(ru, rb);
}

// Regression for budget-shaped measurement: measure() used to read the
// per-net oracle's cached source tree, which a tight work budget can have
// truncated mid-routing (budget-aborted partial trees stay cached, see
// path_oracle.hpp) — so nets that ROUTED were recorded with an infinite
// optimal_max_pathlength, violating optimal <= actual. Measurement now
// runs post-hoc on complete, unbudgeted trees. The seed/budget pair below
// is calibrated: on the pre-fix router it reports optimal == infinity for
// a routed net at every fault seed in 1..40.
TEST(FaultRoutingTest, RoutedNetsMeasureFiniteOptimalUnderTightBudget) {
  Device device(ArchSpec::xc4000(4, 4, 5));
  device.install_faults(moderate_faults(1));
  RouterOptions options;
  options.node_budget = 700;
  const RoutingResult result = route_circuit(device, small_circuit(), options);
  bool any_routed = false;
  for (const NetRouteResult& net : result.nets) {
    if (!net.routed()) continue;
    any_routed = true;
    // A routed net's optimal bound is a real path length: finite, and a
    // lower bound on the maximum source-sink path the tree realized.
    EXPECT_LT(net.optimal_max_pathlength, kInfiniteWeight / 2);
    EXPECT_GE(net.max_pathlength, net.optimal_max_pathlength - 1e-9);
  }
  EXPECT_TRUE(any_routed);
}

TEST(WidthSearchStatusTest, EmptyRange) {
  WidthSearchOptions search;
  search.max_width = 0;
  const WidthSearchResult r =
      find_min_channel_width(ArchSpec::xc4000(4, 4, 1), small_circuit(), RouterOptions{}, search);
  EXPECT_EQ(r.status, WidthSearchStatus::kEmptyRange);
  EXPECT_EQ(r.min_width, -1);
  EXPECT_TRUE(r.attempts.empty());
  EXPECT_EQ(width_search_status_name(r.status), "empty-range");
}

TEST(WidthSearchStatusTest, Found) {
  const WidthSearchResult r =
      find_min_channel_width(ArchSpec::xc4000(4, 4, 1), small_circuit(), RouterOptions{});
  EXPECT_EQ(r.status, WidthSearchStatus::kFound);
  EXPECT_GT(r.min_width, 0);
  EXPECT_TRUE(r.at_min_width.success);
}

TEST(WidthSearchStatusTest, Unroutable) {
  // Five nets out of one source block cannot route at W=1 (only four
  // adjacent wire segments exist), and max_width pins the search there.
  Circuit c;
  c.rows = c.cols = 4;
  for (int i = 0; i < 5; ++i) c.nets.push_back({{1, 1}, {{3, (i * 7) % 4}}});
  RouterOptions router;
  router.max_passes = 3;
  WidthSearchOptions search;
  search.min_width = 1;
  search.max_width = 1;
  const WidthSearchResult r =
      find_min_channel_width(ArchSpec::xc4000(4, 4, 1), c, router, search);
  EXPECT_EQ(r.status, WidthSearchStatus::kUnroutable);
  EXPECT_EQ(r.min_width, -1);
  ASSERT_FALSE(r.attempts.empty());
  EXPECT_FALSE(r.attempts.front().success);
  EXPECT_FALSE(r.attempts.front().budget_aborted);  // genuinely infeasible
}

TEST(WidthSearchStatusTest, BudgetExhausted) {
  RouterOptions router;
  WidthSearchOptions search;
  search.max_width = 6;
  search.node_budget_per_probe = 5;  // expires before any probe decides
  const WidthSearchResult r =
      find_min_channel_width(ArchSpec::xc4000(4, 4, 1), small_circuit(), router, search);
  EXPECT_EQ(r.status, WidthSearchStatus::kBudgetExhausted);
  EXPECT_EQ(r.min_width, -1);
  ASSERT_FALSE(r.attempts.empty());
  EXPECT_TRUE(r.attempts.front().budget_aborted);
  EXPECT_EQ(width_search_status_name(r.status), "budget");
}

// A found width is not always a certainty: when a narrower probe dies on
// its per-probe budget, the search treats it as failing (the safe
// direction) and keeps the wider answer — but the result must SAY so.
// undecided_probes surfaces exactly those budget-aborted attempts, so a
// kFound result with undecided_probes > 0 reads "min_width is an upper
// bound". Calibrated: 32 center-crossing two-pin nets on an 8x8 array
// route at width 3 (3,653 expansions), the width-2 probe grinds through
// rip-up passes (14,296 expansions unbudgeted) until the 11.5k-expansion
// budget kills it, and the max-width probe decides with room to spare
// (8,932).
TEST(WidthSearchStatusTest, FoundWithBudgetUndecidedProbesIsFlagged) {
  Circuit c;
  c.name = "crossings";
  c.rows = 8;
  c.cols = 8;
  for (int i = 0; i < 8; ++i) {
    c.nets.push_back({{0, i}, {{7, 7 - i}}});
    c.nets.push_back({{i, 0}, {{7 - i, 7}}});
    c.nets.push_back({{0, i}, {{7, i}}});
    c.nets.push_back({{i, 0}, {{i, 7}}});
  }
  RouterOptions router;
  router.max_passes = 20;
  WidthSearchOptions search;
  search.min_width = 1;
  search.max_width = 6;
  search.node_budget_per_probe = 11'500;
  const WidthSearchResult r =
      find_min_channel_width(ArchSpec::xc4000(8, 8, 1), c, router, search);
  ASSERT_EQ(r.status, WidthSearchStatus::kFound);
  EXPECT_EQ(r.min_width, 3);
  EXPECT_EQ(r.undecided_probes, 1);
  int aborted = 0;
  for (const WidthProbe& probe : r.attempts) {
    if (probe.budget_aborted) {
      ++aborted;
      EXPECT_FALSE(probe.success);
      EXPECT_LT(probe.width, r.min_width);  // only narrower widths undecided
    }
  }
  EXPECT_EQ(r.undecided_probes, aborted);

  // The flag inherits the serial-replay contract: bit-identical pooled.
  WidthSearchOptions pooled = search;
  pooled.threads = 4;
  const WidthSearchResult p =
      find_min_channel_width(ArchSpec::xc4000(8, 8, 1), c, router, pooled);
  EXPECT_EQ(p.status, r.status);
  EXPECT_EQ(p.min_width, r.min_width);
  EXPECT_EQ(p.undecided_probes, r.undecided_probes);
  EXPECT_EQ(p.attempts, r.attempts);
  expect_identical(p.at_min_width, r.at_min_width);
}

TEST(WidthSearchStatusTest, FaultedSearchIsThreadCountInvariant) {
  // Same fault seed, FPR_THREADS-style pool of 1 vs 4: the memoized
  // serial-replay contract promises bit-identical traces and results.
  const ArchSpec base = ArchSpec::xc4000(4, 4, 1);
  const Circuit circuit = small_circuit();
  RouterOptions router;
  router.max_passes = 6;
  WidthSearchOptions serial;
  serial.max_width = 10;
  serial.faults = moderate_faults();
  serial.node_budget_per_probe = 2'000'000;
  WidthSearchOptions pooled = serial;
  serial.threads = 1;
  pooled.threads = 4;

  const WidthSearchResult a = find_min_channel_width(base, circuit, router, serial);
  const WidthSearchResult b = find_min_channel_width(base, circuit, router, pooled);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.min_width, b.min_width);
  EXPECT_EQ(a.attempts, b.attempts);
  expect_identical(a.at_min_width, b.at_min_width);

  // The found width really does route the defective part, defect-cleanly.
  ASSERT_EQ(a.status, WidthSearchStatus::kFound);
  const FaultSpec faults = moderate_faults();
  const auto check = check::check_routing_feasibility(
      base.with_width(a.min_width), circuit, a.at_min_width, router, &faults);
  EXPECT_TRUE(check.ok()) << check.message();
}

}  // namespace
}  // namespace fpr
