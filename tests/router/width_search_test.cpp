#include "router/width_search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "experiments/tables23.hpp"
#include "netlist/synth.hpp"

namespace fpr {
namespace {

Circuit crossing_circuit(int lanes) {
  Circuit c;
  c.rows = c.cols = 4;
  for (int i = 0; i < lanes; ++i) {
    c.nets.push_back({{0, i % 4}, {{3, (i + 1) % 4}}});
  }
  return c;
}

/// The serial binary search written out on its own, as the reference every
/// thread count must reproduce: max_width first, then the midpoint sequence,
/// each probe on a fresh Device carrying the search's faults and per-probe
/// budget.
WidthSearchResult written_out_serial_search(const ArchSpec& base, const Circuit& circuit,
                                            const RouterOptions& router,
                                            const WidthSearchOptions& search) {
  WidthSearchResult ref;
  const auto probe = [&](int width) {
    Device device(base.with_width(width));
    if (search.faults.has_value() && search.faults->any()) device.install_faults(*search.faults);
    RouterOptions options = router;
    if (search.node_budget_per_probe > 0) options.node_budget = search.node_budget_per_probe;
    RoutingResult r = route_circuit(device, circuit, options);
    ref.attempts.push_back({width, r.success, r.budget_exhausted});
    if (!r.success && r.budget_exhausted) ++ref.undecided_probes;
    return r;
  };
  int lo = std::max(search.min_width, 1);
  const int hi = search.max_width;
  if (hi < 1 || lo > hi) return ref;
  RoutingResult widest = probe(hi);
  if (!widest.success) {
    ref.status = widest.budget_exhausted ? WidthSearchStatus::kBudgetExhausted
                                         : WidthSearchStatus::kUnroutable;
    return ref;
  }
  ref.status = WidthSearchStatus::kFound;
  ref.min_width = hi;
  ref.at_min_width = std::move(widest);
  while (lo < ref.min_width) {
    const int mid = lo + (ref.min_width - lo) / 2;
    RoutingResult r = probe(mid);
    if (r.success) {
      ref.min_width = mid;
      ref.at_min_width = std::move(r);
    } else {
      lo = mid + 1;
    }
  }
  return ref;
}

/// Field-by-field equality over everything the attempts contract promises.
void expect_identical(const WidthSearchResult& a, const WidthSearchResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.min_width, b.min_width);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.undecided_probes, b.undecided_probes);
  const RoutingResult& x = a.at_min_width;
  const RoutingResult& y = b.at_min_width;
  EXPECT_EQ(x.success, y.success);
  EXPECT_EQ(x.passes, y.passes);
  EXPECT_EQ(x.failed_nets, y.failed_nets);
  EXPECT_EQ(x.total_wirelength, y.total_wirelength);
  EXPECT_EQ(x.total_max_pathlength, y.total_max_pathlength);
  EXPECT_EQ(x.nets_blocked_by_fault, y.nets_blocked_by_fault);
  EXPECT_EQ(x.nets_aborted_budget, y.nets_aborted_budget);
  EXPECT_EQ(x.work_used, y.work_used);
  EXPECT_EQ(x.budget_exhausted, y.budget_exhausted);
  EXPECT_EQ(x.nets, y.nets);
  EXPECT_EQ(x.net_order, y.net_order);
  EXPECT_EQ(x.overflow_trend, y.overflow_trend);
  EXPECT_EQ(x.reroute_trend, y.reroute_trend);
}

struct SearchCase {
  std::string name;
  ArchSpec base;
  Circuit circuit;
  RouterOptions router;
  WidthSearchOptions search;
};

/// Runs every case at 1, 2, 3, 4 and 8 threads against the written-out
/// serial search, and returns the references so a test can check what its
/// cases cover.
std::vector<WidthSearchResult> expect_every_thread_count_matches_reference(
    const std::vector<SearchCase>& cases) {
  std::vector<WidthSearchResult> refs;
  for (const SearchCase& c : cases) {
    const WidthSearchResult& ref =
        refs.emplace_back(written_out_serial_search(c.base, c.circuit, c.router, c.search));
    for (const int threads : {1, 2, 3, 4, 8}) {
      SCOPED_TRACE(c.name + " [" + std::to_string(c.search.min_width) + ", " +
                   std::to_string(c.search.max_width) + "] threads " + std::to_string(threads));
      WidthSearchOptions search = c.search;
      search.threads = threads;
      expect_identical(find_min_channel_width(c.base, c.circuit, c.router, search), ref);
    }
  }
  return refs;
}

/// True when some probe in the trace failed.
bool any_failed(const WidthSearchResult& r) {
  return std::any_of(r.attempts.begin(), r.attempts.end(),
                     [](const WidthProbe& p) { return !p.success; });
}

RouterOptions paper_router(int max_passes) {
  RouterOptions router;
  router.max_passes = max_passes;
  return router;
}

TEST(WidthSearchTest, FindsMinimalWidth) {
  const ArchSpec base = ArchSpec::xc4000(4, 4, 1);
  RouterOptions router;
  router.max_passes = 6;
  WidthSearchOptions search;
  search.max_width = 8;
  const auto result = find_min_channel_width(base, crossing_circuit(6), router, search);
  ASSERT_GT(result.min_width, 0);
  EXPECT_TRUE(result.at_min_width.success);

  // Verify minimality: one narrower must fail.
  if (result.min_width > search.min_width) {
    Device device(base.with_width(result.min_width - 1));
    EXPECT_FALSE(route_circuit(device, crossing_circuit(6), router).success);
  }
}

TEST(WidthSearchTest, UnroutableInRangeReturnsMinusOne) {
  // Five nets out of one block exceed the four adjacent wires of W=1;
  // cap the search at W=1 so no feasible width is in range.
  Circuit c;
  c.rows = c.cols = 2;
  for (int i = 0; i < 5; ++i) c.nets.push_back({{0, 0}, {{1, 1}}});
  RouterOptions router;
  router.max_passes = 3;
  WidthSearchOptions search;
  search.min_width = 1;
  search.max_width = 1;
  const auto result =
      find_min_channel_width(ArchSpec::xc4000(2, 2, 1), c, router, search);
  EXPECT_EQ(result.min_width, -1);
}

TEST(WidthSearchTest, AttemptTraceIsBinarySearchSized) {
  const ArchSpec base = ArchSpec::xc4000(4, 4, 1);
  RouterOptions router;
  router.max_passes = 4;
  WidthSearchOptions search;
  search.max_width = 16;
  const auto result = find_min_channel_width(base, crossing_circuit(4), router, search);
  ASSERT_GT(result.min_width, 0);
  // log2(16) + 1 probes at most, plus the initial max-width check.
  EXPECT_LE(result.attempts.size(), 6u);
}

TEST(WidthSearchTest, DegenerateRangesAreGuarded) {
  const ArchSpec base = ArchSpec::xc4000(4, 4, 1);
  RouterOptions router;
  router.max_passes = 3;

  WidthSearchOptions inverted;
  inverted.min_width = 5;
  inverted.max_width = 2;
  auto r = find_min_channel_width(base, crossing_circuit(2), router, inverted);
  EXPECT_EQ(r.min_width, -1);
  EXPECT_TRUE(r.attempts.empty());  // no nonsensical widths probed

  WidthSearchOptions zero_max;
  zero_max.min_width = 1;
  zero_max.max_width = 0;
  r = find_min_channel_width(base, crossing_circuit(2), router, zero_max);
  EXPECT_EQ(r.min_width, -1);
  EXPECT_TRUE(r.attempts.empty());

  // min_width < 1 clamps to 1: same trace as an explicit min_width = 1.
  WidthSearchOptions negative;
  negative.min_width = -7;
  negative.max_width = 8;
  WidthSearchOptions one;
  one.min_width = 1;
  one.max_width = 8;
  const auto clamped = find_min_channel_width(base, crossing_circuit(2), router, negative);
  const auto reference = find_min_channel_width(base, crossing_circuit(2), router, one);
  EXPECT_EQ(clamped.min_width, reference.min_width);
  EXPECT_EQ(clamped.attempts, reference.attempts);
}

TEST(WidthSearchTest, ParallelMatchesSerialExactly) {
  // The speculative parallel search must reproduce the serial search
  // bit-identically: same min_width, same attempts trace (order included),
  // same per-net routing in the result at the minimum width.
  const ArchSpec base = ArchSpec::xc4000(4, 4, 1);
  struct Case {
    Circuit circuit;
    int max_width;
  };
  const std::vector<Case> cases{
      {crossing_circuit(6), 8},
      {crossing_circuit(4), 16},
      {crossing_circuit(3), 11},
  };
  RouterOptions router;
  router.max_passes = 5;
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    WidthSearchOptions serial_opts;
    serial_opts.max_width = cases[ci].max_width;
    serial_opts.threads = 1;
    const auto serial = find_min_channel_width(base, cases[ci].circuit, router, serial_opts);
    for (const int threads : {2, 4, 8}) {
      WidthSearchOptions parallel_opts = serial_opts;
      parallel_opts.threads = threads;
      const auto parallel =
          find_min_channel_width(base, cases[ci].circuit, router, parallel_opts);
      SCOPED_TRACE("case " + std::to_string(ci) + " threads " + std::to_string(threads));
      EXPECT_EQ(parallel.min_width, serial.min_width);
      EXPECT_EQ(parallel.attempts, serial.attempts);
      EXPECT_EQ(parallel.at_min_width.success, serial.at_min_width.success);
      EXPECT_EQ(parallel.at_min_width.passes, serial.at_min_width.passes);
      EXPECT_EQ(parallel.at_min_width.total_wirelength, serial.at_min_width.total_wirelength);
      ASSERT_EQ(parallel.at_min_width.nets.size(), serial.at_min_width.nets.size());
      for (std::size_t n = 0; n < serial.at_min_width.nets.size(); ++n) {
        EXPECT_EQ(parallel.at_min_width.nets[n].routed(), serial.at_min_width.nets[n].routed());
        EXPECT_EQ(parallel.at_min_width.nets[n].edges, serial.at_min_width.nets[n].edges);
      }
    }
  }
}

TEST(WidthSearchTest, MonotoneOnSyntheticCircuit) {
  // The minimum width found must route, and every wider device must too.
  const auto& profile = xc4000_profiles()[2];  // term1
  const Circuit c = synthesize_circuit(profile, 21);
  RouterOptions router;
  router.max_passes = 5;
  WidthSearchOptions search;
  search.max_width = 16;
  const auto result =
      find_min_channel_width(arch_for(profile, ArchFamily::kXc4000), c, router, search);
  ASSERT_GT(result.min_width, 0);
  Device wider(arch_for(profile, ArchFamily::kXc4000).with_width(result.min_width + 2));
  EXPECT_TRUE(route_circuit(wider, c, router).success);
}

TEST(WidthSearchMatrixTest, SeededRangesOnCrossingCircuits) {
  // Random [min, max] ranges, empty and single-width ones included, over
  // circuits from trivially routable to unroutable at narrow widths.
  SplitMixRng rng(29);
  std::vector<SearchCase> cases;
  for (int i = 0; i < 16; ++i) {
    const int lanes = rng.range(2, 16);
    WidthSearchOptions search;
    search.max_width = rng.range(0, 16);
    search.min_width = rng.range(-1, 5);
    const ArchSpec base =
        rng.below(2) == 0 ? ArchSpec::xc3000(4, 4, 1) : ArchSpec::xc4000(4, 4, 1);
    cases.push_back({"crossing(" + std::to_string(lanes) + ")", base, crossing_circuit(lanes),
                     paper_router(5), search});
  }
  const auto refs = expect_every_thread_count_matches_reference(cases);
  // The seed covers empty ranges, searches with and without a failing probe.
  const auto count = [&](auto pred) { return std::count_if(refs.begin(), refs.end(), pred); };
  EXPECT_GE(count([](const auto& r) { return r.status == WidthSearchStatus::kEmptyRange; }), 2);
  EXPECT_GE(count([](const auto& r) { return any_failed(r); }), 2);
  EXPECT_GE(count([](const auto& r) {
              return r.status == WidthSearchStatus::kFound && !any_failed(r);
            }),
            2);
}

TEST(WidthSearchMatrixTest, Term1Ranges) {
  const CircuitProfile& term1 = xc4000_profiles()[2];
  const Circuit circuit = synthesize_circuit(term1, 21);
  std::vector<SearchCase> cases;
  for (const auto& [lo, hi] : {std::pair{2, 9}, std::pair{4, 6}}) {
    WidthSearchOptions search;
    search.min_width = lo;
    search.max_width = hi;
    cases.push_back({"term1", arch_for(term1, ArchFamily::kXc4000), circuit, paper_router(5),
                     search});
  }
  const auto refs = expect_every_thread_count_matches_reference(cases);
  for (const WidthSearchResult& r : refs) {
    EXPECT_EQ(r.min_width, 5);
    EXPECT_TRUE(any_failed(r));
  }
}

TEST(WidthSearchMatrixTest, FaultedBudgetedAndNegotiatedSearches) {
  // 32 nets crossing an 8x8 array: narrow widths fail, and budgets bite.
  Circuit crossings;
  crossings.rows = crossings.cols = 8;
  for (int i = 0; i < 8; ++i) {
    crossings.nets.push_back({{0, i}, {{7, 7 - i}}});
    crossings.nets.push_back({{i, 0}, {{7 - i, 7}}});
    crossings.nets.push_back({{0, i}, {{7, i}}});
    crossings.nets.push_back({{i, 0}, {{i, 7}}});
  }
  std::vector<SearchCase> cases;
  for (const std::uint64_t seed : {21u, 22u}) {
    WidthSearchOptions search;
    search.min_width = 1;
    search.max_width = 8;
    search.faults = FaultSpec{};
    search.faults->seed = seed;
    search.faults->wire_permille = 60;
    search.faults->switch_permille = 40;
    search.faults->pin_permille = 20;
    const ArchSpec base = seed % 2 == 0 ? ArchSpec::xc3000(8, 8, 1) : ArchSpec::xc4000(8, 8, 1);
    cases.push_back({"faulted", base, crossings, paper_router(6), search});
  }
  // Budgets that abort the widest probe (status kBudgetExhausted), abort a
  // narrower one (undecided_probes > 0), or never bite.
  for (const long long budget : {6'000LL, 9'000LL, 200'000LL}) {
    WidthSearchOptions search;
    search.min_width = 1;
    search.max_width = 6;
    search.node_budget_per_probe = budget;
    cases.push_back({"budget " + std::to_string(budget), ArchSpec::xc4000(8, 8, 1), crossings,
                     paper_router(20), search});
  }
  RouterOptions negotiated = paper_router(5);
  negotiated.mode = RouterMode::kNegotiated;
  for (const int lanes : {5, 8}) {
    WidthSearchOptions search;
    search.min_width = 1;
    search.max_width = 9;
    cases.push_back({"negotiated", ArchSpec::xc4000(4, 4, 1), crossing_circuit(lanes),
                     negotiated, search});
  }
  const auto refs = expect_every_thread_count_matches_reference(cases);
  ASSERT_EQ(refs.size(), 7u);
  for (const std::size_t faulted : {0u, 1u}) EXPECT_TRUE(any_failed(refs[faulted]));
  EXPECT_EQ(refs[2].status, WidthSearchStatus::kBudgetExhausted);
  EXPECT_EQ(refs[3].status, WidthSearchStatus::kFound);
  EXPECT_GT(refs[3].undecided_probes, 0);
  EXPECT_EQ(refs[4].undecided_probes, 0);
  EXPECT_TRUE(any_failed(refs[6]));  // negotiated
}

}  // namespace
}  // namespace fpr
