// Golden digests of the iterated constructions and the exact solvers.
//
// Each digest folds, over a fixed set of seeded instances, every edge id of
// the returned tree and the Dijkstra pops the run charged to its oracle.
// A refactor of the IGMST/IDOM loop or of the subset DP that changes any
// tree, any pre-warm order or any budget cut changes a digest. The values
// were recorded from the code before the IGMST/IDOM loops and the two
// subset DPs were merged; they change only with a deliberate output change.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "arbor/exact_gsa.hpp"
#include "arbor/idom.hpp"
#include "check/generate.hpp"
#include "graph/budget.hpp"
#include "steiner/exact_gmst.hpp"
#include "steiner/igmst.hpp"
#include "test_util.hpp"

namespace fpr {
namespace {

constexpr int kCases = 40;

std::uint64_t fold(std::uint64_t h, std::uint64_t v) { return mix64(h, v); }

std::uint64_t fold_tree(std::uint64_t h, const RoutingTree& tree) {
  h = fold(h, tree.edges().size());
  for (const EdgeId e : tree.edges()) h = fold(h, static_cast<std::uint64_t>(e));
  return h;
}

std::uint64_t fold_tree(std::uint64_t h, const std::optional<RoutingTree>& tree) {
  return tree ? fold_tree(fold(h, 1), *tree) : fold(h, 0);
}

/// Runs `build(graph, terminals, oracle)` on every seeded case with a fresh
/// oracle carrying `budget_limit` (0 = unlimited, still counted) and folds
/// the trees and the charged pops into one digest.
template <class Build>
std::uint64_t digest_cases(Build build, long long budget_limit = 0) {
  static constexpr std::array<Algorithm, 1> kAny{Algorithm::kKmb};
  std::uint64_t h = 0;
  for (int i = 0; i < kCases; ++i) {
    const check::TreeCase c = check::generate_tree_case(
        testing::seeded_rng("tree_golden", static_cast<std::uint64_t>(i)), 8, kAny);
    const Graph g = c.materialize();
    PathOracle oracle(g);
    WorkBudget budget{budget_limit, 0};
    oracle.set_budget(&budget);
    h = fold_tree(h, build(g, c.terminals, oracle));
    h = fold(h, static_cast<std::uint64_t>(budget.used));
  }
  return h;
}

/// One larger weighted grid net under a sweep of budgets (0 = unlimited),
/// so budget cuts land at different points of the candidate loop.
template <class Build>
std::uint64_t digest_budgeted(Build build) {
  check::TreeCase c;
  c.substrate = check::TreeCase::Substrate::kGrid;
  c.graph_seed = 4;
  c.grid_width = 12;
  c.grid_height = 12;
  c.max_weight = 6;
  c.terminals = {13, 22, 39, 61, 70, 88, 100, 115, 131};
  const Graph g = c.materialize();
  std::uint64_t h = 0;
  for (const long long limit : {0LL, 300LL, 600LL, 900LL, 1200LL}) {
    PathOracle oracle(g);
    WorkBudget budget{limit, 0};
    oracle.set_budget(&budget);
    h = fold_tree(h, build(g, c.terminals, oracle));
    h = fold(h, static_cast<std::uint64_t>(budget.used));
  }
  return h;
}

IgmstOptions batched() {
  IgmstOptions options;
  options.batched = true;
  return options;
}

using Terms = std::span<const NodeId>;

TEST(TreeGoldenTest, IkmbSequential) {
  EXPECT_EQ(digest_cases([](const Graph& g, Terms n, PathOracle& o) { return ikmb(g, n, o); }),
            1614300541807935389u);
}

TEST(TreeGoldenTest, IkmbBatched) {
  EXPECT_EQ(digest_cases([](const Graph& g, Terms n, PathOracle& o) {
              return ikmb(g, n, o, batched());
            }),
            4786291819473316906u);
}

TEST(TreeGoldenTest, IkmbCorridorCapped) {
  EXPECT_EQ(digest_cases([](const Graph& g, Terms n, PathOracle& o) {
              return ikmb(g, n, o, {.candidates = CandidateStrategy::kCorridor,
                                    .max_candidates = 4, .max_iterations = 2});
            }),
            13568325893843326952u);
}

TEST(TreeGoldenTest, IzelSequential) {
  EXPECT_EQ(digest_cases([](const Graph& g, Terms n, PathOracle& o) { return izel(g, n, o); }),
            17907206696610109001u);
}

TEST(TreeGoldenTest, IzelBatched) {
  EXPECT_EQ(digest_cases([](const Graph& g, Terms n, PathOracle& o) {
              return izel(g, n, o, batched());
            }),
            17907206696610109001u);
}

TEST(TreeGoldenTest, Idom) {
  EXPECT_EQ(digest_cases([](const Graph& g, Terms n, PathOracle& o) { return idom(g, n, o); }),
            7654727808786182831u);
}

TEST(TreeGoldenTest, IdomCorridorCapped) {
  EXPECT_EQ(digest_cases([](const Graph& g, Terms n, PathOracle& o) {
              return idom(g, n, o, {.candidates = CandidateStrategy::kCorridor,
                                    .max_candidates = 4, .max_iterations = 2});
            }),
            5550847583449316688u);
}

TEST(TreeGoldenTest, ExactGmst) {
  EXPECT_EQ(digest_cases([](const Graph& g, Terms n, PathOracle& o) {
              return exact_gmst(g, n, o);
            }),
            10205059290247997045u);
}

TEST(TreeGoldenTest, ExactGsa) {
  EXPECT_EQ(digest_cases([](const Graph& g, Terms n, PathOracle& o) {
              return exact_gsa(g, n, o);
            }),
            15328481719099518522u);
}

TEST(TreeGoldenTest, IkmbUnderFiniteBudgets) {
  EXPECT_EQ(digest_budgeted([](const Graph& g, Terms n, PathOracle& o) { return ikmb(g, n, o); }),
            2824204018980667539u);
}

TEST(TreeGoldenTest, IdomUnderFiniteBudgets) {
  EXPECT_EQ(digest_budgeted([](const Graph& g, Terms n, PathOracle& o) { return idom(g, n, o); }),
            4642959823861159457u);
}

}  // namespace
}  // namespace fpr
