#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "core/contract.hpp"
#include "graph/types.hpp"

namespace fpr {

/// The most leaves the subset DP accepts, and the exact solvers' default
/// ceiling: its tables hold 2^k rows of one entry per graph node, and a
/// run costs O(3^k V) merges.
inline constexpr int kSubsetDpMaxTerminals = 14;

/// The Dreyfus-Wagner / Erickson subset dynamic program behind both exact
/// solvers (exact_gmst, exact_gsa): dp[mask][v] = cheapest tree containing v
/// and every leaf in mask. Each mask first merges two complementary
/// sub-trees meeting at v, then grows along arcs by a Dijkstra relaxation.
/// O(3^k V + 2^k E log V) time, O(2^k V) space.
///
/// `leaves[i]` seeds bit i. `arcs(u, relax)` calls `relax(v, edge, weight)`
/// for every arc the tree at u may grow along to v, in a fixed order.
/// Returns the edges of the cheapest tree that holds `root` and every leaf,
/// or nullopt when no such tree exists.
template <class Arcs>
std::optional<std::vector<EdgeId>> subset_dp(NodeId node_count, std::span<const NodeId> leaves,
                                             NodeId root, Arcs arcs) {
  /// Backpointer for reconstructing the optimal tree.
  struct Choice {
    enum class Kind : std::uint8_t { kNone, kLeaf, kMerge, kEdge };
    Kind kind = Kind::kNone;
    std::uint32_t sub = 0;       // kMerge: one side of the split
    NodeId from = kInvalidNode;  // kEdge: the tree hangs below this node
    EdgeId edge = kInvalidEdge;  // kEdge
  };

  const auto k = static_cast<int>(leaves.size());
  FPR_CHECK(k <= kSubsetDpMaxTerminals,
            "subset DP over " << k << " leaves exceeds the limit of " << kSubsetDpMaxTerminals);
  const auto n = static_cast<std::size_t>(node_count);
  const std::uint32_t full = (1u << k) - 1;
  std::vector<std::vector<Weight>> dp(full + 1, std::vector<Weight>(n, kInfiniteWeight));
  std::vector<std::vector<Choice>> choice(full + 1, std::vector<Choice>(n));
  for (int i = 0; i < k; ++i) {
    const auto t = static_cast<std::size_t>(leaves[static_cast<std::size_t>(i)]);
    dp[1u << i][t] = 0;
    choice[1u << i][t].kind = Choice::Kind::kLeaf;
  }

  using Entry = std::pair<Weight, NodeId>;
  for (std::uint32_t mask = 1; mask <= full; ++mask) {
    auto& row = dp[mask];
    auto& ch = choice[mask];
    // Merge two complementary sub-trees meeting at v. Enumerating sub < rest
    // (canonical split) halves the work.
    for (std::uint32_t sub = (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask) {
      const std::uint32_t rest = mask ^ sub;
      if (sub > rest) continue;
      const auto& a = dp[sub];
      const auto& b = dp[rest];
      for (std::size_t v = 0; v < n; ++v) {
        const Weight c = a[v] + b[v];
        if (c < row[v]) {
          row[v] = c;
          ch[v] = Choice{Choice::Kind::kMerge, sub, kInvalidNode, kInvalidEdge};
        }
      }
    }
    // Dijkstra relaxation: grow the tree for this mask along the arcs.
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    for (std::size_t v = 0; v < n; ++v) {
      if (row[v] < kInfiniteWeight) heap.emplace(row[v], static_cast<NodeId>(v));
    }
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d > row[static_cast<std::size_t>(u)]) continue;
      arcs(u, [&, d = d, u = u](NodeId v, EdgeId e, Weight w) {
        const Weight nd = d + w;
        auto& dv = row[static_cast<std::size_t>(v)];
        if (nd < dv) {
          dv = nd;
          ch[static_cast<std::size_t>(v)] = Choice{Choice::Kind::kEdge, 0, u, e};
          heap.emplace(nd, v);
        }
      });
    }
  }

  if (dp[full][static_cast<std::size_t>(root)] >= kInfiniteWeight) return std::nullopt;

  // Reconstruct edges by walking the backpointers.
  std::vector<EdgeId> edges;
  std::vector<std::pair<std::uint32_t, NodeId>> stack{{full, root}};
  while (!stack.empty()) {
    const auto [mask, v] = stack.back();
    stack.pop_back();
    const Choice& c = choice[mask][static_cast<std::size_t>(v)];
    switch (c.kind) {
      case Choice::Kind::kLeaf:
        break;
      case Choice::Kind::kMerge:
        stack.emplace_back(c.sub, v);
        stack.emplace_back(mask ^ c.sub, v);
        break;
      case Choice::Kind::kEdge:
        edges.push_back(c.edge);
        stack.emplace_back(mask, c.from);
        break;
      case Choice::Kind::kNone:
        FPR_CHECK(false, "subset DP reconstruction reached an unset dp cell (mask "
                             << mask << ", node " << v << ")");
        break;
    }
  }
  return edges;
}

}  // namespace fpr
