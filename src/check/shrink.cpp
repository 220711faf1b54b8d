#include "check/shrink.hpp"

#include <algorithm>


namespace fpr::check {

namespace {

/// Re-fits the terminal list to the case's (possibly shrunken) node space:
/// random-graph ids are folded modulo the node count, grid ids are re-mapped
/// through their OLD coordinates clamped into the new grid. Returns false
/// when fewer than two distinct terminals survive.
bool refit_terminals(TreeCase& c, int old_width) {
  const int node_count = c.node_count();
  if (node_count < 2) return false;
  std::vector<NodeId> fitted;
  for (NodeId t : c.terminals) {
    if (c.substrate == TreeCase::Substrate::kGrid) {
      const int x = std::min(static_cast<int>(t) % old_width, c.grid_width - 1);
      const int y = std::min(static_cast<int>(t) / old_width, c.grid_height - 1);
      t = static_cast<NodeId>(y * c.grid_width + x);
    } else {
      t = static_cast<NodeId>(t % node_count);
    }
    if (std::find(fitted.begin(), fitted.end(), t) == fitted.end()) fitted.push_back(t);
  }
  if (fitted.size() < 2) return false;
  c.terminals = std::move(fitted);
  return true;
}

/// All one-step shrink candidates of `c`, most aggressive first.
std::vector<TreeCase> tree_candidates(const TreeCase& c) {
  std::vector<TreeCase> out;
  const auto push = [&](TreeCase candidate, int old_width) {
    if (refit_terminals(candidate, old_width)) out.push_back(std::move(candidate));
  };

  // Canonicalize terminals to the lowest node ids first: dimension shrinks
  // re-fit terminals through their old coordinates, and high-id terminals
  // collide under that re-fit, blocking further substrate reduction.
  {
    std::vector<NodeId> low(c.terminals.size());
    for (std::size_t i = 0; i < low.size(); ++i) low[i] = static_cast<NodeId>(i);
    if (low != c.terminals && static_cast<int>(low.size()) <= c.node_count()) {
      TreeCase canonical = c;
      canonical.terminals = std::move(low);
      push(std::move(canonical), c.grid_width);
    }
  }

  if (c.terminals.size() > 2) {
    TreeCase two = c;
    two.terminals.resize(2);
    push(std::move(two), c.grid_width);
    TreeCase half = c;
    half.terminals.resize(std::max<std::size_t>(2, c.terminals.size() / 2));
    push(std::move(half), c.grid_width);
    for (std::size_t i = c.terminals.size(); i-- > 0;) {
      TreeCase drop = c;
      drop.terminals.erase(drop.terminals.begin() + static_cast<std::ptrdiff_t>(i));
      push(std::move(drop), c.grid_width);
    }
  }

  if (c.substrate == TreeCase::Substrate::kRandomGraph) {
    if (c.nodes > 2) {
      TreeCase halved = c;
      halved.nodes = std::max(2, c.nodes / 2);
      push(std::move(halved), c.grid_width);
      TreeCase dec = c;
      dec.nodes = c.nodes - 1;
      push(std::move(dec), c.grid_width);
    }
    if (c.extra_edges > 0) {
      TreeCase none = c;
      none.extra_edges = 0;
      push(std::move(none), c.grid_width);
      TreeCase halved = c;
      halved.extra_edges = c.extra_edges / 2;
      push(std::move(halved), c.grid_width);
    }
  } else {
    if (c.grid_width > 2) {
      TreeCase narrower = c;
      narrower.grid_width = c.grid_width - 1;
      push(std::move(narrower), c.grid_width);
    }
    if (c.grid_height > 2) {
      TreeCase shorter = c;
      shorter.grid_height = c.grid_height - 1;
      push(std::move(shorter), c.grid_width);
    }
  }
  if (c.max_weight > 1) {
    TreeCase flatter = c;
    flatter.max_weight = std::max(1, c.max_weight / 2);
    push(std::move(flatter), c.grid_width);
  }
  return out;
}

std::vector<CircuitCase> circuit_candidates(const CircuitCase& c) {
  std::vector<CircuitCase> out;
  const auto push = [&](CircuitCase candidate) {
    if (candidate.rows >= 2 && candidate.cols >= 2 && candidate.width >= 2 &&
        candidate.nets_2_3 + candidate.nets_4_10 + candidate.nets_over_10 >= 1) {
      out.push_back(std::move(candidate));
    }
  };
  if (c.nets_over_10 > 0) {
    CircuitCase m = c;
    m.nets_over_10 = 0;
    push(std::move(m));
  }
  if (c.nets_4_10 > 0) {
    CircuitCase m = c;
    m.nets_4_10 = 0;
    push(std::move(m));
    m = c;
    m.nets_4_10 = c.nets_4_10 - 1;
    push(std::move(m));
  }
  if (c.nets_2_3 > 0) {
    CircuitCase m = c;
    m.nets_2_3 = std::max(0, c.nets_2_3 / 2);
    push(std::move(m));
    m = c;
    m.nets_2_3 = c.nets_2_3 - 1;
    push(std::move(m));
  }
  if (c.rows > 2) {
    CircuitCase m = c;
    m.rows = c.rows - 1;
    push(std::move(m));
  }
  if (c.cols > 2) {
    CircuitCase m = c;
    m.cols = c.cols - 1;
    push(std::move(m));
  }
  if (c.width > 2) {
    CircuitCase m = c;
    m.width = c.width - 1;
    push(std::move(m));
  }
  // Fault-dimension moves: drop whole defect categories first (most
  // aggressive), then halve rates; lift the budget last. A case that still
  // fails with a category zeroed pins the bug to the remaining knobs.
  const auto with_faults = [&](auto mutate) {
    CircuitCase m = c;
    mutate(m);
    push(std::move(m));
  };
  if (c.faults.wire_permille > 0) {
    with_faults([](CircuitCase& m) { m.faults.wire_permille = 0; });
    with_faults([](CircuitCase& m) { m.faults.wire_permille /= 2; });
  }
  if (c.faults.switch_permille > 0) {
    with_faults([](CircuitCase& m) { m.faults.switch_permille = 0; });
    with_faults([](CircuitCase& m) { m.faults.switch_permille /= 2; });
  }
  if (c.faults.pin_permille > 0) {
    with_faults([](CircuitCase& m) { m.faults.pin_permille = 0; });
    with_faults([](CircuitCase& m) { m.faults.pin_permille /= 2; });
  }
  if (c.faults.clusters > 0) {
    with_faults([](CircuitCase& m) { m.faults.clusters = 0; });
  }
  if (c.node_budget > 0) {
    with_faults([](CircuitCase& m) { m.node_budget = 0; });  // 0 = unlimited
  }
  if (c.negotiated) {
    // Mode move: a failure that persists in paper mode exonerates the
    // negotiation loop and pins the bug below the mode dispatch.
    with_faults([](CircuitCase& m) { m.negotiated = false; });
  }
  // Repair-dimension moves: drop trailing events (the derivation consumes
  // its rng stream per event, so a shorter list is a strict prefix of the
  // same events), then lift the per-event budget.
  if (c.repair_events > 1) {
    with_faults([](CircuitCase& m) { m.repair_events = 1; });
    with_faults([](CircuitCase& m) { m.repair_events /= 2; });
    with_faults([](CircuitCase& m) { m.repair_events -= 1; });
  }
  if (c.repair_budget > 0) {
    with_faults([](CircuitCase& m) { m.repair_budget = 0; });  // 0 = unlimited
  }
  return out;
}

/// The shared greedy loop: accept the first candidate that still fails,
/// restart from it; stop at a fixpoint or when the re-run budget runs out.
template <typename Case, typename Candidates, typename Fails>
Case greedy_shrink(Case current, const Candidates& candidates_of, const Fails& still_fails,
                   int max_reruns) {
  int reruns = 0;
  bool improved = true;
  while (improved && reruns < max_reruns) {
    improved = false;
    for (const Case& candidate : candidates_of(current)) {
      if (reruns >= max_reruns) break;
      ++reruns;
      if (still_fails(candidate)) {
        current = candidate;
        improved = true;
        break;
      }
    }
  }
  return current;
}

}  // namespace

TreeCase shrink_tree_case(TreeCase failing, const std::function<bool(const TreeCase&)>& still_fails,
                          int max_reruns) {
  return greedy_shrink(std::move(failing), tree_candidates, still_fails, max_reruns);
}

CircuitCase shrink_circuit_case(CircuitCase failing,
                                const std::function<bool(const CircuitCase&)>& still_fails,
                                int max_reruns) {
  return greedy_shrink(std::move(failing), circuit_candidates, still_fails, max_reruns);
}

}  // namespace fpr::check
