#include "steiner/kmb.hpp"

#include <algorithm>

namespace fpr {

namespace testhooks {
std::atomic<bool> kmb_invert_mst_selection{false};
}  // namespace testhooks

namespace {

std::int32_t find_root(std::vector<std::int32_t>& parent, std::int32_t x) {
  while (parent[static_cast<std::size_t>(x)] != x) {
    auto& p = parent[static_cast<std::size_t>(x)];
    p = parent[static_cast<std::size_t>(p)];
    x = p;
  }
  return x;
}

bool unite(std::vector<std::int32_t>& parent, std::int32_t a, std::int32_t b) {
  a = find_root(parent, a);
  b = find_root(parent, b);
  if (a == b) return false;
  parent[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
  return true;
}

void reset(std::vector<std::int32_t>& parent, std::size_t n) {
  parent.resize(n);
  for (std::size_t i = 0; i < n; ++i) parent[i] = static_cast<std::int32_t>(i);
}

/// The verdict and cost of an empty tree, which spans at most one terminal.
std::optional<Weight> empty_tree(std::span<const NodeId> net) {
  return net.size() <= 1 ? std::optional<Weight>(0) : std::nullopt;
}

}  // namespace

void KmbRound::DenseIds::reserve(std::size_t keys) {
  std::size_t capacity = 16;
  int bits = 4;
  while (capacity < 2 * keys) {
    capacity <<= 1;
    ++bits;
  }
  if (capacity > slots_.size()) {
    slots_.assign(capacity, Slot{});
    shift_ = 32 - bits;
    epoch_ = 0;
  }
}

void KmbRound::DenseIds::reset(std::size_t keys) {
  reserve(keys);
  if (++epoch_ == 0) {  // the stamps wrapped: clear them once
    std::fill(slots_.begin(), slots_.end(), Slot{});
    epoch_ = 1;
  }
  size_ = 0;
}

std::size_t KmbRound::DenseIds::slot_of(std::int32_t key) const {
  std::size_t s = (static_cast<std::uint32_t>(key) * 0x9E3779B1u) >> shift_;
  while (slots_[s].epoch == epoch_ && slots_[s].key != key) s = (s + 1) & (slots_.size() - 1);
  return s;
}

bool KmbRound::DenseIds::insert(std::int32_t key) {
  Slot& slot = slots_[slot_of(key)];
  if (slot.epoch == epoch_) return false;
  slot = Slot{epoch_, key, size_++};
  return true;
}

std::int32_t KmbRound::DenseIds::index(std::int32_t key) {
  Slot& slot = slots_[slot_of(key)];
  if (slot.epoch != epoch_) slot = Slot{epoch_, key, size_++};
  return slot.index;
}

std::int32_t KmbRound::DenseIds::find(std::int32_t key) const {
  const Slot& slot = slots_[slot_of(key)];
  return slot.epoch == epoch_ ? slot.index : -1;
}

KmbRound::KmbRound(const Graph& g, std::span<const NodeId> span_set, PathOracle& oracle)
    : KmbRound(g, oracle) {
  start(span_set);
}

KmbRound::KmbRound(const Graph& g, PathOracle& oracle) : g_(&g), oracle_(&oracle) {}

void KmbRound::start(std::span<const NodeId> span_set) {
  span_ = distinct_terminals(span_set);
  const std::size_t k = span_.size();
  trees_.clear();
  for (const NodeId v : span_) trees_.push_back(oracle_->cached(v));
  pairs_.assign(k * k, PairSlot{});
  path_pool_.clear();
}

bool KmbRound::score_settled(NodeId t, std::span<const NodeId> net, std::vector<EdgeId>& edges,
                             std::optional<Weight>& cost, std::size_t& hits) {
  settled_ = true;
  unsettled_ = false;
  served_ = 0;
  cost = score(t, net, edges);
  settled_ = false;
  if (unsettled_) return false;
  hits += served_;
  return true;
}

Weight KmbRound::distance(std::int32_t a, std::int32_t b) {
  const NodeId u = trial_node(a);
  const NodeId v = trial_node(b);
  const std::int32_t sa = span_index(a);
  const std::int32_t sb = span_index(b);
  const ShortestPathTree* tu = sa < 0 ? nullptr : trees_[static_cast<std::size_t>(sa)];
  const ShortestPathTree* tv = sb < 0 ? nullptr : trees_[static_cast<std::size_t>(sb)];
  if (tu == nullptr || tv == nullptr) {
    if (!settled_) return oracle_->distance(u, v);
    // The candidate has no tree: the span node's tree answers, as in
    // PathOracle::distance.
    const ShortestPathTree& tree = tu != nullptr ? *tu : *tv;
    const NodeId probe = tu != nullptr ? v : u;
    if (!tree.knows_now(probe)) {
      unsettled_ = true;
      return 0;
    }
    ++served_;
    return tree.distance(probe);
  }
  // PathOracle::distance's reads, without its cache lookups, made once.
  Weight& known =
      pairs_[static_cast<std::size_t>(sa) * span_.size() + static_cast<std::size_t>(sb)].distance;
  if (known < 0) {
    if (settled_) {
      if (!tu->knows_now(v)) {
        unsettled_ = true;
        return 0;
      }
      known = tu->distance(v);
    } else {
      known = tu->knows(v)   ? tu->distance(v)
              : tv->knows(u) ? tv->distance(u)
                             : oracle_->from_knowing(u, v).distance(v);
    }
  }
  return known;
}

void KmbRound::append_path(std::int32_t a, std::int32_t b) {
  const NodeId u = trial_node(a);
  const NodeId v = trial_node(b);
  const std::int32_t sa = span_index(a);
  const std::int32_t sb = span_index(b);
  const ShortestPathTree* tu = sa < 0 ? nullptr : trees_[static_cast<std::size_t>(sa)];
  const ShortestPathTree* tv = sb < 0 ? nullptr : trees_[static_cast<std::size_t>(sb)];
  if (tu == nullptr || tv == nullptr) {
    if (!settled_) {
      const auto path = oracle_->path_between(u, v);
      expanded_.insert(expanded_.end(), path.begin(), path.end());
      return;
    }
    // As in PathOracle::path_between: from the span node's tree.
    const ShortestPathTree& tree = tu != nullptr ? *tu : *tv;
    const NodeId probe = tu != nullptr ? v : u;
    if (!tree.knows_now(probe)) {
      unsettled_ = true;
      return;
    }
    ++served_;
    tree.append_path_edges_to(probe, expanded_);
    return;
  }
  // PathOracle::path_between's reads, without its cache lookups, made once.
  PairSlot& slot =
      pairs_[static_cast<std::size_t>(sa) * span_.size() + static_cast<std::size_t>(sb)];
  if (slot.begin < 0) {
    const ShortestPathTree* tree = tu;
    NodeId probe = v;
    if (settled_) {
      if (!tu->knows_now(v)) {
        unsettled_ = true;
        return;
      }
    } else if (!tu->knows(v)) {
      if (tv->knows(u)) {
        tree = tv;
        probe = u;
      } else {
        tree = &oracle_->from_knowing(u, v);
      }
    }
    slot.begin = static_cast<std::int32_t>(path_pool_.size());
    tree->append_path_edges_to(probe, path_pool_);
    slot.end = static_cast<std::int32_t>(path_pool_.size());
  }
  expanded_.insert(expanded_.end(), path_pool_.begin() + slot.begin,
                   path_pool_.begin() + slot.end);
}

std::optional<Weight> KmbRound::score(NodeId t, std::span<const NodeId> net,
                                      std::vector<EdgeId>& edges) {
  edges.clear();
  const auto k = static_cast<std::int32_t>(span_.size());
  const auto at = std::lower_bound(span_.begin(), span_.end(), t);
  const bool fresh = t != kInvalidNode && (at == span_.end() || *at != t);
  cand_ = fresh ? static_cast<std::int32_t>(at - span_.begin()) : k;
  cand_node_ = t;
  trial_size_ = fresh ? k + 1 : k;
  const std::int32_t n = trial_size_;
  if (n < 2) return empty_tree(net);
  const auto un = static_cast<std::size_t>(n);

  // Step 1: the distance graph, read pair by pair in DistanceGraph's order.
  matrix_.resize(un * un);
  for (std::int32_t i = 0; i < n; ++i) {
    matrix_[static_cast<std::size_t>(i) * (un + 1)] = 0;
    for (std::int32_t j = i + 1; j < n; ++j) {
      const Weight w = distance(i, j);
      matrix_[static_cast<std::size_t>(i) * un + static_cast<std::size_t>(j)] = w;
      matrix_[static_cast<std::size_t>(j) * un + static_cast<std::size_t>(i)] = w;
    }
  }
  if (unsettled_) return std::nullopt;  // score_settled: the caller scores it

  // Step 2: Prim from trial node 0, the lowest index winning ties (as
  // DistanceGraph::prim_mst). The fault hook runs it on negated weights and
  // then demands every pair be finite.
  const bool inverted = testhooks::kmb_invert_mst_selection.load(std::memory_order_relaxed);
  const Weight sign = inverted ? -1 : 1;
  key_.assign(un, kInfiniteWeight);
  from_.assign(un, -1);
  in_tree_.assign(un, 0);
  key_[0] = 0;
  mst_.clear();
  for (std::int32_t step = 0; step < n; ++step) {
    std::int32_t pick = -1;
    for (std::int32_t i = 0; i < n; ++i) {
      if (in_tree_[static_cast<std::size_t>(i)] == 0 &&
          (pick < 0 || key_[static_cast<std::size_t>(i)] < key_[static_cast<std::size_t>(pick)])) {
        pick = i;
      }
    }
    const auto p = static_cast<std::size_t>(pick);
    if (key_[p] >= kInfiniteWeight) return empty_tree(net);  // not all connected
    in_tree_[p] = 1;
    if (from_[p] >= 0) mst_.emplace_back(from_[p], pick);
    for (std::size_t j = 0; j < un; ++j) {
      const Weight w = sign * matrix_[p * un + j];
      if (in_tree_[j] == 0 && w < key_[j]) {
        key_[j] = w;
        from_[j] = pick;
      }
    }
  }
  if (inverted && std::any_of(matrix_.begin(), matrix_.end(),
                              [](Weight w) { return w >= kInfiniteWeight; })) {
    return empty_tree(net);
  }

  // Step 3: expand each MST edge into its shortest path, in Prim's order.
  expanded_.clear();
  for (const auto& [a, b] : mst_) append_path(a, b);
  if (unsettled_) return std::nullopt;
  return finish(net, inverted, edges);
}

std::optional<Weight> KmbRound::finish(std::span<const NodeId> net, bool inverted,
                                       std::vector<EdgeId>& edges) {
  // The usable expanded edges, once each, in first-seen order, and their
  // endpoints as dense node indices.
  edge_ids_.reset(expanded_.size());
  node_ids_.reset(2 * expanded_.size() + static_cast<std::size_t>(trial_size_));
  unique_.clear();
  ends_.clear();
  for (const EdgeId e : expanded_) {
    if (!edge_ids_.insert(e) || !g_->edge_usable(e)) continue;
    unique_.push_back(e);
    const auto ed = g_->edge(e);
    ends_.push_back(node_ids_.index(ed.u));
    ends_.push_back(node_ids_.index(ed.v));
  }
  const std::size_t m = unique_.size();
  const auto n = static_cast<std::size_t>(node_ids_.size());

  // Step 4: Kruskal by (weight, id); by (-weight, id) under the fault hook.
  // Overlapping paths usually still form a forest, and then Kruskal keeps
  // every edge whatever the order, so the sort runs only on a cycle.
  edge_in_.assign(m, 1);
  reset(uf_, n);
  bool forest = true;
  for (std::size_t i = 0; i < m && forest; ++i) forest = unite(uf_, ends_[2 * i], ends_[2 * i + 1]);
  if (!forest) {
    const Weight sign = inverted ? -1 : 1;
    order_.clear();
    for (std::size_t i = 0; i < m; ++i) {
      order_.push_back(
          {sign * g_->edge_weight(unique_[i]), unique_[i], static_cast<std::int32_t>(i)});
    }
    std::sort(order_.begin(), order_.end(), [](const Ranked& a, const Ranked& b) {
      return a.key < b.key || (a.key == b.key && a.edge < b.edge);
    });
    reset(uf_, n);
    for (const Ranked& r : order_) {
      const auto i = static_cast<std::size_t>(r.index);
      edge_in_[i] = unite(uf_, ends_[2 * i], ends_[2 * i + 1]) ? 1 : 0;
    }
  }

  // Step 5: prune pendant nodes outside the trial set to the fixpoint. A
  // node's XOR of its kept incident edge indices names its last edge once
  // its degree is 1. The fault hook keeps the dangling branches.
  degree_.assign(n, 0);
  incident_xor_.assign(n, 0);
  for (std::size_t i = 0; i < m; ++i) {
    if (edge_in_[i] == 0) continue;
    for (const std::int32_t v : {ends_[2 * i], ends_[2 * i + 1]}) {
      ++degree_[static_cast<std::size_t>(v)];
      incident_xor_[static_cast<std::size_t>(v)] ^= static_cast<std::int32_t>(i);
    }
  }
  if (!inverted) {
    keep_.assign(n, 0);
    for (std::int32_t i = 0; i < trial_size_; ++i) {
      const std::int32_t v = node_ids_.find(trial_node(i));
      if (v >= 0) keep_[static_cast<std::size_t>(v)] = 1;
    }
    leaves_.clear();
    for (std::size_t v = 0; v < n; ++v) {
      if (keep_[v] == 0 && degree_[v] == 1) leaves_.push_back(static_cast<std::int32_t>(v));
    }
    while (!leaves_.empty()) {
      const auto u = static_cast<std::size_t>(leaves_.back());
      leaves_.pop_back();
      if (degree_[u] != 1) continue;  // its last edge went with its neighbour
      const auto e = static_cast<std::size_t>(incident_xor_[u]);
      edge_in_[e] = 0;
      const auto w = static_cast<std::size_t>(ends_[2 * e] == static_cast<std::int32_t>(u)
                                                  ? ends_[2 * e + 1]
                                                  : ends_[2 * e]);
      degree_[u] = 0;
      incident_xor_[u] ^= static_cast<std::int32_t>(e);
      incident_xor_[w] ^= static_cast<std::int32_t>(e);
      if (--degree_[w] == 1 && keep_[w] == 0) leaves_.push_back(static_cast<std::int32_t>(w));
    }
  }

  // The tree, ascending, and its cost summed in that order as
  // RoutingTree::cost does.
  for (std::size_t i = 0; i < m; ++i) {
    if (edge_in_[i] != 0) edges.push_back(unique_[i]);
  }
  std::sort(edges.begin(), edges.end());
  Weight cost = 0;
  for (const EdgeId e : edges) cost += g_->edge_weight(e);

  // Step 6: the spans verdict of RoutingTree::spans. Pruning never cuts a
  // path between two trial nodes, so the union-find's components still
  // hold among the terminals.
  if (net.empty()) return cost;
  if (net.size() == 1 && edges.empty()) return cost;
  std::int32_t root = -1;
  for (const NodeId v : net) {
    const std::int32_t i = node_ids_.find(v);
    if (i < 0 || degree_[static_cast<std::size_t>(i)] == 0) return std::nullopt;
    const std::int32_t r = find_root(uf_, i);
    if (root >= 0 && r != root) return std::nullopt;
    root = r;
  }
  return cost;
}

RoutingTree kmb(const Graph& g, std::span<const NodeId> net, PathOracle& oracle) {
  std::vector<EdgeId> edges;
  KmbRound(g, net, oracle).score(kInvalidNode, {}, edges);
  return RoutingTree(g, std::move(edges));
}

RoutingTree kmb(const Graph& g, std::span<const NodeId> net) {
  PathOracle oracle(g);
  return kmb(g, net, oracle);
}

}  // namespace fpr
