#include "graph/routing_tree.hpp"

#include <algorithm>

namespace fpr {

RoutingTree::RoutingTree(const Graph& g, std::vector<EdgeId> edges) : g_(&g), edges_(std::move(edges)) {
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  rebuild_adjacency();
}

void RoutingTree::rebuild_adjacency() {
  std::vector<NodeId> ends;
  ends.reserve(2 * edges_.size());
  for (const EdgeId e : edges_) {
    const auto ed = g_->edge(e);
    ends.push_back(ed.u);
    ends.push_back(ed.v);
  }
  nodes_ = ends;
  std::sort(nodes_.begin(), nodes_.end());
  nodes_.erase(std::unique(nodes_.begin(), nodes_.end()), nodes_.end());

  // Endpoints become node indices. Count each node's slots into the entry
  // after its own, fill them edge by edge (so every node's slots follow
  // ascending edge id) with the entry before as the cursor, and the cursors
  // end where the next node's slots begin.
  offsets_.assign(nodes_.size() + 2, 0);
  for (NodeId& v : ends) {
    v = index_of(v);
    ++offsets_[static_cast<std::size_t>(v) + 2];
  }
  for (std::size_t i = 2; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
  slots_.resize(ends.size());
  for (std::size_t k = 0; k < edges_.size(); ++k) {
    const std::int32_t a = ends[2 * k];
    const std::int32_t b = ends[2 * k + 1];
    const auto edge = static_cast<std::int32_t>(k);
    slots_[static_cast<std::size_t>(offsets_[static_cast<std::size_t>(a) + 1]++)] = Slot{edge, b};
    slots_[static_cast<std::size_t>(offsets_[static_cast<std::size_t>(b) + 1]++)] = Slot{edge, a};
  }
  offsets_.pop_back();
}

std::int32_t RoutingTree::index_of(NodeId v) const {
  const auto it = std::lower_bound(nodes_.begin(), nodes_.end(), v);
  if (it == nodes_.end() || *it != v) return -1;
  return static_cast<std::int32_t>(it - nodes_.begin());
}

template <class T, class Step>
std::vector<T> RoutingTree::walk(std::int32_t root, T at_root, T unreached, Step step) const {
  std::vector<T> value(nodes_.size(), unreached);
  std::vector<char> seen(nodes_.size(), 0);
  std::vector<std::int32_t> queue;
  queue.reserve(nodes_.size());
  queue.push_back(root);
  seen[static_cast<std::size_t>(root)] = 1;
  value[static_cast<std::size_t>(root)] = at_root;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const auto u = static_cast<std::size_t>(queue[head]);
    for (std::int32_t s = offsets_[u]; s < offsets_[u + 1]; ++s) {
      const Slot slot = slots_[static_cast<std::size_t>(s)];
      const auto v = static_cast<std::size_t>(slot.nbr);
      if (seen[v] != 0) continue;
      seen[v] = 1;
      value[v] = step(value[u], edges_[static_cast<std::size_t>(slot.edge)]);
      queue.push_back(slot.nbr);
    }
  }
  return value;
}

Weight RoutingTree::cost() const {
  Weight sum = 0;
  for (const EdgeId e : edges_) sum += g_->edge_weight(e);
  return sum;
}

std::vector<NodeId> RoutingTree::nodes() const { return nodes_; }

bool RoutingTree::is_tree() const {
  if (edges_.empty()) return true;
  // A connected graph with n nodes and n-1 edges is a tree.
  if (nodes_.size() != edges_.size() + 1) return false;
  const auto seen = walk<char>(0, 1, 0, [](char, EdgeId) { return char{1}; });
  return std::find(seen.begin(), seen.end(), 0) == seen.end();
}

bool RoutingTree::spans(std::span<const NodeId> terminals) const {
  if (terminals.empty()) return true;
  // A lone terminal needs no wiring, but a NON-empty tree must still touch
  // it: otherwise the terminal sits at degree 0 beside wiring that connects
  // nothing of the net, and the edge-level checks alone would accept it.
  if (terminals.size() == 1) return edges_.empty() || contains_node(terminals[0]);
  for (const NodeId t : terminals) {
    if (!contains_node(t)) return false;
  }
  // Connectivity among terminals: a walk from the first one.
  const auto seen = walk<char>(index_of(terminals[0]), 1, 0, [](char, EdgeId) { return char{1}; });
  return std::all_of(terminals.begin(), terminals.end(),
                     [&](NodeId t) { return seen[static_cast<std::size_t>(index_of(t))] != 0; });
}

Weight RoutingTree::path_length(NodeId from, NodeId to) const {
  if (from == to) return 0;
  const std::int32_t a = index_of(from);
  const std::int32_t b = index_of(to);
  if (a < 0 || b < 0) return kInfiniteWeight;
  // Tree paths are unique, so first arrival wins.
  const auto dist = walk<Weight>(a, 0, kInfiniteWeight,
                                 [&](Weight d, EdgeId e) { return d + g_->edge_weight(e); });
  return dist[static_cast<std::size_t>(b)];
}

Weight RoutingTree::max_path_length(NodeId source, std::span<const NodeId> sinks) const {
  if (sinks.empty()) return 0;
  const std::int32_t root = index_of(source);
  if (root < 0) return kInfiniteWeight;
  // One walk from the source covers every sink.
  const auto dist = walk<Weight>(root, 0, kInfiniteWeight,
                                 [&](Weight d, EdgeId e) { return d + g_->edge_weight(e); });
  Weight worst = 0;
  for (const NodeId s : sinks) {
    const std::int32_t i = index_of(s);
    if (i < 0) return kInfiniteWeight;
    worst = std::max(worst, dist[static_cast<std::size_t>(i)]);
  }
  return worst;
}

int RoutingTree::max_path_edge_count(NodeId source, std::span<const NodeId> sinks) const {
  if (sinks.empty()) return 0;
  const std::int32_t root = index_of(source);
  if (root < 0) return -1;
  const auto hops = walk<int>(root, 0, -1, [](int h, EdgeId) { return h + 1; });
  int worst = 0;
  for (const NodeId s : sinks) {
    const std::int32_t i = index_of(s);
    if (i < 0 || hops[static_cast<std::size_t>(i)] < 0) return -1;
    worst = std::max(worst, hops[static_cast<std::size_t>(i)]);
  }
  return worst;
}

void RoutingTree::prune_leaves(std::span<const NodeId> keep) {
  // Leaf pruning has a unique fixpoint, so one work-list pass over the
  // degree counts removes the same edges as sweeping until nothing changes.
  const std::size_t n = nodes_.size();
  std::vector<char> kept(n, 0);
  for (const NodeId v : keep) {
    const std::int32_t i = index_of(v);
    if (i >= 0) kept[static_cast<std::size_t>(i)] = 1;
  }
  std::vector<std::int32_t> degree(n);
  std::vector<std::int32_t> leaves;
  for (std::size_t i = 0; i < n; ++i) {
    degree[i] = offsets_[i + 1] - offsets_[i];
    if (kept[i] == 0 && degree[i] == 1) leaves.push_back(static_cast<std::int32_t>(i));
  }
  std::vector<char> removed(edges_.size(), 0);
  bool any = false;
  while (!leaves.empty()) {
    const auto u = static_cast<std::size_t>(leaves.back());
    leaves.pop_back();
    if (degree[u] != 1) continue;  // its last edge went with its neighbour
    std::int32_t s = offsets_[u];
    while (removed[static_cast<std::size_t>(slots_[static_cast<std::size_t>(s)].edge)] != 0) ++s;
    const Slot slot = slots_[static_cast<std::size_t>(s)];
    removed[static_cast<std::size_t>(slot.edge)] = 1;
    any = true;
    degree[u] = 0;
    const auto v = static_cast<std::size_t>(slot.nbr);
    if (--degree[v] == 1 && kept[v] == 0) leaves.push_back(slot.nbr);
  }
  if (!any) return;
  std::size_t out = 0;
  for (std::size_t k = 0; k < edges_.size(); ++k) {
    if (removed[k] == 0) edges_[out++] = edges_[k];
  }
  edges_.resize(out);
  rebuild_adjacency();
}

std::vector<NodeId> distinct_terminals(std::span<const NodeId> net) {
  std::vector<NodeId> t(net.begin(), net.end());
  std::sort(t.begin(), t.end());
  t.erase(std::unique(t.begin(), t.end()), t.end());
  return t;
}

}  // namespace fpr
