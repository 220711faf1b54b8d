#include "graph/congestion_layer.hpp"

#include <algorithm>

#include "core/contract.hpp"

namespace fpr {

CongestionLayer::CongestionLayer(Graph& g, NodeId first_shared, int capacity)
    : g_(g), first_(first_shared), capacity_(capacity) {
  FPR_CHECK(first_shared >= 0 && first_shared <= g.node_count(),
            "CongestionLayer: first_shared " << first_shared << " outside [0, " << g.node_count()
                                             << "]");
  FPR_CHECK(capacity >= 1, "CongestionLayer: capacity " << capacity << " must be >= 1");
  const std::size_t edges = static_cast<std::size_t>(g.edge_count());
  base_.resize(edges);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    base_[static_cast<std::size_t>(e)] = g.edge_weight(e);
  }
  const std::size_t shared = static_cast<std::size_t>(g.node_count() - first_shared);
  occ_.assign(shared, 0);
  history_.assign(shared, 0.0);
  listed_.assign(shared, 0);
}

void CongestionLayer::reprice(NodeId v) {
  const std::span<const EdgeId> span = g_.incident_edges(v);
  scratch_.assign(span.begin(), span.end());
  for (const EdgeId e : scratch_) {
    const Graph::Edge ed = g_.edge(e);
    const Weight w = base_[static_cast<std::size_t>(e)] + node_cost(ed.u) / 2 + node_cost(ed.v) / 2;
    if (w != g_.edge_weight(e)) g_.set_edge_weight(e, w);
  }
}

void CongestionLayer::set_present_factor(double f) {
  FPR_CHECK(f >= 0, "CongestionLayer: present factor " << f << " must be non-negative");
  present_factor_ = f;
  // Only a node at or over capacity carries a present term.
  for (const NodeId v : occupied()) {
    if (would_overflow(v)) reprice(v);
  }
}

void CongestionLayer::begin_pass() {
  std::sort(touched_.begin(), touched_.end());
  for (const NodeId v : touched_) {
    const std::size_t i = index(v);
    listed_[i] = 0;
    if (occ_[i] == 0) continue;
    occ_[i] = 0;
    reprice(v);
  }
  touched_.clear();
  total_occ_ = 0;
  overflow_ = 0;
}

void CongestionLayer::add_occupant(NodeId v) {
  const std::size_t i = index(v);
  if (listed_[i] == 0) {
    listed_[i] = 1;
    touched_.push_back(v);
  }
  ++occ_[i];
  ++total_occ_;
  if (occ_[i] > capacity_) ++overflow_;
  reprice(v);
}

void CongestionLayer::remove_occupant(NodeId v) {
  const std::size_t i = index(v);
  FPR_CHECK(occ_[i] > 0, "CongestionLayer: remove_occupant on unoccupied node " << v);
  if (occ_[i] > capacity_) --overflow_;
  --occ_[i];
  --total_occ_;
  reprice(v);
}

void CongestionLayer::accrue_history(NodeId v, double inc) {
  FPR_CHECK(inc >= 0, "CongestionLayer: history increment " << inc << " must be non-negative");
  history_[index(v)] += inc;
  reprice(v);
}

std::vector<NodeId> CongestionLayer::occupied() const {
  std::vector<NodeId> out;
  for (const NodeId v : touched_) {
    if (occ_[index(v)] > 0) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace fpr
