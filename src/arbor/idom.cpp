#include "arbor/idom.hpp"

#include <vector>

#include "arbor/arbor_common.hpp"
#include "arbor/dom.hpp"

namespace fpr {

RoutingTree idom(const Graph& g, std::span<const NodeId> net, PathOracle& oracle,
                 const IgmstOptions& options) {
  if (net.empty()) return RoutingTree(g, {});
  const auto by_dom = [](const Graph& gg, std::span<const NodeId> nn, PathOracle& oo) {
    return dom(gg, nn, oo);
  };
  return igmst_ordered(g, canonical_terminals(net[0], net), by_dom, oracle, options);
}

RoutingTree idom(const Graph& g, std::span<const NodeId> net) {
  PathOracle oracle(g);
  return idom(g, net, oracle);
}

}  // namespace fpr
