#include "core/route.hpp"

#include <array>

#include "arbor/djka.hpp"
#include "arbor/dom.hpp"
#include "arbor/exact_gsa.hpp"
#include "arbor/idom.hpp"
#include "arbor/pfa.hpp"
#include "steiner/exact_gmst.hpp"
#include "steiner/igmst.hpp"
#include "steiner/kmb.hpp"
#include "steiner/zelikovsky.hpp"

namespace fpr {

std::string_view algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kKmb: return "KMB";
    case Algorithm::kZel: return "ZEL";
    case Algorithm::kIkmb: return "IKMB";
    case Algorithm::kIzel: return "IZEL";
    case Algorithm::kDjka: return "DJKA";
    case Algorithm::kDom: return "DOM";
    case Algorithm::kPfa: return "PFA";
    case Algorithm::kIdom: return "IDOM";
    case Algorithm::kExactGmst: return "OPT-GMST";
    case Algorithm::kExactGsa: return "OPT-GSA";
  }
  return "?";
}

bool is_arborescence_algorithm(Algorithm a) {
  switch (a) {
    case Algorithm::kDjka:
    case Algorithm::kDom:
    case Algorithm::kPfa:
    case Algorithm::kIdom:
    case Algorithm::kExactGsa:
      return true;
    default:
      return false;
  }
}

bool algorithm_supports_scoped_paths(Algorithm a) {
  switch (a) {
    case Algorithm::kKmb:
    case Algorithm::kIkmb:
    case Algorithm::kDjka:
    case Algorithm::kDom:
    case Algorithm::kIdom:
      return true;
    default:
      return false;
  }
}

std::span<const Algorithm> table1_algorithms() {
  static constexpr std::array<Algorithm, 8> kOrder{
      Algorithm::kKmb,  Algorithm::kZel, Algorithm::kIkmb, Algorithm::kIzel,
      Algorithm::kDjka, Algorithm::kDom, Algorithm::kPfa,  Algorithm::kIdom,
  };
  return kOrder;
}

RoutingTree route(const Graph& g, const Net& net, Algorithm algorithm, PathOracle& oracle,
                  const RouteOptions& options) {
  const std::vector<NodeId> terminals = net.terminals();

  switch (algorithm) {
    case Algorithm::kKmb:
      return kmb(g, terminals, oracle);
    case Algorithm::kZel:
      return zelikovsky(g, terminals, oracle);
    case Algorithm::kIkmb:
      return ikmb(g, terminals, oracle, options);
    case Algorithm::kIzel:
      return izel(g, terminals, oracle, options);
    case Algorithm::kDjka:
      return djka(g, terminals, oracle);
    case Algorithm::kDom:
      return dom(g, terminals, oracle);
    case Algorithm::kPfa:
      return pfa(g, terminals, oracle);
    case Algorithm::kIdom:
      return idom(g, terminals, oracle, options);
    case Algorithm::kExactGmst: {
      auto result = exact_gmst(g, terminals, oracle);
      return result ? std::move(*result) : ikmb(g, terminals, oracle, options);
    }
    case Algorithm::kExactGsa: {
      auto result = exact_gsa(g, terminals, oracle);
      return result ? std::move(*result) : idom(g, terminals, oracle, options);
    }
  }
  return RoutingTree(g, {});
}

RoutingTree route(const Graph& g, const Net& net, Algorithm algorithm,
                  const RouteOptions& options) {
  PathOracle oracle(g);
  return route(g, net, algorithm, oracle, options);
}

}  // namespace fpr
