#include "graph/tiled_topology.hpp"

namespace fpr {

void TiledTopology::validate() const {
  FPR_CHECK(!roles.empty(), "TiledTopology with no roles");
  FPR_CHECK(node_count > 0, "TiledTopology with node_count " << node_count);
  FPR_CHECK(edge_count >= 0, "TiledTopology with edge_count " << edge_count);
  NodeId next = 0;
  for (std::size_t r = 0; r < roles.size(); ++r) {
    const TiledRole& role = roles[r];
    FPR_CHECK(role.base == next, "role " << r << " base " << role.base
                                         << " leaves a gap (expected " << next << ")");
    FPR_CHECK(role.tracks >= 1 && role.xdim >= 1 && role.ydim >= 1,
              "role " << r << " has degenerate grid " << role.xdim << "x" << role.ydim << "x"
                      << role.tracks);
    FPR_CHECK(role.xclasses == role.xlo + 1 + role.xhi &&
                  role.yclasses == role.ylo + 1 + role.yhi,
              "role " << r << " class counts do not match cuts + interior");
    // Boundary cuts must not overlap: every x (resp. y) must classify
    // uniquely, which requires the interior span to be non-empty.
    FPR_CHECK(role.xdim > role.xlo + role.xhi,
              "role " << r << " xdim " << role.xdim << " too small for cuts " << role.xlo << "+"
                      << role.xhi);
    FPR_CHECK(role.ydim > role.ylo + role.yhi,
              "role " << r << " ydim " << role.ydim << " too small for cuts " << role.ylo << "+"
                      << role.yhi);
    const std::size_t patterns =
        static_cast<std::size_t>(role.xclasses) * static_cast<std::size_t>(role.yclasses) *
        static_cast<std::size_t>(role.tracks);
    FPR_CHECK(role.pattern_first.size() == patterns && role.pattern_count.size() == patterns,
              "role " << r << " pattern table sized " << role.pattern_first.size()
                      << ", expected " << patterns);
    for (std::size_t p = 0; p < patterns; ++p) {
      FPR_CHECK(static_cast<std::size_t>(role.pattern_first[p]) +
                        static_cast<std::size_t>(role.pattern_count[p]) <=
                    slots.size(),
                "role " << r << " pattern " << p << " range exceeds slot pool of "
                        << slots.size());
    }
    next += role.count();
  }
  FPR_CHECK(next == node_count, "roles tile " << next << " nodes, topology declares "
                                              << node_count);
}

}  // namespace fpr
