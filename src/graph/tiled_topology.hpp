#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/contract.hpp"
#include "graph/types.hpp"

namespace fpr {

/// Tile-template topology: a compressed description of a tile-periodic graph
/// from which adjacency is synthesized arithmetically instead of stored
/// (Kennings, "Simple FPGA routing graph compression", arXiv 1811.04749;
/// DESIGN.md §12).
///
/// Nodes are grouped into *roles* (e.g. logic blocks, horizontal wires,
/// vertical wires). A role occupies a
/// contiguous id range laid out as a (ydim × xdim × tracks) grid:
///
///   id = base + (y * xdim + x) * tracks + t
///
/// Every node's incident edge list is an instance of a per-(boundary class,
/// track) *pattern*: an ordered list of slots whose neighbor and edge ids are
/// affine in the node's cell coordinates (x, y):
///
///   neighbor = nbr_base  + nbr_dx  * x + nbr_dy  * y
///   edge     = edge_base + edge_dx * x + edge_dy * y
///
/// Boundary classes capture the device perimeter (the first `xlo`/last `xhi`
/// columns and first `ylo`/last `yhi` rows get their own patterns); all
/// interior cells share one pattern.
///
/// Equivalence contract: a TiledTopology compiled for a device spec
/// synthesizes, for every node, the exact incident list — same edge ids, same
/// neighbor ids, same order, same base weights — that the legacy incremental
/// builder would have materialized. Slot order within a pattern is ascending
/// edge id (the legacy add_edge insertion order), which the deterministic-
/// parent guarantee of dijkstra() depends on. The fpga-layer template
/// compiler (fpga/tile_template.cpp) verifies this contract at a held-out
/// device size before a template is ever used.
struct TiledSlot {
  // int64 bases: an affine base is the extrapolation of the pattern to
  // x = y = 0, which can fall outside the id range (or below zero) even
  // though every *applied* value is in range. Applied values are validated
  // exhaustively by Graph::from_tiled's stamping pass.
  std::int64_t nbr_base = 0;
  std::int64_t nbr_dx = 0;
  std::int64_t nbr_dy = 0;
  std::int64_t edge_base = 0;
  std::int64_t edge_dx = 0;
  std::int64_t edge_dy = 0;
  Weight base_weight = 1.0;
};

struct TiledRole {
  NodeId base = 0;  // first node id of this role; roles tile [0, node_count)
  std::int32_t tracks = 1;
  std::int32_t xdim = 0;
  std::int32_t ydim = 0;
  // Boundary cut widths (see class comment).
  std::int32_t xlo = 0;
  std::int32_t xhi = 0;
  std::int32_t ylo = 0;
  std::int32_t yhi = 0;
  std::int32_t xclasses = 0;  // xlo + 1 + xhi
  std::int32_t yclasses = 0;  // ylo + 1 + yhi
  // Pattern table, indexed ((yc * xclasses + xc) * tracks + t): slot-pool
  // range [pattern_first[i], pattern_first[i] + pattern_count[i]).
  std::vector<std::uint32_t> pattern_first;
  std::vector<std::uint32_t> pattern_count;

  NodeId count() const {
    return static_cast<NodeId>(static_cast<std::int64_t>(xdim) * ydim * tracks);
  }

  std::int32_t xclass(std::int32_t x) const {
    if (x < xlo) return x;
    if (x >= xdim - xhi) return xlo + 1 + (x - (xdim - xhi));
    return xlo;
  }

  std::int32_t yclass(std::int32_t y) const {
    if (y < ylo) return y;
    if (y >= ydim - yhi) return ylo + 1 + (y - (ydim - yhi));
    return ylo;
  }
};

class TiledTopology {
 public:
  std::vector<TiledRole> roles;  // ascending base
  std::vector<TiledSlot> slots;  // shared pattern pool
  NodeId node_count = 0;
  EdgeId edge_count = 0;

  struct Decoded {
    const TiledRole* role = nullptr;
    std::int32_t x = 0;
    std::int32_t y = 0;
    std::int32_t t = 0;
    std::uint32_t first = 0;  // slot-pool range of this node's pattern
    std::uint32_t count = 0;
  };

  /// Locates `v`'s role, cell coordinates and pattern. Pure index
  /// arithmetic; no per-node storage is consulted.
  Decoded decode(NodeId v) const {
    FPR_CHECK(v >= 0 && v < node_count,
              "TiledTopology::decode node " << v << " outside [0, " << node_count << ")");
    // Roles are few (three per device layer); a linear scan beats a binary
    // search at these sizes and stays branch-predictable in the Dijkstra
    // inner loop.
    const TiledRole* role = roles.data();
    const TiledRole* last = roles.data() + (roles.size() - 1);
    while (role < last && v >= role[1].base) ++role;
    Decoded d;
    d.role = role;
    std::int32_t i = v - role->base;
    if (role->tracks > 1) {
      d.t = i % role->tracks;
      i /= role->tracks;
    }
    d.x = i % role->xdim;
    d.y = i / role->xdim;
    const std::size_t p = static_cast<std::size_t>(
        (role->yclass(d.y) * role->xclasses + role->xclass(d.x)) * role->tracks + d.t);
    d.first = role->pattern_first[p];
    d.count = role->pattern_count[p];
    return d;
  }

  /// Synthesizes `v`'s incident list in order, invoking
  /// `fn(neighbor, edge, slot)` per slot. Edge ids are ascending — the same
  /// order the legacy builder's insertion produced.
  template <typename Fn>
  void for_each_slot(NodeId v, Fn&& fn) const {
    const Decoded d = decode(v);
    apply(d, fn);
  }

  /// Same, from an already-decoded node (saves the decode when the caller
  /// also needs the coordinates).
  template <typename Fn>
  void apply(const Decoded& d, Fn&& fn) const {
    const TiledSlot* s = slots.data() + d.first;
    const TiledSlot* end = s + d.count;
    for (; s < end; ++s) {
      const auto nbr = static_cast<NodeId>(s->nbr_base + s->nbr_dx * d.x + s->nbr_dy * d.y);
      const auto e = static_cast<EdgeId>(s->edge_base + s->edge_dx * d.x + s->edge_dy * d.y);
      fn(nbr, e, *s);
    }
  }

  std::uint32_t degree(NodeId v) const { return decode(v).count; }

  /// Iterates every node in ascending id order, invoking
  /// `fn(v, decoded)` with the pattern lookup hoisted per (role, y, x) cell
  /// — the tile-row-at-a-time walk bulk construction (CSR stamping,
  /// Graph::from_tiled) is built on.
  template <typename Fn>
  void for_each_node(Fn&& fn) const {
    for (const TiledRole& role : roles) {
      NodeId v = role.base;
      for (std::int32_t y = 0; y < role.ydim; ++y) {
        const std::int32_t yc = role.yclass(y);
        for (std::int32_t x = 0; x < role.xdim; ++x) {
          const std::size_t p0 = static_cast<std::size_t>(
              (yc * role.xclasses + role.xclass(x)) * role.tracks);
          Decoded d;
          d.role = &role;
          d.x = x;
          d.y = y;
          for (std::int32_t t = 0; t < role.tracks; ++t, ++v) {
            d.t = t;
            d.first = role.pattern_first[p0 + static_cast<std::size_t>(t)];
            d.count = role.pattern_count[p0 + static_cast<std::size_t>(t)];
            fn(v, d);
          }
        }
      }
    }
  }

  /// Structural invariants: roles tile [0, node_count) contiguously in
  /// ascending order, class tables are fully populated, and every pattern
  /// range lies inside the slot pool. Id-level invariants (every synthesized
  /// neighbor/edge id in range, each edge with exactly two endpoints) are
  /// enforced by Graph::from_tiled's stamping pass.
  void validate() const;
};

}  // namespace fpr
