#pragma once

#include <vector>

#include "fpga/device.hpp"
#include "graph/budget.hpp"
#include "graph/congestion_layer.hpp"
#include "graph/types.hpp"

namespace fpr {

/// Axis-aligned rectangle over the device's unified half-tile grid (see
/// Device::node_tile): logic blocks sit at odd (x, y), channel segments at
/// the even coordinate of their channel axis. Coordinates are inclusive;
/// the default-constructed rect is empty (x1 < x0). Pattern corridors are
/// unions of these.
struct TileRect {
  int x0 = 0;
  int y0 = 0;
  int x1 = -1;
  int y1 = -1;

  bool empty() const { return x1 < x0 || y1 < y0; }

  bool intersects(const TileRect& o) const {
    return !empty() && !o.empty() && x0 <= o.x1 && o.x0 <= x1 && y0 <= o.y1 && o.y0 <= y1;
  }

  bool contains_point(int x, int y) const {
    return !empty() && x0 <= x && x <= x1 && y0 <= y && y <= y1;
  }

  void include(int x, int y) {
    if (empty()) {
      x0 = x1 = x;
      y0 = y1 = y;
      return;
    }
    x0 = x < x0 ? x : x0;
    x1 = x > x1 ? x : x1;
    y0 = y < y0 ? y : y0;
    y1 = y > y1 ? y : y1;
  }

  /// Grown by `margin` grid units on every side; empty stays empty.
  TileRect expanded(int margin) const {
    if (empty()) return *this;
    return TileRect{x0 - margin, y0 - margin, x1 + margin, y1 + margin};
  }

  /// Intersection with `bounds` (empty when disjoint).
  TileRect clipped(const TileRect& bounds) const {
    if (!intersects(bounds)) return TileRect{};
    return TileRect{x0 > bounds.x0 ? x0 : bounds.x0, y0 > bounds.y0 ? y0 : bounds.y0,
                    x1 < bounds.x1 ? x1 : bounds.x1, y1 < bounds.y1 ? y1 : bounds.y1};
  }

  friend bool operator==(const TileRect&, const TileRect&) = default;
};

/// Outcome of a corridor pattern probe (pattern_route below).
struct PatternProbe {
  /// True when `edges` is a usable source->sink path: every hop fault-free
  /// and every wire on it below capacity at probe time. False means the
  /// caller must fall back to the full scoped engine — the probe proves
  /// nothing about infeasibility, only that the cheap corridors failed.
  bool accepted = false;
  /// The probe's work budget expired mid-search (accepted is then false).
  bool budget_aborted = false;

  std::vector<EdgeId> edges;  // path edges, source -> sink order
  Weight cost = 0;            // sum of live edge weights along the path
  long long expansions = 0;  // heap pops spent (also charged to the budget)
};

/// Cheap first-attempt router for a two-pin connection (DESIGN.md §13):
/// tries L-shaped and, for long spans, Z-shaped corridor probes between the
/// terminals before the caller pays for a full scoped Dijkstra. Each
/// corridor is a few margin-2 rectangles over the half-tile grid; a
/// best-first search confined to the corridor prunes faulted hops
/// (edge_usable) and at-capacity wires (layer.would_overflow) DURING the
/// search, so any path that reaches the sink is acceptable by construction.
/// Corridors are tried in a fixed order (L horizontal-first, L
/// vertical-first, then the two Z shapes) and the first hit wins —
/// deterministic, because the probe reads only graph/layer state plus
/// geometry.
///
/// Cost guarantee the equivalence suite pins: the corridor search relaxes
/// the same live edge weights as the engine over a SUBSET of the graph, so
/// a full Dijkstra on the same snapshot always finds an equal-or-cheaper
/// path — a pattern accept is never better than the engine, just cheaper
/// to compute.
PatternProbe pattern_route(const Device& device, const CongestionLayer& layer, NodeId source,
                           NodeId sink, WorkBudget* budget);

}  // namespace fpr
