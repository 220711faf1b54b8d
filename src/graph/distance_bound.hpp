#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <span>
#include <vector>

#include "graph/types.hpp"

namespace fpr {

/// A point of the integer lattice a lattice bound measures on.
struct LatticePoint {
  int x = 0;
  int y = 0;
};

/// A lower bound h(v, t) on the shortest-path distance from node v to node
/// t, held by non-owning reference: the bound object must outlive every
/// copy. The goal-directed searches (GoalBound, dijkstra_to) need it to be
/// consistent toward each target — h(t, t) == 0 and
/// h(u, t) <= w(e) + h(v, t) for every usable edge e = {u, v} — which also
/// makes it admissible. Device supplies one for its routing graph
/// (Device::distance_bound).
///
/// Two forms, both plain function pointers plus an object pointer, so the
/// search loop calls them without std::function's allocation or
/// type-erasure overhead:
///  - generic: any callable `Weight(NodeId v, NodeId target) const`;
///  - lattice: a node-to-point map, with h(v, t) = ceil(L1(v, t) / 2).
///    GoalBound decodes v's point once per evaluation and measures it
///    against goal points it computed once. The lattice form also knows
///    the box its points lie in, so it can estimate what aiming a search
///    saves (aimed_share).
class DistanceBound {
 public:
  /// Any callable `Weight(NodeId v, NodeId target) const`, by reference.
  template <typename F>
  explicit DistanceBound(const F& f)
      : obj_(&f), fn_([](const void* obj, NodeId v, NodeId target) -> Weight {
          return (*static_cast<const F*>(obj))(v, target);
        }) {}
  template <typename F>
  explicit DistanceBound(const F&& f) = delete;  // a temporary would dangle at once

  /// The lattice bound of `obj`: h(v, t) = ceil(L1(p(v), p(t)) / 2) with
  /// p = obj.*Pos, a const member returning anything with int `x` and `y`,
  /// every point within [0, extent.x] x [0, extent.y]. It is consistent
  /// when every usable edge joins points at most 2 apart in L1 and weighs
  /// at least 1.
  template <auto Pos, typename T>
  static DistanceBound lattice(const T& obj, LatticePoint extent) {
    DistanceBound b(&obj, nullptr);
    b.point_ = [](const void* o, NodeId v) -> LatticePoint {
      const auto p = (static_cast<const T*>(o)->*Pos)(v);
      return {p.x, p.y};
    };
    b.extent_ = extent;
    return b;
  }

  Weight operator()(NodeId v, NodeId target) const {
    if (point_ == nullptr) return fn_(obj_, v, target);
    const LatticePoint a = point_(obj_, v);
    const LatticePoint b = point_(obj_, target);
    return steps(std::abs(a.x - b.x) + std::abs(a.y - b.y));
  }

  /// Estimates the share of a plain paused run's pops that a run from
  /// `source` aimed at `goals` makes, measured on the lattice, where an
  /// edge's L1 length stands in for its weight. The plain run pops the
  /// ball out to the farthest goal: the L1 diamond of radius R =
  /// max L1(source, g). An aimed run pops the points whose key
  /// L1(source, v) + min_g L1(v, g) is at most the largest key it must
  /// reach: R at the pause, and more when a read lands on the path between
  /// two goals (the Steiner candidates lie there). A lattice shortest path
  /// between goals a and b runs along an L through one of the two free
  /// corners of their box, and the estimate takes the corner with the
  /// smaller key. Below a key K the aimed run pops the union over goals g
  /// of the L1 ellipses L1(source, v) + L1(v, g) <= K. Every ellipse holds
  /// the source's row, so their union is one interval per column, and
  /// both regions are counted column by column within the lattice's box:
  /// O(extent.x * |goals| + |goals|^3). Only the lattice form can
  /// estimate; the generic form answers 1 (no saving).
  double aimed_share(NodeId source, std::span<const NodeId> goals) const {
    if (point_ == nullptr || goals.empty()) return 1;
    const LatticePoint s = point_(obj_, source);
    std::vector<LatticePoint> points;
    for (const NodeId t : goals) points.push_back(point_(obj_, t));
    const auto l1 = [](LatticePoint a, LatticePoint b) {
      return std::abs(a.x - b.x) + std::abs(a.y - b.y);
    };
    const auto key = [&](LatticePoint p) {
      int h = std::numeric_limits<int>::max();
      for (const LatticePoint& g : points) h = std::min(h, l1(p, g));
      return l1(s, p) + h;
    };
    int radius = 0;
    for (const LatticePoint& g : points) radius = std::max(radius, l1(s, g));
    int reach = radius;
    for (std::size_t i = 0; i < points.size(); ++i) {
      for (std::size_t j = i + 1; j < points.size(); ++j) {
        const LatticePoint a = points[i];
        const LatticePoint b = points[j];
        reach = std::max(reach, std::min(key({a.x, b.y}), key({b.x, a.y})));
      }
    }
    const auto clipped = [this](int lo, int hi) -> std::int64_t {
      return std::max(0, std::min(hi, extent_.y) - std::max(lo, 0) + 1);
    };
    std::int64_t ball = 0;
    std::int64_t aimed = 0;
    for (int x = std::max(0, s.x - reach); x <= std::min(extent_.x, s.x + reach); ++x) {
      const int dx = std::abs(x - s.x);
      if (dx <= radius) ball += clipped(s.y - (radius - dx), s.y + (radius - dx));
      int lo = std::numeric_limits<int>::max();
      int hi = std::numeric_limits<int>::min();
      for (const LatticePoint& g : points) {
        // {y : |y - s.y| + |y - g.y| <= reach - dx - |x - g.x|}
        const int slack = reach - dx - std::abs(x - g.x) - std::abs(s.y - g.y);
        if (slack < 0) continue;
        lo = std::min(lo, std::min(s.y, g.y) - slack / 2);
        hi = std::max(hi, std::max(s.y, g.y) + slack / 2);
      }
      if (lo <= hi) aimed += clipped(lo, hi);
    }
    return ball > 0 ? static_cast<double>(aimed) / static_cast<double>(ball) : 1;
  }

 private:
  friend class GoalBound;
  using Fn = Weight (*)(const void*, NodeId, NodeId);
  using PointFn = LatticePoint (*)(const void*, NodeId);
  DistanceBound(const void* obj, Fn fn) : obj_(obj), fn_(fn) {}

  /// ceil(l1 / 2), the lattice form's bound at L1 distance `l1`.
  static Weight steps(int l1) { return static_cast<Weight>((l1 + 1) >> 1); }

  const void* obj_;
  Fn fn_;
  PointFn point_ = nullptr;  // non-null for the lattice form
  LatticePoint extent_;      // the lattice form's largest point
};

/// h(v) = the minimum of a DistanceBound over a goal set fixed when the
/// search starts: the key of a goal-directed search toward several targets
/// at once. Each bound is consistent toward its own goal, and a minimum of
/// consistent functions is consistent (for an edge {u, v}, h(u) <=
/// h_g(u) <= w + h_g(v) where g attains h(v)), so the search keeps A*'s
/// guarantees for the whole life of the tree as long as the set does not
/// change. The lattice form holds the goals' points, so an evaluation
/// decodes v once and loops over plain ints.
class GoalBound {
 public:
  /// Aims at `goals` (the caller passes a non-empty, duplicate-free set).
  void aim(const DistanceBound& bound, std::span<const NodeId> goals) {
    bound_ = bound;
    goals_.assign(goals.begin(), goals.end());
    xs_.clear();
    ys_.clear();
    if (bound.point_ != nullptr) {
      for (const NodeId t : goals) {
        const LatticePoint q = bound.point_(bound.obj_, t);
        xs_.push_back(q.x);
        ys_.push_back(q.y);
      }
    }
  }

  Weight operator()(NodeId v) const {
    if (bound_.point_ == nullptr) {
      Weight h = std::numeric_limits<Weight>::infinity();
      for (const NodeId t : goals_) h = std::min(h, bound_.fn_(bound_.obj_, v, t));
      return h;
    }
    const LatticePoint p = bound_.point_(bound_.obj_, v);
    const int* xs = xs_.data();
    const int* ys = ys_.data();
    int l1 = std::numeric_limits<int>::max();
    for (std::size_t i = 0; i < xs_.size(); ++i) {
      const int m = std::abs(p.x - xs[i]) + std::abs(p.y - ys[i]);
      l1 = m < l1 ? m : l1;
    }
    // ceil is monotone, so the minimum over goals commutes with it.
    return DistanceBound::steps(l1);
  }

 private:
  DistanceBound bound_{nullptr, nullptr};
  std::vector<NodeId> goals_;
  std::vector<int> xs_;  // the lattice form's goal points
  std::vector<int> ys_;
};

}  // namespace fpr
