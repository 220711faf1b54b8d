#pragma once

#include "graph/types.hpp"

namespace fpr {

/// A lower bound h(v, t) on the shortest-path distance from node v to node
/// t, held by non-owning reference: the bound object must outlive every
/// copy. The point-to-point search (dijkstra_to) needs it to be consistent
/// toward its target — h(t, t) == 0 and h(u, t) <= w(e) + h(v, t) for every
/// usable edge e = {u, v} — which also makes it admissible. Device supplies
/// one for its routing graph (Device::distance_bound).
///
/// A function pointer plus an object pointer, so the search loop calls it
/// without std::function's allocation or type-erasure overhead.
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

  /// Binds the const member function `Fn` of `obj`:
  /// DistanceBound::bind<&Device::distance_lower_bound>(device).
  template <auto Fn, typename T>
  static DistanceBound bind(const T& obj) {
    return DistanceBound(&obj, [](const void* o, NodeId v, NodeId target) -> Weight {
      return (static_cast<const T*>(o)->*Fn)(v, target);
    });
  }

  Weight operator()(NodeId v, NodeId target) const { return fn_(obj_, v, target); }

 private:
  using Fn = Weight (*)(const void*, NodeId, NodeId);
  DistanceBound(const void* obj, Fn fn) : obj_(obj), fn_(fn) {}

  const void* obj_;
  Fn fn_;
};

}  // namespace fpr
