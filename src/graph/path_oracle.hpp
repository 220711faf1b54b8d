#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>

#include "core/parallel.hpp"
#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"

namespace fpr {

/// Caches single-source shortest-path trees keyed by source node.
///
/// The paper notes that the naive iterated constructions can be sped up
/// substantially "by factoring out of H common computations, such as
/// computing shortest-paths" (Section 3); this oracle is that factoring.
/// IGMST/IDOM evaluate hundreds of Steiner candidates against the same
/// terminal set, and every distance they need is available from the
/// terminals' own SSSP trees.
///
/// The trees come from the flat-adjacency/arena Dijkstra engine (DESIGN.md §8), whose
/// deterministic tie-break makes every cached parent forest reproducible.
/// The cache self-invalidates when the underlying graph's total revision()
/// changes — weight bumps included, because distances depend on weights
/// (the structural_revision() split only spares the graph's flat adjacency,
/// not these trees).
///
/// Cache effectiveness is observable: cache_hits() counts queries served
/// from an already-computed tree, cache_misses() counts the ones that had
/// to run Dijkstra (including re-runs of sealed trees). src/core/metrics
/// snapshots both for reporting.
///
/// Thread model: an oracle belongs to one thread — the parallel sweeps give
/// every worker its own oracle over its own Device copy, so the cache map
/// is deliberately unsynchronized (no Mutex / FPR_GUARDED_BY from
/// core/annotations.hpp). Reading a cached tree may grow it, so a tree it
/// hands out is read by one thread at a time. The one exception is the
/// oracle's own fan-out (set_pool): warm() and grow() hand each tree to one
/// pool task and take it back at the join, and a round's scoring tasks
/// share trees only through knows_now() and reads of nodes it vouches for,
/// which never grow a tree (DESIGN.md §7).
class PathOracle {
 public:
  explicit PathOracle(const Graph& g) : g_(&g), revision_(g.revision()) {}

  const Graph& graph() const { return *g_; }

  /// Scopes fresh Dijkstra runs to the given target set. Each fresh tree is
  /// a dijkstra_within_paused run: it stops right after its last target
  /// settles and grows on demand, each read until the node it reads
  /// settles, so every answer is the unscoped tree's.
  ///
  /// With a `bound` (consistent toward every target, see DistanceBound) a
  /// fresh tree can be goal-directed: from(s) keys on the bound's minimum
  /// over the scope's other nodes, so it pops toward them instead of a ball
  /// around s. It still grows to any node read and answers as dijkstra()
  /// does; a read far from the targets just costs more pops than a plain
  /// ball would. A tree with a single goal is goal-directed (a two-terminal
  /// net pays one point-to-point search). A tree toward two or more goals
  /// is goal-directed only on a graph above Graph::kFlatAdjacencyMaxEdges
  /// edges, and only when the bound estimates that the aimed run pops less
  /// than kMaxAimedShare of the plain ball (DistanceBound::aimed_share):
  /// an aimed pop costs more than a plain one, so aiming at goals that
  /// spread around the source, or across the whole array, loses time
  /// (DESIGN.md §8 has the measurements).
  /// The bound is held by reference and must outlive the scope and every
  /// read of a tree made under it.
  void set_scope(std::vector<NodeId> targets, std::optional<DistanceBound> bound = {}) {
    scope_ = std::move(targets);
    bound_ = bound;
    held_.clear();
  }
  void clear_scope() {
    scope_.clear();
    bound_.reset();
    held_.clear();
  }

  /// Attaches the pool that warm() and grow() fan out on (nullptr, the
  /// default, or a pool of one: they do nothing and every read is made
  /// lazily on the caller). The pool must outlive the oracle's use of it.
  void set_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* pool() const { return pool_; }

  /// The one policy check for pool work: a pool of more than one worker, a
  /// scope (fresh trees are paused runs that grow on reads) and no budget
  /// limit. A limit must stop the work at the pop where it runs out, and
  /// only the serial order of reads says which pop that is, so a budgeted
  /// oracle reads lazily, in the caller's order.
  bool fans_out() const {
    return pool_ != nullptr && pool_->size() > 1 && !scope_.empty() &&
           (budget_ == nullptr || budget_->unlimited());
  }

  /// Runs the fresh trees of `sources` on the pool, one task per tree not
  /// cached yet, and holds them outside the cache. from() adopts a held
  /// tree instead of running Dijkstra, and counts the run, the miss and its
  /// pops, and charges them to the budget, at that moment. So the cache
  /// holds the same trees, inserted in the same order, as without warm():
  /// which trees are cached decides which endpoint path_between serves a
  /// path from. A held tree never adopted is dropped uncounted (by clear(),
  /// a scope or budget change, or a graph change). No-op unless fans_out().
  void warm(std::span<const NodeId> sources);

  /// Hands each cached tree of the distinct `sources` to one pool task,
  /// which calls read(i, tree of sources[i]); a read may grow its tree.
  /// Growth is charged to a private budget per task, and the totals are
  /// added to the oracle's budget after the join. Requires fans_out() and
  /// every source cached. Growth depends only on the set of nodes read, so
  /// the trees end as the same reads made serially would leave them.
  void grow(std::span<const NodeId> sources,
            const std::function<void(std::size_t, const ShortestPathTree&)>& read);

  /// Counts `n` queries answered from cached trees by pool tasks that read
  /// them directly (see cache_hits()).
  void count_hits(std::size_t n) { hits_ += n; }

  /// Attaches a shared node-expansion budget (graph/budget.hpp): every
  /// Dijkstra run this oracle performs charges it, and so does every read
  /// that grows a paused tree — growth charges the budget attached at the
  /// time of the read, so after set_budget(nullptr) reads grow for free.
  /// Once the budget is exhausted, fresh runs abort immediately and cached
  /// partial trees stop growing, so queries may return tentative/infinite
  /// distances — the algorithms above degrade into "unreachable" answers
  /// and the router marks the in-flight net kAbortedBudget. Deterministic:
  /// a given budget always yields the same (partial) trees. The caller owns
  /// the budget; nullptr (the default) disables budgeting.
  void set_budget(WorkBudget* budget);
  WorkBudget* budget() const { return budget_; }

  /// True when the attached budget has run out (never true without one).
  bool budget_exhausted() const { return budget_ != nullptr && budget_->exhausted(); }

  /// The SSSP tree rooted at `source` (computed on first use; paused when a
  /// scope is set).
  const ShortestPathTree& from(NodeId source);

  /// A tree rooted at `source` that is guaranteed to know `probe` (unless
  /// the budget runs out). A paused tree grows to the probe; a sealed tree
  /// that does not know it (an unscoped run a budget stopped) is re-run
  /// unbounded in place, so references handed out earlier stay valid.
  const ShortestPathTree& from_knowing(NodeId source, NodeId probe);

  /// Shortest-path distance between two nodes (graph is undirected, so this
  /// is served from whichever endpoint is already cached, else from u).
  Weight distance(NodeId u, NodeId v);

  /// The cached SSSP tree for `source`, or nullptr if not computed yet.
  /// Lets callers choose the endpoint whose tree is already available
  /// instead of forcing a fresh Dijkstra.
  const ShortestPathTree* cached(NodeId source);

  /// Edges of a shortest a-b path, served from whichever endpoint's SSSP
  /// tree is already cached (computing from `a` only as a last resort).
  /// Empty when a == b or when they are disconnected.
  std::vector<EdgeId> path_between(NodeId a, NodeId b);

  void clear();

  /// Number of Dijkstra runs performed since construction/clear (for tests
  /// and the candidate-filtering ablation).
  std::size_t dijkstra_runs() const { return runs_; }

  /// Queries answered from an already-computed tree since construction/
  /// clear: repeat from() calls, and distance()/path_between() served by a
  /// cached endpoint. Revision-triggered invalidation does NOT reset these
  /// — they describe the oracle's whole lifetime, so a hot IGMST loop shows
  /// a high hit rate even though the router mutates the graph between nets.
  std::size_t cache_hits() const { return hits_; }

  /// Queries that had to run Dijkstra: cold from() calls and sealed-tree
  /// re-runs in from_knowing(). On-demand growth of a paused tree is
  /// neither a run nor a miss; resumes() counts it.
  std::size_t cache_misses() const { return misses_; }

  /// Heap pops of the runs counted by dijkstra_runs(), re-runs included.
  std::int64_t run_pops() const { return run_pops_; }

  /// Reads that resumed a paused tree, and the pops they settled, over the
  /// same lifetime as cache_hits(). run_pops() + resume_pops() is every pop
  /// the oracle performed, so under a budget it equals the budget's use.
  std::int64_t resumes() const;
  std::int64_t resume_pops() const;

  /// hits / (hits + misses); 0 when nothing was queried yet.
  double hit_rate() const {
    const std::size_t total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
  }

 private:
  void refresh();

  /// Whether a fresh scoped tree from `source` is goal-directed (see
  /// set_scope).
  bool goal_directed(NodeId source) const;

  /// Aim a tree toward several goals only below this estimated share of
  /// the plain ball: above the flat-adjacency cut an aimed pop cost 1.42
  /// plain ones on a 200x200 route whose aimed and plain trees popped
  /// alike, and 1 / 1.42 ~ 0.7.
  static constexpr double kMaxAimedShare = 0.7;

  /// A fresh tree from `source`: a held one from warm(), counted now, or a
  /// new run.
  std::unique_ptr<ShortestPathTree> fresh_tree(NodeId source);

  const Graph* g_;
  std::uint64_t revision_;
  std::unordered_map<NodeId, std::unique_ptr<ShortestPathTree>> cache_;
  std::unordered_map<NodeId, std::unique_ptr<ShortestPathTree>> held_;  // warm(), not adopted
  ThreadPool* pool_ = nullptr;
  std::vector<NodeId> scope_;
  std::optional<DistanceBound> bound_;
  WorkBudget* budget_ = nullptr;
  std::size_t runs_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::int64_t run_pops_ = 0;
  std::int64_t retired_resumes_ = 0;      // growth of trees already dropped
  std::int64_t retired_resume_pops_ = 0;
};

}  // namespace fpr
