#include "router/width_search.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <set>

#include "core/annotations.hpp"
#include "core/contract.hpp"
#include "core/parallel.hpp"

namespace fpr {

std::string_view width_search_status_name(WidthSearchStatus status) {
  switch (status) {
    case WidthSearchStatus::kEmptyRange: return "empty-range";
    case WidthSearchStatus::kFound: return "found";
    case WidthSearchStatus::kUnroutable: return "unroutable";
    case WidthSearchStatus::kBudgetExhausted: return "budget";
  }
  return "?";
}

namespace {

/// Outcome of every width routed so far. Each is a pure function of its
/// width (a fresh Device and a fresh budget per probe), so the order in
/// which lanes fill the memo never shows in the result.
using ProbeMemo = std::map<int, WidthProbe>;

/// Fills WidthSearchResult::undecided_probes from the recorded trace. A
/// successful probe is decided even when it also hit the budget (a partial
/// route that still closed is an answer); only "failed AND budget-aborted"
/// is genuinely unknown.
void count_undecided(WidthSearchResult& result) {
  result.undecided_probes = 0;
  for (const WidthProbe& p : result.attempts) {
    if (!p.success && p.budget_aborted) ++result.undecided_probes;
  }
}

/// Replays the serial binary-search decision sequence over memoized
/// per-width outcomes, recording attempts in the serial order. Returns
/// false (leaving `result` half-filled) when it reaches a width the memo
/// does not know yet.
bool replay_serial_search(const ProbeMemo& memo, int lo0, int hi, WidthSearchResult& result) {
  result.attempts.clear();
  result.min_width = -1;
  result.status = WidthSearchStatus::kEmptyRange;
  auto it = memo.find(hi);
  if (it == memo.end()) return false;
  result.attempts.push_back(it->second);
  if (!it->second.success) {
    // Unroutable even at the widest device — or undecided, when the widest
    // probe burned its whole budget without an answer.
    result.status = it->second.budget_aborted ? WidthSearchStatus::kBudgetExhausted
                                              : WidthSearchStatus::kUnroutable;
    return true;
  }
  int cur = hi;
  int lo = lo0;
  while (lo < cur) {
    const int mid = lo + (cur - lo) / 2;
    it = memo.find(mid);
    if (it == memo.end()) return false;
    result.attempts.push_back(it->second);
    if (it->second.success) {
      cur = mid;
    } else {
      lo = mid + 1;
    }
  }
  result.min_width = cur;
  result.status = WidthSearchStatus::kFound;
  return true;
}

/// The next width worth routing: BFS over the binary search's two-outcome
/// decision tree, following known branches silently. A width in flight is a
/// branch point that goes both ways and is never returned. With nothing in
/// flight the first unknown width is the serial search's next probe; with
/// widths in flight, BFS order picks the probe nearest the serial path.
/// nullopt when the search is decided or every open branch waits on a width
/// in flight.
std::optional<int> speculate_width(const ProbeMemo& memo, const std::set<int>& in_flight,
                                   int lo0, int hi) {
  struct Interval {
    int lo, cur;  // cur assumed-routable; widths below lo assumed-failing
  };
  const auto top = memo.find(hi);
  if (top == memo.end()) {
    if (!in_flight.contains(hi)) return hi;
    // In flight: only its routable branch goes on; the failing one ends the
    // search.
  } else if (!top->second.success) {
    return std::nullopt;  // search already decided: unroutable
  }

  std::deque<Interval> frontier{{lo0, hi}};
  while (!frontier.empty()) {
    const Interval s = frontier.front();
    frontier.pop_front();
    if (s.lo >= s.cur) continue;  // this branch's search has terminated
    const int mid = s.lo + (s.cur - s.lo) / 2;
    const auto known = memo.find(mid);
    if (known != memo.end()) {
      frontier.push_back(known->second.success ? Interval{s.lo, mid}
                                               : Interval{mid + 1, s.cur});
      continue;
    }
    if (!in_flight.contains(mid)) return mid;
    frontier.push_back({s.lo, mid});
    frontier.push_back({mid + 1, s.cur});
  }
  return std::nullopt;
}

}  // namespace

WidthSearchResult find_min_channel_width(const ArchSpec& base, const Circuit& circuit,
                                         const RouterOptions& router_options,
                                         const WidthSearchOptions& search_options) {
  WidthSearchResult result;
  const int lo0 = std::max(search_options.min_width, 1);
  const int hi = search_options.max_width;
  if (hi < 1 || lo0 > hi) return result;  // degenerate range: nothing to probe

  const auto route_width = [&](int w) -> RoutingResult {
    Device device(base.with_width(w));
    if (search_options.faults.has_value() && search_options.faults->any()) {
      device.install_faults(*search_options.faults);
    }
    RouterOptions opts = router_options;
    if (search_options.node_budget_per_probe > 0) {
      opts.node_budget = search_options.node_budget_per_probe;
    }
    return route_circuit(device, circuit, opts);
  };

  // One lane per pool worker. A free lane takes the next speculative width
  // at once and never waits on another lane, so there is no barrier between
  // probes, and a pool of one is a single inline lane that routes exactly
  // the serial sequence. The replay over the memo keeps the result
  // identical at every pool size.
  struct Shared {
    Mutex mu;
    ProbeMemo probes FPR_GUARDED_BY(mu);
    std::map<int, RoutingResult> routed FPR_GUARDED_BY(mu);  // successes only
    std::set<int> in_flight FPR_GUARDED_BY(mu);
  } shared;
  const auto lane = [&](std::size_t) {
    for (;;) {
      int width = 0;
      {
        MutexLock lock(shared.mu);
        // Decided, or every open branch is in flight. Recording an in-flight
        // width only prunes the tree, so no width opens up for this lane
        // later; the lanes still routing finish the search.
        const std::optional<int> next = speculate_width(shared.probes, shared.in_flight, lo0, hi);
        if (!next) return;
        width = *next;
        shared.in_flight.insert(width);
      }
      RoutingResult r = route_width(width);
      MutexLock lock(shared.mu);
      shared.in_flight.erase(width);
      shared.probes.emplace(width, WidthProbe{width, r.success, r.budget_exhausted});
      if (r.success) shared.routed.emplace(width, std::move(r));
    }
  };
  PoolLease lease(search_options.threads);
  lease.pool().parallel_for(static_cast<std::size_t>(lease.pool().size()), lane);

  MutexLock lock(shared.mu);  // every lane has returned
  FPR_CHECK(replay_serial_search(shared.probes, lo0, hi, result),
            "width search: lanes stopped before the search was decided");
  if (result.min_width > 0) result.at_min_width = std::move(shared.routed.at(result.min_width));
  count_undecided(result);
  return result;
}

}  // namespace fpr
