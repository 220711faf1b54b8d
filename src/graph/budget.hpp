#pragma once

namespace fpr {

/// Deterministic work budget, denominated in Dijkstra node expansions
/// (heap pops), NOT wall-clock time — so a budget-limited run settles the
/// exact same node set on every machine and thread count, and aborted
/// results stay bit-reproducible.
///
/// One budget object is threaded through a whole routing request: every
/// shortest-path run the request triggers (directly or via PathOracle)
/// charges its expansions here. When the budget runs out, searches stop
/// settling nodes and the layers above observe partial trees, fail the
/// in-flight net as NetStatus::kAbortedBudget, and return a usable partial
/// RoutingResult instead of spinning on a pathological instance (e.g. a
/// heavily faulted device with no short detours).
///
/// limit == 0 means unlimited; `used` keeps counting either way so callers
/// can report the work a run actually performed.
struct WorkBudget {
  long long limit = 0;  // max node expansions; 0 = unlimited
  long long used = 0;

  bool unlimited() const { return limit <= 0; }
  bool exhausted() const { return !unlimited() && used >= limit; }

  /// Charges one node expansion. Returns false when the expansion is NOT
  /// allowed (budget already spent); the caller must then stop expanding.
  bool charge() {
    if (!unlimited() && used >= limit) return false;
    ++used;
    return true;
  }

  /// Adds expansions made elsewhere under no limit: pool tasks charge
  /// private unlimited budgets and the caller adds their totals after the
  /// join. Only an unlimited budget takes them, since a limit would have to
  /// stop the work where it crossed.
  void absorb(long long expansions) { used += expansions; }
};

}  // namespace fpr
