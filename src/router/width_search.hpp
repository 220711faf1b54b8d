#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "router/router.hpp"

namespace fpr {

struct WidthSearchOptions {
  int min_width = 2;
  int max_width = 30;

  /// Lanes that probe widths at once, one per pool worker: 0 = the shared
  /// pool (FPR_THREADS / hardware default), 1 = one inline lane, which is
  /// the serial search, >= 2 = a dedicated pool of that size. Whatever the
  /// value, the result is identical (see the attempts contract below);
  /// threads only change wall-clock time.
  int threads = 0;

  /// Fault spec to install on every probe device (the same defect
  /// distribution re-drawn at each width) — the yield-curve experiments
  /// ask "what width does this DEFECTIVE part need". nullopt = pristine.
  std::optional<FaultSpec> faults;
};

/// Why the search ended — distinguishes three conditions that used to
/// collapse into min_width == -1 (silent failure): nothing was probed at
/// all, the circuit genuinely does not route at max_width, or the probe at
/// max_width ran out of work budget before deciding.
enum class WidthSearchStatus {
  kEmptyRange,        // degenerate [min,max]: no widths probed
  kFound,             // min_width holds the answer
  kUnroutable,        // failed at max_width with budget to spare
  kBudgetExhausted,   // the max_width probe aborted on budget: unknown
};

/// Printable name ("found", "unroutable", "empty-range", "budget").
std::string_view width_search_status_name(WidthSearchStatus status);

/// One probe of the serial binary-search trace. A budget-aborted probe
/// counts as a failure for the search's decisions (the safe direction:
/// widths are only ever overestimated) but is recorded distinctly so yield
/// analyses can tell "defect-unroutable" from "ran out of budget".
struct WidthProbe {
  int width = 0;
  bool success = false;
  bool budget_aborted = false;

  friend bool operator==(const WidthProbe&, const WidthProbe&) = default;
};

/// Result of the minimum-channel-width search — the quality measure the
/// paper's circuit experiments report ("for each circuit we find the
/// smallest maximum channel width necessary to completely route the
/// circuit").
struct WidthSearchResult {
  WidthSearchStatus status = WidthSearchStatus::kEmptyRange;
  int min_width = -1;  // -1 unless status == kFound
  RoutingResult at_min_width;
  std::vector<WidthProbe> attempts;  // serial-order probe trace

  /// Probes in `attempts` that were budget-undecided: the router aborted on
  /// its per-probe work budget before reaching an answer, and the search
  /// treated the width as failing (the safe direction — widths are only
  /// ever overestimated). Nonzero alongside status == kFound means
  /// min_width is an upper bound, not a certainty: a narrower width below
  /// it may have been ruled out by budget rather than by congestion.
  /// Derived from `attempts`, so it inherits the bit-identical
  /// serial/parallel contract below.
  int undecided_probes = 0;
};

/// Finds the smallest channel width at which the router completes the
/// circuit. Routability is monotone in practice, so the search is binary
/// over [min_width, max_width] after confirming the upper end routes.
/// `base` supplies the architecture family (switch pattern, Fc rule); its
/// own channel_width is ignored.
///
/// **Attempts-ordering contract.** `attempts` records exactly the probes a
/// serial binary search performs, in its order: `max_width` first, then the
/// midpoint sequence `mid = lo + (cur_min - lo) / 2` with `cur_min`
/// shrinking on success and `lo` rising on failure, until `lo == cur_min`.
/// Every thread count runs one scheduler: each lane takes the next width
/// the serial search could need, routes it on its own Device (so per-width
/// outcomes are deterministic), and records the outcome; a free lane never
/// waits for another. The serial decision sequence is replayed over the
/// memoized outcomes, so `status`, `min_width`, `at_min_width`, `attempts`
/// and `undecided_probes` are bit-identical to the serial search for every
/// thread count. Speculative probes that the serial search would not have
/// made are NOT recorded.
///
/// **Per-probe budget.** Each probe is one route_circuit call, which starts
/// a fresh WorkBudget of `router_options.node_budget`, so a finite budget
/// is granted to EACH probe. A pot shared across the search would make one
/// width's outcome depend on which speculative probes ran before it.
///
/// Degenerate ranges are guarded: `min_width` is clamped up to 1, and an
/// empty range (`min_width > max_width` after clamping, or
/// `max_width < 1`) returns `{status = kEmptyRange, min_width = -1}` with
/// no attempts instead of probing nonsensical widths.
///
/// **Graph-build cost across probes.** Each probe constructs a fresh
/// Device, but the tile-template cache (fpga/tile_template.hpp) is keyed
/// by (family, width), so a width probed once — serially or by a
/// speculative worker — compiles its template once and every later Device
/// of that width stamps from the cached template in O(V + E) with no
/// learning pass. Repeated width searches over the same family (the yield
/// sweeps) converge to pure stamping, which is why probe cost is dominated
/// by routing, not graph construction, even at large array sizes.
WidthSearchResult find_min_channel_width(const ArchSpec& base, const Circuit& circuit,
                                         const RouterOptions& router_options,
                                         const WidthSearchOptions& search_options = {});

}  // namespace fpr
