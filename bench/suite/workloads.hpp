#pragma once

#include <string>

#include "suite.hpp"

namespace fpr::suite {

/// What one workload child process is asked to do.
struct ChildOptions {
  std::string workload;
  unsigned seed = 31;
  /// Which of the run's timed processes this is (0-based). repair-busc
  /// gives each process its own event streams.
  int index = 0;
  /// Length of the closed loop of timed calls; at least one call runs
  /// regardless (two when traced).
  double seconds = 10;
  /// Record spans and replay the graph, tree and width-probe layers.
  bool traced = false;
  /// Reduced inputs: term1-sized circuits, scale at 40x40, 20 repair events.
  bool smoke = false;
};

/// Runs one workload in this process and returns what it measured. A failed
/// correctness check is recorded in ChildReport::errors, never thrown.
ChildReport run_workload(const ChildOptions& options);

}  // namespace fpr::suite
