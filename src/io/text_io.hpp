#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "graph/graph.hpp"
#include "graph/routing_tree.hpp"
#include "netlist/netlist.hpp"

namespace fpr {

/// Plain-text serialization for the library's data (the paper notes "our
/// code and benchmarks are available upon request" — these formats are how
/// this repo publishes its synthetic benchmark suites and routing results).
///
/// Graph format:
///   graph <nodes> <edges>
///   e <u> <v> <weight>        (one line per edge, ids in [0, nodes))
///
/// Circuit format:
///   circuit <name> <rows> <cols> <nets>
///   net <pins> <x0> <y0> <x1> <y1> ...   (pin 0 is the source block)
///
/// Routing-tree format (relative to a known graph):
///   tree <edges>
///   <edge-id> ...
///
/// Readers validate structure and ranges and return nullopt on malformed
/// input (never crash on untrusted files); a header count is never trusted
/// for an allocation. The one-line `tag key=value ...` records (fault
/// specs, repair journals, fuzz repros) have their own reader,
/// core/line_format.hpp.

void write_graph(std::ostream& out, const Graph& g);
std::optional<Graph> read_graph(std::istream& in);

void write_circuit(std::ostream& out, const Circuit& circuit);
std::optional<Circuit> read_circuit(std::istream& in);

void write_routing_tree(std::ostream& out, const RoutingTree& tree);
std::optional<RoutingTree> read_routing_tree(std::istream& in, const Graph& g);

/// Convenience file wrappers; false/nullopt on I/O failure.
bool save_circuit(const std::string& path, const Circuit& circuit);
std::optional<Circuit> load_circuit(const std::string& path);

}  // namespace fpr
