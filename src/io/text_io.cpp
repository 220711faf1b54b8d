#include "io/text_io.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

namespace fpr {

namespace {

/// Circuit/graph names are written as single tokens; spaces are escaped so
/// round-trips are exact.
std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) out += (c == ' ' ? '_' : c);
  return out.empty() ? "unnamed" : out;
}

}  // namespace

void write_graph(std::ostream& out, const Graph& g) {
  out << "graph " << g.node_count() << " " << g.edge_count() << "\n";
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto& ed = g.edge(e);
    out << "e " << ed.u << " " << ed.v << " " << ed.weight << "\n";
  }
}

std::optional<Graph> read_graph(std::istream& in) {
  std::string tag;
  NodeId nodes = 0;
  EdgeId edges = 0;
  if (!(in >> tag >> nodes >> edges) || tag != "graph" || nodes < 0 || edges < 0) {
    return std::nullopt;
  }
  // The header counts are untrusted: every edge line is read and checked
  // before anything is sized by them, and a node count too large to
  // allocate fails the read instead of the process.
  struct Line {
    NodeId u, v;
    Weight w;
  };
  std::vector<Line> lines;
  for (EdgeId i = 0; i < edges; ++i) {
    Line l{0, 0, 0};
    if (!(in >> tag >> l.u >> l.v >> l.w) || tag != "e") return std::nullopt;
    if (l.u < 0 || l.u >= nodes || l.v < 0 || l.v >= nodes || l.u == l.v || l.w < 0) {
      return std::nullopt;
    }
    lines.push_back(l);
  }
  try {
    Graph g(nodes);
    for (const Line& l : lines) g.add_edge(l.u, l.v, l.w);
    return g;
  } catch (const std::bad_alloc&) {
    return std::nullopt;
  }
}

void write_circuit(std::ostream& out, const Circuit& circuit) {
  out << "circuit " << escape(circuit.name) << " " << circuit.rows << " " << circuit.cols
      << " " << circuit.nets.size() << "\n";
  for (const auto& net : circuit.nets) {
    // "cnet" marks timing-critical nets; "net" the rest.
    out << (net.critical ? "cnet " : "net ") << net.pin_count() << " " << net.source.x << " "
        << net.source.y;
    for (const auto& sink : net.sinks) out << " " << sink.x << " " << sink.y;
    out << "\n";
  }
}

std::optional<Circuit> read_circuit(std::istream& in) {
  std::string tag;
  Circuit circuit;
  std::size_t net_count = 0;
  if (!(in >> tag >> circuit.name >> circuit.rows >> circuit.cols >> net_count) ||
      tag != "circuit" || circuit.rows < 1 || circuit.cols < 1) {
    return std::nullopt;
  }
  const auto on_array = [&](const PinRef& p) {
    return p.x >= 0 && p.x < circuit.cols && p.y >= 0 && p.y < circuit.rows;
  };
  // No reserve(net_count): the count is untrusted, and a bogus one must
  // fail on the missing lines, not on the allocation.
  for (std::size_t i = 0; i < net_count; ++i) {
    int pins = 0;
    if (!(in >> tag >> pins) || (tag != "net" && tag != "cnet") || pins < 2) {
      return std::nullopt;
    }
    CircuitNet net;
    net.critical = (tag == "cnet");
    if (!(in >> net.source.x >> net.source.y) || !on_array(net.source)) return std::nullopt;
    for (int p = 1; p < pins; ++p) {
      PinRef sink;
      if (!(in >> sink.x >> sink.y) || !on_array(sink)) return std::nullopt;
      net.sinks.push_back(sink);
    }
    circuit.nets.push_back(std::move(net));
  }
  return circuit;
}

void write_routing_tree(std::ostream& out, const RoutingTree& tree) {
  out << "tree " << tree.edges().size() << "\n";
  for (const EdgeId e : tree.edges()) out << e << "\n";
}

std::optional<RoutingTree> read_routing_tree(std::istream& in, const Graph& g) {
  std::string tag;
  std::size_t count = 0;
  if (!(in >> tag >> count) || tag != "tree") return std::nullopt;
  std::vector<EdgeId> edges;  // not reserved: `count` is untrusted (see read_circuit)
  for (std::size_t i = 0; i < count; ++i) {
    EdgeId e = kInvalidEdge;
    if (!(in >> e) || e < 0 || e >= g.edge_count()) return std::nullopt;
    edges.push_back(e);
  }
  return RoutingTree(g, std::move(edges));
}

bool save_circuit(const std::string& path, const Circuit& circuit) {
  std::ofstream out(path);
  if (!out) return false;
  write_circuit(out, circuit);
  return static_cast<bool>(out);
}

std::optional<Circuit> load_circuit(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  return read_circuit(in);
}

}  // namespace fpr
