#include "io/text_io.hpp"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstdlib>
#include <sstream>

#include "graph/grid.hpp"
#include "netlist/synth.hpp"
#include "steiner/kmb.hpp"

namespace fpr {
namespace {

TEST(TextIoTest, GraphRoundTrip) {
  Graph g(4);
  g.add_edge(0, 1, 1.5);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 3, 0.25);
  std::stringstream buffer;
  write_graph(buffer, g);
  const auto back = read_graph(buffer);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->node_count(), 4);
  ASSERT_EQ(back->edge_count(), 3);
  for (EdgeId e = 0; e < 3; ++e) {
    EXPECT_EQ(back->edge(e).u, g.edge(e).u);
    EXPECT_EQ(back->edge(e).v, g.edge(e).v);
    EXPECT_DOUBLE_EQ(back->edge_weight(e), g.edge_weight(e));
  }
}

TEST(TextIoTest, GraphRejectsMalformedInput) {
  const char* bad[] = {
      "",                       // empty
      "graph 2",                // truncated header
      "graph 2 1\ne 0 5 1.0",   // endpoint out of range
      "graph 2 1\ne 0 0 1.0",   // self loop
      "graph 2 1\ne 0 1 -2.0",  // negative weight
      "nope 2 0",               // wrong tag
  };
  for (const char* text : bad) {
    std::stringstream buffer(text);
    EXPECT_FALSE(read_graph(buffer).has_value()) << text;
  }
}

/// Caps the address space at 1 GiB, reads a header claiming two billion
/// nodes, and exits 0 iff the read was rejected.
[[noreturn]] void read_huge_header_under_a_cap() {
  constexpr rlim_t kCap = rlim_t{1} << 30;
  rlimit cap{};
  cap.rlim_cur = kCap;
  cap.rlim_max = kCap;
  if (setrlimit(RLIMIT_AS, &cap) != 0) std::exit(2);
  std::stringstream buffer("graph 2000000000 0");
  std::exit(read_graph(buffer).has_value() ? 1 : 0);
}

TEST(TextIoTest, GraphHeaderTooLargeToAllocateIsRejected) {
  // The node count is a header field: a bogus one must fail the read, not
  // the process. The child caps its address space so that the allocation
  // fails at once. Address-space caps and ASan's shadow memory exclude each
  // other, so the sanitizer job filters this case out.
  EXPECT_EXIT(read_huge_header_under_a_cap(), ::testing::ExitedWithCode(0), "");
}

TEST(TextIoTest, CircuitRoundTrip) {
  const Circuit original = synthesize_circuit(xc4000_profiles()[2], 5);
  std::stringstream buffer;
  write_circuit(buffer, original);
  const auto back = read_circuit(buffer);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->name, original.name);
  EXPECT_EQ(back->rows, original.rows);
  EXPECT_EQ(back->cols, original.cols);
  ASSERT_EQ(back->nets.size(), original.nets.size());
  for (std::size_t i = 0; i < original.nets.size(); ++i) {
    EXPECT_EQ(back->nets[i].source, original.nets[i].source);
    EXPECT_EQ(back->nets[i].sinks, original.nets[i].sinks);
  }
}

TEST(TextIoTest, CircuitRejectsOffArrayPins) {
  std::stringstream buffer("circuit t 2 2 1\nnet 2 0 0 5 0\n");
  EXPECT_FALSE(read_circuit(buffer).has_value());
}

TEST(TextIoTest, CircuitRejectsSinglePinNets) {
  std::stringstream buffer("circuit t 2 2 1\nnet 1 0 0\n");
  EXPECT_FALSE(read_circuit(buffer).has_value());
}

// A header count is untrusted: a huge one (or a negative one, which reads
// as a huge unsigned value) must fail on the missing nets, not allocate.
TEST(TextIoTest, CircuitRejectsHugeNetCount) {
  for (const char* text : {"circuit x 4 4 999999999999999999\n",
                           "circuit x 4 4 18446744073709551615\nnet 2 0 0 1 1\n",
                           "circuit x 4 4 -1\nnet 2 0 0 1 1\n"}) {
    std::stringstream buffer(text);
    EXPECT_FALSE(read_circuit(buffer).has_value()) << text;
  }
}

TEST(TextIoTest, NameWithSpacesIsEscaped) {
  Circuit c;
  c.name = "my circuit";
  c.rows = c.cols = 2;
  c.nets.push_back({{0, 0}, {{1, 1}}});
  std::stringstream buffer;
  write_circuit(buffer, c);
  const auto back = read_circuit(buffer);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->name, "my_circuit");
}

TEST(TextIoTest, RoutingTreeRoundTrip) {
  GridGraph grid(6, 6);
  const std::vector<NodeId> net{grid.node_at(0, 0), grid.node_at(5, 3), grid.node_at(2, 5)};
  const RoutingTree tree = kmb(grid.graph(), net);
  std::stringstream buffer;
  write_routing_tree(buffer, tree);
  const auto back = read_routing_tree(buffer, grid.graph());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->edges(), tree.edges());
  EXPECT_DOUBLE_EQ(back->cost(), tree.cost());
}

TEST(TextIoTest, RoutingTreeRejectsBadEdgeIds) {
  GridGraph grid(3, 3);
  std::stringstream buffer("tree 1\n99999\n");
  EXPECT_FALSE(read_routing_tree(buffer, grid.graph()).has_value());
}

TEST(TextIoTest, RoutingTreeRejectsHugeEdgeCount) {
  GridGraph grid(3, 3);
  for (const char* text : {"tree 999999999999999999\n0\n", "tree 18446744073709551615\n0 1\n"}) {
    std::stringstream buffer(text);
    EXPECT_FALSE(read_routing_tree(buffer, grid.graph()).has_value()) << text;
  }
}

TEST(TextIoTest, FileRoundTrip) {
  const Circuit original = synthesize_circuit(xc3000_profiles()[0], 9);
  const std::string path = ::testing::TempDir() + "/fpr_io_test_circuit.net";
  ASSERT_TRUE(save_circuit(path, original));
  const auto back = load_circuit(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->nets.size(), original.nets.size());
  EXPECT_FALSE(load_circuit(path + ".does-not-exist").has_value());
}

}  // namespace
}  // namespace fpr
