// Incremental ECO repair (router/repair, router/journal): cone edge cases
// from DESIGN.md §14 — zero-touch events are byte-stable no-ops, killing a
// net's only paths degrades it to kBlockedByFault without touching the
// complement, overlapping deltas rip each cone net exactly once — plus
// event/outcome/journal serialization round-trips, and journal replay
// reconstruction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "check/oracles.hpp"
#include "core/metrics.hpp"
#include "fpga/device.hpp"
#include "router/journal.hpp"
#include "router/repair.hpp"
#include "router/router.hpp"

namespace fpr {
namespace {

Circuit small_circuit() {
  Circuit c;
  c.name = "repair-unit";
  c.rows = 4;
  c.cols = 4;
  c.nets.push_back({{0, 0}, {{3, 3}}});
  c.nets.push_back({{0, 3}, {{3, 0}, {2, 2}}});
  c.nets.push_back({{1, 1}, {{2, 1}, {1, 2}, {3, 2}}});
  c.nets.push_back({{0, 1}, {{0, 2}}});
  return c;
}

RouterOptions repair_options() {
  RouterOptions options;
  options.record_commits = true;
  return options;
}

/// Field-by-field equality over everything the determinism contract
/// promises (same helper as fault_routing_test.cpp; spelling the fields
/// out localizes a failure to the field that diverged).
void expect_identical(const RoutingResult& a, const RoutingResult& b) {
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.passes, b.passes);
  EXPECT_EQ(a.failed_nets, b.failed_nets);
  EXPECT_EQ(a.total_wirelength, b.total_wirelength);
  EXPECT_EQ(a.total_wire_nodes, b.total_wire_nodes);
  EXPECT_EQ(a.nets_rerouted_around_faults, b.nets_rerouted_around_faults);
  EXPECT_EQ(a.nets_blocked_by_fault, b.nets_blocked_by_fault);
  EXPECT_EQ(a.nets_aborted_budget, b.nets_aborted_budget);
  EXPECT_EQ(a.detour_wirelength_overhead, b.detour_wirelength_overhead);
  EXPECT_EQ(a.work_used, b.work_used);
  EXPECT_EQ(a.budget_exhausted, b.budget_exhausted);
  ASSERT_EQ(a.nets.size(), b.nets.size());
  for (std::size_t i = 0; i < a.nets.size(); ++i) {
    EXPECT_EQ(a.nets[i], b.nets[i]) << "net " << i;
  }
  EXPECT_EQ(a.net_order, b.net_order);
  ASSERT_EQ(a.commit_logs.size(), b.commit_logs.size());
  for (std::size_t i = 0; i < a.commit_logs.size(); ++i) {
    EXPECT_EQ(a.commit_logs[i], b.commit_logs[i]) << "commit log " << i;
  }
}

/// A wire segment no routed net committed and no event killed — the kind a
/// zero-touch event targets. Scans wire node ids from the top (the widened
/// channel guarantees spares).
NodeId find_unused_wire(const Device& device, const RoutingResult& result) {
  std::vector<NodeId> used;
  for (const NetCommitLog& log : result.commit_logs) {
    used.insert(used.end(), log.wires.begin(), log.wires.end());
  }
  std::sort(used.begin(), used.end());
  const NodeId first_wire = device.graph().node_count() - device.wire_count();
  for (NodeId v = device.graph().node_count(); v-- > first_wire;) {
    if (!std::binary_search(used.begin(), used.end(), v) && device.graph().node_active(v)) {
      return v;
    }
  }
  return kInvalidNode;
}

class RepairTest : public ::testing::Test {
 protected:
  // Tests below assert exact counter deltas, so start from zero.
  void SetUp() override { counters().reset(); }
};

TEST_F(RepairTest, RepairEventSerializationRoundTrips) {
  RepairEvent ev;
  ev.faults.dead_wires = {40, 12, 12};  // normalize() sorts + dedups
  ev.faults.dead_edges = {7};
  ev.changed.push_back({2, CircuitNet{{0, 1}, {{3, 2}}}});
  ev.added.push_back(CircuitNet{{0, 0}, {{2, 2}}, true});
  ev.removed = {5};
  ev.budget = 50'000;
  ev.faults.normalize();

  const std::string line = ev.describe();
  const auto parsed = RepairEvent::parse(line);
  ASSERT_TRUE(parsed.has_value()) << line;
  EXPECT_EQ(*parsed, ev);

  // Empty categories are omitted, and an all-empty event still round-trips.
  RepairEvent none;
  const auto reparsed = RepairEvent::parse(none.describe());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_TRUE(reparsed->empty());

  // Garbage is rejected, not misparsed.
  EXPECT_FALSE(RepairEvent::parse("outcome cone=1").has_value());
  EXPECT_FALSE(RepairEvent::parse("repair wires=1,,2").has_value());
  EXPECT_FALSE(RepairEvent::parse("repair changed=x@0.0:1.1").has_value());
}

TEST_F(RepairTest, RepairOutcomeSerializationRoundTrips) {
  RepairOutcome out;
  out.cone_nets = 3;
  out.repaired = 2;
  out.degraded = 1;
  out.aborted = 0;
  out.budget_used = 1234;
  out.detour_overhead = 4;
  EXPECT_FALSE(out.clean());
  const auto parsed = RepairOutcome::parse(out.describe());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, out);
  EXPECT_TRUE(RepairOutcome{}.clean());
  EXPECT_FALSE(RepairOutcome::parse("repair wires=1").has_value());
}

TEST_F(RepairTest, DeviceEventOverlaySurvivesReset) {
  Device device(ArchSpec::xc4000(4, 4, 4));
  const NodeId wire = device.wire_node(Device::Dir::kHorizontal, 1, 1, 0);
  FaultEvent ev;
  ev.dead_wires = {wire};
  device.apply_fault_event(ev);
  EXPECT_FALSE(device.graph().node_active(wire));
  EXPECT_TRUE(device.event_wire_faulted(wire));

  // reset() re-applies the overlay: the element stays dead forever.
  device.reset();
  EXPECT_FALSE(device.graph().node_active(wire));
  EXPECT_TRUE(device.has_fault_events());

  // clear_fault_events() is the only way back.
  device.clear_fault_events();
  device.reset();
  EXPECT_TRUE(device.graph().node_active(wire));
  EXPECT_FALSE(device.has_fault_events());
}

TEST_F(RepairTest, ZeroTouchEventIsByteStableNoOp) {
  const ArchSpec arch = ArchSpec::xc4000(4, 4, 6);
  Circuit circuit = small_circuit();
  Device device(arch);
  const RouterOptions options = repair_options();
  RoutingResult result = route_circuit(device, circuit, options);
  ASSERT_TRUE(result.success);

  const NodeId spare = find_unused_wire(device, result);
  ASSERT_NE(spare, kInvalidNode);
  RepairEvent ev;
  ev.faults.dead_wires = {spare};

  // An unused wire has no owner and (in paper mode) its tile siblings may
  // still belong to nets — the cone contract says sibling OWNERS re-route.
  // Pick a spare whose whole tile is unowned so the cone is empty; the
  // widened channel always leaves such a tile on this circuit.
  const RoutingResult before = result;
  const Circuit circuit_before = circuit;
  const auto cone = repair_cone(device, result, ev.faults);
  if (!cone.empty()) GTEST_SKIP() << "no fully spare tile at this width";

  const RepairOutcome out = repair_route(device, circuit, result, ev, options);
  EXPECT_EQ(out.cone_nets, 0);
  EXPECT_EQ(out.repaired, 0);
  EXPECT_EQ(out.budget_used, 0);
  EXPECT_TRUE(out.clean());
  expect_identical(before, result);
  EXPECT_EQ(circuit_before.nets, circuit.nets);
  EXPECT_EQ(counters().repair_nets_ripped.load(), 0u);
  // The overlay is live even though no net moved.
  EXPECT_FALSE(device.graph().node_active(spare));
}

TEST_F(RepairTest, OnlyPathKilledDegradesToBlockedComplementUntouched) {
  const ArchSpec arch = ArchSpec::xc4000(4, 4, 5);
  Circuit circuit = small_circuit();
  Device device(arch);
  const RouterOptions options = repair_options();
  RoutingResult result = route_circuit(device, circuit, options);
  ASSERT_TRUE(result.success);

  // Kill every wire adjacent to net 0's sink block (3, 3): with all of its
  // connection-block tracks dead there is no path at all.
  const NodeId sink_block = device.block_node(3, 3);
  RepairEvent ev;
  for (const EdgeId e : device.graph().incident_edges(sink_block)) {
    const NodeId v = device.graph().other_end(e, sink_block);
    if (device.is_wire(v)) ev.faults.dead_wires.push_back(v);
  }
  ev.faults.normalize();
  ASSERT_FALSE(ev.faults.dead_wires.empty());

  const RoutingResult before = result;
  const auto cone = repair_cone(device, result, ev.faults);
  ASSERT_TRUE(std::binary_search(cone.begin(), cone.end(), std::size_t{0}));

  const RepairOutcome out = repair_route(device, circuit, result, ev, options);
  EXPECT_EQ(out.cone_nets, static_cast<int>(cone.size()));
  EXPECT_EQ(out.degraded, 1);
  EXPECT_EQ(out.aborted, 0);
  EXPECT_EQ(out.repaired, out.cone_nets - 1);

  // The walled-off net is classified, not silently dropped.
  EXPECT_EQ(result.nets[0].status, NetStatus::kBlockedByFault);
  EXPECT_TRUE(result.nets[0].edges.empty());
  EXPECT_NE(result.nets[0].blocked_sink, kInvalidNode);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.failed_nets, 1);
  EXPECT_EQ(result.nets_blocked_by_fault, 1);

  // Every net outside the cone is byte-stable, record and commit log both.
  for (std::size_t i = 0; i < result.nets.size(); ++i) {
    if (std::binary_search(cone.begin(), cone.end(), i)) continue;
    EXPECT_EQ(result.nets[i], before.nets[i]) << "net " << i;
    EXPECT_EQ(result.commit_logs[i], before.commit_logs[i]) << "net " << i;
  }

  // The degraded state replays clean through the defect-aware oracle with
  // the event overlay installed.
  const auto check =
      check::check_routing_feasibility(arch, circuit, result, options, nullptr, &ev.faults);
  EXPECT_TRUE(check.ok()) << check.message();
}

TEST_F(RepairTest, OverlappingDeltasRipEachConeNetOnce) {
  const ArchSpec arch = ArchSpec::xc4000(4, 4, 6);
  Circuit circuit = small_circuit();
  Device device(arch);
  const RouterOptions options = repair_options();
  RoutingResult result = route_circuit(device, circuit, options);
  ASSERT_TRUE(result.success);
  ASSERT_FALSE(result.commit_logs[1].wires.empty());

  // One event where the same nets appear through multiple delta categories:
  // net 1 is hit by a dead wire AND has a changed pin set; net 3 is hit by
  // the same fault's sibling expansion (if adjacent) AND removed. The cone
  // is the union — each member ripped exactly once.
  RepairEvent ev;
  ev.faults.dead_wires = {result.commit_logs[1].wires.front()};
  ev.changed.push_back({1, CircuitNet{{0, 3}, {{3, 0}}}});
  ev.removed = {3};

  const RepairOutcome out = repair_route(device, circuit, result, ev, options);
  EXPECT_GE(out.cone_nets, 2);
  EXPECT_EQ(counters().repair_nets_ripped.load(), static_cast<std::uint64_t>(out.cone_nets));
  EXPECT_EQ(counters().repair_events.load(), 1u);

  // The changed net re-routed against its new pin set; the removed net
  // degenerated in place (index stability: still slot 3, zero wires).
  EXPECT_EQ(circuit.nets[1].sinks.size(), 1u);
  EXPECT_EQ(result.nets[1].status, NetStatus::kRouted);
  EXPECT_TRUE(circuit.nets[3].sinks.empty());
  EXPECT_EQ(result.nets[3].status, NetStatus::kRouted);
  EXPECT_EQ(result.nets[3].wire_nodes_used, 0);
  EXPECT_TRUE(result.commit_logs[3].wires.empty());
  EXPECT_EQ(circuit.nets.size(), 4u);

  const auto check =
      check::check_routing_feasibility(arch, circuit, result, options, nullptr, &ev.faults);
  EXPECT_TRUE(check.ok()) << check.message();
}

TEST_F(RepairTest, AddedNetsRouteAndExtendTheResultVector) {
  const ArchSpec arch = ArchSpec::xc4000(4, 4, 6);
  Circuit circuit = small_circuit();
  Device device(arch);
  const RouterOptions options = repair_options();
  RoutingResult result = route_circuit(device, circuit, options);
  ASSERT_TRUE(result.success);

  RepairEvent ev;
  ev.added.push_back(CircuitNet{{2, 0}, {{0, 2}, {2, 3}}});
  ev.added.push_back(CircuitNet{{3, 1}, {{1, 3}}, true});

  const RepairOutcome out = repair_route(device, circuit, result, ev, options);
  EXPECT_EQ(out.cone_nets, 2);
  EXPECT_EQ(out.repaired, 2);
  EXPECT_TRUE(out.clean());
  ASSERT_EQ(circuit.nets.size(), 6u);
  ASSERT_EQ(result.nets.size(), 6u);
  ASSERT_EQ(result.commit_logs.size(), 6u);
  EXPECT_EQ(result.nets[4].status, NetStatus::kRouted);
  EXPECT_EQ(result.nets[5].status, NetStatus::kRouted);
  EXPECT_TRUE(result.success);

  const auto check = check::check_routing_feasibility(arch, circuit, result, options);
  EXPECT_TRUE(check.ok()) << check.message();
}

TEST_F(RepairTest, JournalSerializationAndFileRoundTrip) {
  RepairJournal journal;
  JournalEntry first;
  first.event.faults.dead_wires = {17, 80};
  first.event.budget = 9'000;
  first.outcome.cone_nets = first.outcome.repaired = 2;
  first.outcome.budget_used = 812;
  journal.append(first.event, first.outcome);
  JournalEntry second;
  second.event.removed = {1};
  second.outcome.cone_nets = 1;
  second.outcome.repaired = 1;
  journal.append(second.event, second.outcome);

  const auto parsed = RepairJournal::parse(journal.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, journal);

  const std::string path = ::testing::TempDir() + "repair_journal_roundtrip.fpr";
  ASSERT_TRUE(journal.save(path));
  const auto loaded = RepairJournal::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, journal);
  std::remove(path.c_str());

  // A truncated journal (event line without its outcome) is rejected.
  std::string text = journal.serialize();
  text.resize(text.rfind("outcome"));
  EXPECT_FALSE(RepairJournal::parse(text).has_value());
  EXPECT_FALSE(RepairJournal::parse("not a journal\n").has_value());
}

TEST_F(RepairTest, JournalReplayReconstructsExactState) {
  const ArchSpec arch = ArchSpec::xc4000(4, 4, 5);
  const Circuit seed = small_circuit();
  const RouterOptions options = repair_options();

  // Live service: route, then two events, journaling each outcome.
  Device device(arch);
  Circuit circuit = seed;
  RoutingResult result = route_circuit(device, circuit, options);
  ASSERT_TRUE(result.success);
  RepairJournal journal;
  {
    JournalEntry e;
    e.event.faults.dead_wires = {result.commit_logs[2].wires.front()};
    e.event.faults.normalize();
    e.outcome = repair_route(device, circuit, result, e.event, options);
    journal.append(e.event, e.outcome);
  }
  {
    JournalEntry e;
    e.event.added.push_back(CircuitNet{{2, 0}, {{1, 3}}});
    e.event.removed = {0};
    e.outcome = repair_route(device, circuit, result, e.event, options);
    journal.append(e.event, e.outcome);
  }

  // (seed circuit + journal) on a fresh device == the live state, bit for
  // bit — the checkpoint/replay guarantee. The journal text itself is the
  // checkpoint, so replay goes through serialize/parse first.
  const auto reparsed = RepairJournal::parse(journal.serialize());
  ASSERT_TRUE(reparsed.has_value());
  Device fresh(arch);
  const JournalReplayResult replay = replay_journal(fresh, seed, options, *reparsed);
  EXPECT_TRUE(replay.ok) << replay.error;
  EXPECT_EQ(replay.circuit.nets, circuit.nets);
  expect_identical(replay.result, result);
  ASSERT_EQ(replay.outcomes.size(), 2u);
  EXPECT_EQ(replay.outcomes[0], journal.entries()[0].outcome);
  EXPECT_EQ(replay.outcomes[1], journal.entries()[1].outcome);
}

TEST_F(RepairTest, RepairOracleCleanOnDeterministicScenario) {
  // End-to-end: the kRepair oracle (cone re-derivation, byte-stability,
  // rip-up arithmetic, feasibility, journal replay) accepts a healthy
  // engine on a multi-event scenario in both router modes.
  const ArchSpec arch = ArchSpec::xc4000(4, 4, 5);
  const Circuit seed = small_circuit();

  for (const bool negotiated : {false, true}) {
    RouterOptions options;
    options.mode = negotiated ? RouterMode::kNegotiated : RouterMode::kPaper;

    // Derive events against a probe route so wire ids name real resources.
    RouterOptions probe_options = options;
    probe_options.record_commits = true;
    Device probe(arch);
    Circuit probe_circuit = seed;
    const RoutingResult probe_route = route_circuit(probe, probe_circuit, probe_options);
    ASSERT_TRUE(probe_route.success);

    std::vector<RepairEvent> events(3);
    events[0].faults.dead_wires = {probe_route.commit_logs[0].wires.front(),
                                   probe_route.commit_logs[1].wires.back()};
    events[0].faults.normalize();
    events[1].changed.push_back({2, CircuitNet{{1, 1}, {{3, 2}}}});
    events[1].added.push_back(CircuitNet{{0, 2}, {{2, 0}}});
    events[2].removed = {1};
    events[2].budget = 500'000;

    const auto check = check::check_repair(arch, seed, options, nullptr, events);
    EXPECT_TRUE(check.ok()) << (negotiated ? "negotiated: " : "paper: ") << check.message();
  }
}

}  // namespace
}  // namespace fpr
