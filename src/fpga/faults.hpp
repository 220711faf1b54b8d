#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/types.hpp"

namespace fpr {

class Device;

/// Declarative description of a defect distribution for one device —
/// the knobs of the fault-injection layer (ISSUE 4; cf. VTR's per-resource
/// availability and the defect-tolerant 130nm FPGA of PAPERS.md).
///
/// All rates are integral per-mille (0..1000) rather than doubles so that
/// the one-line serialization below round-trips exactly and committed
/// sweep records stay byte-identical across platforms. Sampling is
/// per-element splitmix64 hashing (core/rng.hpp) keyed by (seed, salt,
/// element id): whether a given wire or switch is dead depends only on the
/// spec and the element's id, never on iteration order. That id-keying is
/// also what makes draws builder-independent: the tile-template stamper
/// (DESIGN.md §12) assigns every node and edge the same id the legacy
/// per-element builder did, so a spec induces the identical defect set on
/// a stamped device — pinned by the device differential suite.
struct FaultSpec {
  std::uint64_t seed = 1;
  int wire_permille = 0;    // stuck-open wire segments (per-mille of wire nodes)
  int switch_permille = 0;  // dead switchbox connections (per-mille of SB edges)
  int pin_permille = 0;     // dead connection-block pins (per-mille of CB edges)
  int clusters = 0;         // clustered tile/channel outages (fab defects)
  int cluster_radius = 1;   // Chebyshev radius of each cluster, in tiles

  /// True when this spec can inject at least one fault category.
  bool any() const {
    return wire_permille > 0 || switch_permille > 0 || pin_permille > 0 || clusters > 0;
  }

  /// True when every field is in its legal range (rates in [0, 1000],
  /// non-negative cluster geometry).
  bool valid() const;

  /// One-line record (core/line_format.hpp), the replay format:
  ///   faults seed=7 wires=25 switches=10 pins=5 clusters=1 radius=2
  std::string describe() const;
  static std::optional<FaultSpec> parse(const std::string& line);

  friend bool operator==(const FaultSpec&, const FaultSpec&) = default;
};

/// A concrete defect set: the wire nodes and edges that are dead. It is
/// the one type for both fault layers. draw_faults() returns the set a
/// FaultSpec induces before routing, which Device::install_faults keeps;
/// a live event names elements that just died mid-service against an
/// *already-routed* device ("this wire broke, that switch fused"), the
/// unit the incremental repair engine (router/repair.hpp) consumes, and
/// Device::apply_fault_event applies it without disturbing the routing
/// state already committed.
///
/// Both lists are kept sorted and unique: normalize() enforces it after
/// hand-assembly, parse() and draw_faults() return normalized sets, and
/// the membership tests below assume it. That also makes describe()
/// canonical — equal sets serialize to equal lines, which the repair
/// journal's replay bit-identity contract relies on.
struct FaultEvent {
  std::vector<NodeId> dead_wires;  // sorted, unique wire-node ids
  std::vector<EdgeId> dead_edges;  // sorted, unique edge ids

  bool empty() const { return dead_wires.empty() && dead_edges.empty(); }
  int fault_count() const { return static_cast<int>(dead_wires.size() + dead_edges.size()); }

  /// Sorts and dedupes both lists (idempotent).
  void normalize();

  /// Binary-search membership; lists must be normalized.
  bool wire_faulted(NodeId v) const;
  bool edge_faulted(EdgeId e) const;

  /// Set-union of `other` into this event; both stay normalized.
  void merge(const FaultEvent& other);

  /// One-line record (core/line_format.hpp), the journal/replay format.
  /// Empty categories are omitted:
  ///   event wires=12,40 edges=7
  std::string describe() const;
  static std::optional<FaultEvent> parse(const std::string& line);

  /// The ` wires=... edges=...` fields of describe(), which RepairEvent
  /// lines carry too.
  std::string fields() const;

  /// Reads one `wires=`/`edges=` field into this event; any other key is
  /// accepted and ignored. Call normalize() after the last field.
  bool read_field(std::string_view key, std::string_view value);

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// Samples the defect set `spec` induces on `device` (in any state — only
/// its topology is read). Deterministic by construction: the set depends
/// only on (spec, device topology), so the same seed yields the same
/// faults on every platform, which is what makes fault repros replayable
/// and the fault sweep's committed JSON stable. FPR_CHECKs spec.valid().
FaultEvent draw_faults(const Device& device, const FaultSpec& spec);

}  // namespace fpr
