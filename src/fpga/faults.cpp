#include "fpga/faults.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>

#include "core/contract.hpp"
#include "core/line_format.hpp"
#include "core/rng.hpp"
#include "fpga/device.hpp"

namespace fpr {
namespace {

/// Per-category hash salts. Separate streams per fault category keep each
/// knob independent: raising the switch rate never changes which wires die.
std::uint64_t wire_stream(std::uint64_t seed) { return mix64(seed ^ salt64("faults.wires")); }
std::uint64_t switch_stream(std::uint64_t seed) { return mix64(seed ^ salt64("faults.switches")); }
std::uint64_t pin_stream(std::uint64_t seed) { return mix64(seed ^ salt64("faults.pins")); }
std::uint64_t cluster_stream(std::uint64_t seed) { return mix64(seed ^ salt64("faults.clusters")); }

/// Element-local Bernoulli(permille/1000) draw: depends only on the stream
/// key and the element's id, so the sample is iteration-order independent.
bool hit(std::uint64_t stream, std::uint64_t id, int permille) {
  return static_cast<int>(mix64(stream, id) % 1000) < permille;
}

void sort_unique(std::vector<std::int32_t>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

}  // namespace

void FaultEvent::normalize() {
  sort_unique(dead_wires);
  sort_unique(dead_edges);
}

bool FaultEvent::wire_faulted(NodeId v) const {
  return std::binary_search(dead_wires.begin(), dead_wires.end(), v);
}

bool FaultEvent::edge_faulted(EdgeId e) const {
  return std::binary_search(dead_edges.begin(), dead_edges.end(), e);
}

void FaultEvent::merge(const FaultEvent& other) {
  dead_wires.insert(dead_wires.end(), other.dead_wires.begin(), other.dead_wires.end());
  dead_edges.insert(dead_edges.end(), other.dead_edges.begin(), other.dead_edges.end());
  normalize();
}

std::string FaultEvent::fields() const {
  std::string out;
  if (!dead_wires.empty()) out += " wires=" + line_format::format_ids(dead_wires);
  if (!dead_edges.empty()) out += " edges=" + line_format::format_ids(dead_edges);
  return out;
}

std::string FaultEvent::describe() const { return "event" + fields(); }

bool FaultEvent::read_field(std::string_view key, std::string_view value) {
  if (key == "wires") return line_format::parse_id_list(value, dead_wires);
  if (key == "edges") return line_format::parse_id_list(value, dead_edges);
  return true;
}

std::optional<FaultEvent> FaultEvent::parse(const std::string& line) {
  FaultEvent event;
  if (!line_format::read_record(line, "event", [&](std::string_view key, std::string_view value) {
        return event.read_field(key, value);
      })) {
    return std::nullopt;
  }
  event.normalize();
  return event;
}

bool FaultSpec::valid() const {
  const auto rate_ok = [](int permille) { return permille >= 0 && permille <= 1000; };
  return rate_ok(wire_permille) && rate_ok(switch_permille) && rate_ok(pin_permille) &&
         clusters >= 0 && cluster_radius >= 0;
}

std::string FaultSpec::describe() const {
  std::ostringstream os;
  os << "faults seed=" << seed << " wires=" << wire_permille << " switches=" << switch_permille
     << " pins=" << pin_permille << " clusters=" << clusters << " radius=" << cluster_radius;
  return os.str();
}

std::optional<FaultSpec> FaultSpec::parse(const std::string& line) {
  FaultSpec spec;
  const bool read = line_format::read_record(line, "faults", [&](std::string_view key,
                                                                std::string_view value) {
    if (key == "seed") return line_format::parse_uint(value, spec.seed);
    if (key == "wires") return line_format::parse_uint(value, spec.wire_permille);
    if (key == "switches") return line_format::parse_uint(value, spec.switch_permille);
    if (key == "pins") return line_format::parse_uint(value, spec.pin_permille);
    if (key == "clusters") return line_format::parse_uint(value, spec.clusters);
    if (key == "radius") return line_format::parse_uint(value, spec.cluster_radius);
    return true;
  });
  if (!read || !spec.valid()) return std::nullopt;
  return spec;
}

FaultEvent draw_faults(const Device& device, const FaultSpec& spec) {
  FPR_CHECK(spec.valid(), "draw_faults: invalid spec " << spec.describe());
  FaultEvent faults;

  const Graph& g = device.graph();
  const NodeId wire_base = device.block_count();

  // Stuck-open wire segments.
  if (spec.wire_permille > 0) {
    const std::uint64_t stream = wire_stream(spec.seed);
    for (NodeId v = wire_base; v < g.node_count(); ++v) {
      if (hit(stream, static_cast<std::uint64_t>(v), spec.wire_permille)) {
        faults.dead_wires.push_back(v);
      }
    }
  }

  // Dead connection-block pins and switchbox connections, split by the
  // device's edge-id boundary.
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (device.is_connection_edge(e)) {
      if (spec.pin_permille > 0 &&
          hit(pin_stream(spec.seed), static_cast<std::uint64_t>(e), spec.pin_permille)) {
        faults.dead_edges.push_back(e);
      }
    } else if (spec.switch_permille > 0 &&
               hit(switch_stream(spec.seed), static_cast<std::uint64_t>(e),
                   spec.switch_permille)) {
      faults.dead_edges.push_back(e);
    }
  }

  // Clustered outages: each cluster kills every wire segment whose channel
  // tile lies within a Chebyshev ball around a hashed center — the
  // localized fabrication-defect case (a bad tile takes out its whole
  // neighborhood of channels, not scattered independent segments).
  if (spec.clusters > 0) {
    const std::uint64_t stream = cluster_stream(spec.seed);
    const int cols = device.spec().cols;
    const int rows = device.spec().rows;
    for (int k = 0; k < spec.clusters; ++k) {
      const auto id = static_cast<std::uint64_t>(k);
      const int cx = static_cast<int>(mix64(stream, id * 2) % static_cast<std::uint64_t>(cols));
      const int cy =
          static_cast<int>(mix64(stream, id * 2 + 1) % static_cast<std::uint64_t>(rows));
      for (NodeId v = wire_base; v < g.node_count(); ++v) {
        const Device::WireRef ref = device.wire_ref(v);
        const int dx = ref.x > cx ? ref.x - cx : cx - ref.x;
        const int dy = ref.y > cy ? ref.y - cy : cy - ref.y;
        if (std::max(dx, dy) <= spec.cluster_radius) faults.dead_wires.push_back(v);
      }
    }
  }

  faults.normalize();
  return faults;
}

}  // namespace fpr
