#include "fpga/faults.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>

#include "core/contract.hpp"
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

bool parse_int(const std::string& text, int& out) {
  std::uint64_t value = 0;
  if (!line_format::parse_u64(text, value) || value > 1'000'000) return false;
  out = static_cast<int>(value);
  return true;
}

void sort_unique(std::vector<std::int32_t>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

}  // namespace

namespace line_format {

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    if (value > (~std::uint64_t{0} - static_cast<std::uint64_t>(c - '0')) / 10) return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = value;
  return true;
}

std::string format_ids(const std::vector<std::int32_t>& ids) {
  std::ostringstream os;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) os << ',';
    os << ids[i];
  }
  return os.str();
}

bool parse_id_list(const std::string& text, std::vector<std::int32_t>& out) {
  out.clear();
  if (text.empty()) return false;
  std::size_t pos = 0;
  while (true) {
    const std::size_t comma = text.find(',', pos);
    const std::string token =
        comma == std::string::npos ? text.substr(pos) : text.substr(pos, comma - pos);
    std::uint64_t value = 0;
    if (!parse_u64(token, value)) return false;
    if (value > static_cast<std::uint64_t>(std::numeric_limits<std::int32_t>::max())) {
      return false;
    }
    out.push_back(static_cast<std::int32_t>(value));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return true;
}

}  // namespace line_format

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

std::string FaultEvent::describe() const {
  std::ostringstream os;
  os << "event";
  if (!dead_wires.empty()) os << " wires=" << line_format::format_ids(dead_wires);
  if (!dead_edges.empty()) os << " edges=" << line_format::format_ids(dead_edges);
  return os.str();
}

std::optional<FaultEvent> FaultEvent::parse(const std::string& line) {
  std::istringstream is(line);
  std::string tag;
  if (!(is >> tag) || tag != "event") return std::nullopt;
  FaultEvent event;
  std::string token;
  while (is >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    bool ok = false;
    if (key == "wires") {
      ok = line_format::parse_id_list(value, event.dead_wires);
    } else if (key == "edges") {
      ok = line_format::parse_id_list(value, event.dead_edges);
    } else {
      // Unknown keys are accepted (and ignored), same growth policy as
      // FaultSpec::parse.
      ok = true;
    }
    if (!ok) return std::nullopt;
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
  std::istringstream is(line);
  std::string tag;
  if (!(is >> tag) || tag != "faults") return std::nullopt;
  FaultSpec spec;
  std::string token;
  while (is >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    bool ok = false;
    if (key == "seed") {
      ok = line_format::parse_u64(value, spec.seed);
    } else if (key == "wires") {
      ok = parse_int(value, spec.wire_permille);
    } else if (key == "switches") {
      ok = parse_int(value, spec.switch_permille);
    } else if (key == "pins") {
      ok = parse_int(value, spec.pin_permille);
    } else if (key == "clusters") {
      ok = parse_int(value, spec.clusters);
    } else if (key == "radius") {
      ok = parse_int(value, spec.cluster_radius);
    } else {
      // Unknown keys are accepted (and ignored) so the format can grow
      // without breaking old replay tooling.
      ok = true;
    }
    if (!ok) return std::nullopt;
  }
  if (!spec.valid()) return std::nullopt;
  return spec;
}

FaultModel FaultModel::draw(const Device& device, const FaultSpec& spec) {
  FPR_CHECK(spec.valid(), "FaultModel::draw: invalid spec " << spec.describe());
  FaultModel model;
  model.spec_ = spec;

  const Graph& g = device.graph();
  const NodeId wire_base = device.block_count();

  // Stuck-open wire segments.
  if (spec.wire_permille > 0) {
    const std::uint64_t stream = wire_stream(spec.seed);
    for (NodeId v = wire_base; v < g.node_count(); ++v) {
      if (hit(stream, static_cast<std::uint64_t>(v), spec.wire_permille)) {
        model.dead_wires_.push_back(v);
      }
    }
  }

  // Dead connection-block pins and switchbox connections, split by the
  // device's edge-id boundary.
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (device.is_connection_edge(e)) {
      if (spec.pin_permille > 0 &&
          hit(pin_stream(spec.seed), static_cast<std::uint64_t>(e), spec.pin_permille)) {
        model.dead_edges_.push_back(e);
      }
    } else if (spec.switch_permille > 0 &&
               hit(switch_stream(spec.seed), static_cast<std::uint64_t>(e),
                   spec.switch_permille)) {
      model.dead_edges_.push_back(e);
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
        if (std::max(dx, dy) <= spec.cluster_radius) model.dead_wires_.push_back(v);
      }
    }
  }

  const auto dedupe = [](auto& ids) {
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  };
  dedupe(model.dead_wires_);
  dedupe(model.dead_edges_);
  return model;
}

bool FaultModel::wire_faulted(NodeId v) const {
  return std::binary_search(dead_wires_.begin(), dead_wires_.end(), v);
}

bool FaultModel::edge_faulted(EdgeId e) const {
  return std::binary_search(dead_edges_.begin(), dead_edges_.end(), e);
}

}  // namespace fpr
