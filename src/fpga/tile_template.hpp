#pragma once

#include <cstdint>
#include <memory>

#include "fpga/arch.hpp"
#include "graph/tiled_topology.hpp"

namespace fpr {

/// Tile-template compiler (DESIGN.md §12): derives a TiledTopology for a
/// device spec by *learning* the template from the legacy builder instead of
/// hand-deriving closed forms.
///
/// For each architecture family (switch pattern, Fc rule, channel width)
/// the compiler builds five small legacy sample devices, fits every
/// boundary-class pattern's node/edge ids as affine functions of the tile
/// coordinates within each sample, fits those coefficients bilinearly
/// across sample sizes (exact integer differences — no rounding anywhere),
/// and then verifies the result by byte-comparing a synthesized device
/// against a held-out legacy build at a fifth size: every node's incident
/// list (edge ids, neighbor ids, order, weights) must match exactly. Only a fully verified template is ever returned; any
/// mismatch, or a device too small to classify, falls back to the legacy
/// builder — which remains the specification (see the retention note in
/// DESIGN.md §12).
///
/// Templates are cached per family (sizes sharing a family reuse one
/// symbolic template; instantiation at concrete dimensions is cheap), so
/// the min-channel-width search pays one compile per probed width and
/// repeated devices of one width pay none.
///
/// Returns nullptr when the spec is too small for the template's boundary
/// classification or when compilation/verification fails; callers must then
/// use the legacy builder.
std::shared_ptr<const TiledTopology> tiled_topology_for(const ArchSpec& spec);

/// Process-wide compiler counters (for tests and benches).
struct TileTemplateStats {
  std::int64_t compiles = 0;          // template compilations attempted
  std::int64_t compile_failures = 0;  // compilations that failed verification
  std::int64_t cache_hits = 0;        // requests served from the family cache
  std::int64_t instantiations = 0;    // topologies stamped from a template
  std::int64_t fallbacks = 0;         // requests answered "use the legacy builder"
};
TileTemplateStats tile_template_stats();

}  // namespace fpr
