#include "fpga/tile_template.hpp"

#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "core/annotations.hpp"
#include "core/contract.hpp"
#include "fpga/device.hpp"
#include "graph/graph.hpp"

namespace fpr {
namespace {

/// Boundary cut width per side on both axes: the outermost kCut rows/columns
/// of every role grid get their own patterns. One cell is what the device
/// perimeter actually perturbs; the second is margin. The full-sample and
/// held-out verification passes would catch a cut that is too narrow.
constexpr int kCut = 2;

/// Classes per axis: kCut low-edge cells, one interior class, kCut high-edge
/// cells.
constexpr int kClasses = 2 * kCut + 1;

/// Smallest dimension a role grid can be fit at: both cuts plus three
/// interior cells — one to anchor, one for the slope, and margin so the
/// slope cell is not itself cut-adjacent. Also the base sample's rows and
/// cols, and so the smallest device a template instantiates at.
constexpr int kMinDim = 2 * kCut + 3;

/// Family-cache bound: cleared wholesale (deterministically) when full.
/// Sixteen families is far beyond any single run's working set — a width
/// search probes ~10 widths of one family.
constexpr std::size_t kCacheCap = 16;

struct RoleGeom {
  int tracks = 1;
  int xdim = 0;
  int ydim = 0;
};

/// Integer function of the sample-grid coordinates (nr, nc), bilinear:
/// g00 + gr*nr + gc*nc + grc*nr*nc. Fit from the four fit samples by plain
/// differences — exact in integers, no divisions, no rounding. nr/nc are
/// the target dims' offsets from the base sample.
struct Lin {
  std::int64_t g00 = 0;
  std::int64_t gr = 0;
  std::int64_t gc = 0;
  std::int64_t grc = 0;

  std::int64_t at(std::int64_t nr, std::int64_t nc) const {
    return g00 + gr * nr + gc * nc + grc * nr * nc;
  }

  static Lin fit(std::int64_t f00, std::int64_t f10, std::int64_t f01, std::int64_t f11) {
    return Lin{f00, f10 - f00, f01 - f00, f11 - f10 - f01 + f00};
  }
};

/// One slot's concrete affine coefficients within a single sample device:
/// field(x, y) = a + dx*x + dy*y.
struct SlotFit {
  std::int64_t nbr_a = 0, nbr_dx = 0, nbr_dy = 0;
  std::int64_t edge_a = 0, edge_dx = 0, edge_dy = 0;
  Weight weight = 1.0;
};

/// The same slot with each coefficient promoted to a bilinear function of
/// the device size.
struct SlotSym {
  Lin nbr_a, nbr_dx, nbr_dy;
  Lin edge_a, edge_dx, edge_dy;
  Weight weight = 1.0;
};

// patterns[role][(yc * xclasses + xc) * tracks + t] -> ordered slot list
template <typename Slot>
using Patterns = std::vector<std::vector<std::vector<Slot>>>;

struct SampleFit {
  Patterns<SlotFit> roles;
  EdgeId edge_count = 0;
};

/// Representative cells of one axis class: c1 is the canonical cell; c2
/// (>= 0 only for the interior class) sits one cell further in, providing
/// the second point the affine slope is fit from.
struct AxisRep {
  int c1 = 0;
  int c2 = -1;
};

AxisRep axis_rep(int dim, int cls) {
  if (cls < kCut) return {cls, -1};
  if (cls > kCut) return {dim - kCut + (cls - kCut - 1), -1};
  return {kCut, kCut + 1};
}

struct Inc {
  NodeId nbr = 0;
  EdgeId e = 0;
  Weight w = 0;
};

void incident_of(const Graph& g, NodeId v, std::vector<Inc>& out) {
  out.clear();
  for (const EdgeId e : g.incident_edges(v)) {
    const Graph::Edge ed = g.edge(e);
    out.push_back({ed.u == v ? ed.v : ed.u, e, ed.weight});
  }
}

std::shared_ptr<const TiledTopology> build_topology(const std::vector<RoleGeom>& geom,
                                                    const Patterns<SlotFit>& fits,
                                                    EdgeId edge_count) {
  auto topo = std::make_shared<TiledTopology>();
  NodeId base = 0;
  for (std::size_t r = 0; r < geom.size(); ++r) {
    const RoleGeom& rg = geom[r];
    TiledRole role;
    role.base = base;
    role.tracks = rg.tracks;
    role.xdim = rg.xdim;
    role.ydim = rg.ydim;
    role.xlo = role.xhi = role.ylo = role.yhi = kCut;
    role.xclasses = role.yclasses = kClasses;
    for (const auto& slots : fits[r]) {
      role.pattern_first.push_back(static_cast<std::uint32_t>(topo->slots.size()));
      role.pattern_count.push_back(static_cast<std::uint32_t>(slots.size()));
      for (const SlotFit& s : slots) {
        topo->slots.push_back(
            TiledSlot{s.nbr_a, s.nbr_dx, s.nbr_dy, s.edge_a, s.edge_dx, s.edge_dy, s.weight});
      }
    }
    base += role.count();
    topo->roles.push_back(std::move(role));
  }
  topo->node_count = base;
  topo->edge_count = edge_count;
  topo->validate();
  return topo;
}

/// The equivalence contract, checked exhaustively: every node's synthesized
/// incident list must equal the legacy graph's — same neighbor ids, same
/// edge ids, same order, same weights.
bool matches_legacy(const TiledTopology& topo, const Graph& g) {
  if (topo.node_count != g.node_count() || topo.edge_count != g.edge_count()) return false;
  bool ok = true;
  std::vector<Inc> legacy;
  topo.for_each_node([&](NodeId v, const TiledTopology::Decoded& d) {
    if (!ok) return;
    incident_of(g, v, legacy);
    std::size_t i = 0;
    topo.apply(d, [&](NodeId nbr, EdgeId e, const TiledSlot& s) {
      if (i >= legacy.size() || legacy[i].nbr != nbr || legacy[i].e != e ||
          legacy[i].w != s.base_weight) {
        ok = false;
      }
      ++i;
    });
    if (i != legacy.size()) ok = false;
  });
  return ok;
}

/// Legacy emission convention the tiled edge decode relies on: every edge's
/// first-emitted endpoint (u) is the smaller id.
bool lower_endpoint_first(const Graph& g) {
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Graph::Edge ed = g.edge(e);
    if (ed.u >= ed.v) return false;
  }
  return true;
}

/// Derives every class pattern of one sample device by affine fitting, then
/// verifies the fit over the *entire* sample grid (not just the reference
/// cells). Returns false — caller falls back to legacy — on any mismatch.
bool fit_sample(const std::vector<RoleGeom>& geom, const Graph& g, SampleFit& out) {
  if (!lower_endpoint_first(g)) return false;
  std::int64_t total = 0;
  for (const RoleGeom& rg : geom) {
    total += static_cast<std::int64_t>(rg.xdim) * rg.ydim * rg.tracks;
  }
  if (total != g.node_count()) return false;

  out.roles.assign(geom.size(), {});
  out.edge_count = g.edge_count();

  std::vector<Inc> l00, lx, ly;
  NodeId base = 0;
  for (std::size_t r = 0; r < geom.size(); ++r) {
    const RoleGeom& rg = geom[r];
    if (rg.xdim < kMinDim || rg.ydim < kMinDim) return false;
    auto node_at = [&](int x, int y, int t) {
      return base + static_cast<NodeId>(
                        (static_cast<std::int64_t>(y) * rg.xdim + x) * rg.tracks + t);
    };
    auto& classes = out.roles[r];
    classes.resize(static_cast<std::size_t>(kClasses) * kClasses * rg.tracks);
    std::size_t ci = 0;
    for (int yc = 0; yc < kClasses; ++yc) {
      const AxisRep ay = axis_rep(rg.ydim, yc);
      for (int xc = 0; xc < kClasses; ++xc) {
        const AxisRep ax = axis_rep(rg.xdim, xc);
        for (int t = 0; t < rg.tracks; ++t, ++ci) {
          incident_of(g, node_at(ax.c1, ay.c1, t), l00);
          const bool ix = ax.c2 >= 0;
          const bool iy = ay.c2 >= 0;
          if (ix) {
            incident_of(g, node_at(ax.c2, ay.c1, t), lx);
            if (lx.size() != l00.size()) return false;
          }
          if (iy) {
            incident_of(g, node_at(ax.c1, ay.c2, t), ly);
            if (ly.size() != l00.size()) return false;
          }
          auto& slots = classes[ci];
          slots.resize(l00.size());
          for (std::size_t i = 0; i < l00.size(); ++i) {
            SlotFit s;
            s.weight = l00[i].w;
            if ((ix && lx[i].w != s.weight) || (iy && ly[i].w != s.weight)) return false;
            s.nbr_dx = ix ? static_cast<std::int64_t>(lx[i].nbr) - l00[i].nbr : 0;
            s.nbr_dy = iy ? static_cast<std::int64_t>(ly[i].nbr) - l00[i].nbr : 0;
            s.edge_dx = ix ? static_cast<std::int64_t>(lx[i].e) - l00[i].e : 0;
            s.edge_dy = iy ? static_cast<std::int64_t>(ly[i].e) - l00[i].e : 0;
            s.nbr_a = static_cast<std::int64_t>(l00[i].nbr) - s.nbr_dx * ax.c1 -
                      s.nbr_dy * ay.c1;
            s.edge_a = static_cast<std::int64_t>(l00[i].e) - s.edge_dx * ax.c1 -
                       s.edge_dy * ay.c1;
            slots[i] = s;
          }
        }
      }
    }
    base += static_cast<NodeId>(static_cast<std::int64_t>(rg.xdim) * rg.ydim * rg.tracks);
  }
  return matches_legacy(*build_topology(geom, out.roles, out.edge_count), g);
}

/// Role grids of a rows x cols device at channel width w, in node-id order:
/// logic blocks, horizontal wires, vertical wires.
std::vector<RoleGeom> device_geometry(int w, int rows, int cols) {
  return {{1, cols, rows}, {w, cols, rows + 1}, {w, cols + 1, rows}};
}

/// The legacy builder's graph for `family` resized to rows x cols.
Graph legacy_graph(const ArchSpec& family, int rows, int cols) {
  ArchSpec s = family;
  s.rows = rows;
  s.cols = cols;
  Device d(s, DeviceBuild::kLegacy);
  return std::move(d.graph());
}

/// A compiled family template: symbolic patterns plus the channel width
/// needed to stamp a TiledTopology at any device size from kMinDim up.
struct TileTemplateImpl {
  int width = 0;
  Patterns<SlotSym> roles;
  Lin edge_count;

  std::shared_ptr<const TiledTopology> instantiate(int rows, int cols) const {
    FPR_CHECK(rows >= kMinDim && cols >= kMinDim,
              "tile template instantiated at " << rows << "x" << cols << " — requires dims >= "
                                               << kMinDim << "x" << kMinDim);
    const std::int64_t nr = rows - kMinDim;
    const std::int64_t nc = cols - kMinDim;
    Patterns<SlotFit> fits(roles.size());
    for (std::size_t r = 0; r < roles.size(); ++r) {
      fits[r].resize(roles[r].size());
      for (std::size_t c = 0; c < roles[r].size(); ++c) {
        fits[r][c].resize(roles[r][c].size());
        for (std::size_t i = 0; i < roles[r][c].size(); ++i) {
          const SlotSym& sym = roles[r][c][i];
          fits[r][c][i] =
              SlotFit{sym.nbr_a.at(nr, nc),  sym.nbr_dx.at(nr, nc),  sym.nbr_dy.at(nr, nc),
                      sym.edge_a.at(nr, nc), sym.edge_dx.at(nr, nc), sym.edge_dy.at(nr, nc),
                      sym.weight};
        }
      }
    }
    return build_topology(device_geometry(width, rows, cols), fits,
                          static_cast<EdgeId>(edge_count.at(nr, nc)));
  }
};

/// Compiles a family template from five legacy sample builds: a 2x2 grid of
/// fit samples at kMinDim and kMinDim + 1 plus a held-out verify sample two
/// cells out on both axes (where any dependence the bilinear fit could not
/// represent would first diverge). Returns nullptr on any fit or
/// verification failure.
std::shared_ptr<const TileTemplateImpl> compile(const ArchSpec& family) {
  const int w = family.channel_width;
  SampleFit fit[2][2];
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      const int rows = kMinDim + a;
      const int cols = kMinDim + b;
      const Graph g = legacy_graph(family, rows, cols);
      if (!fit_sample(device_geometry(w, rows, cols), g, fit[a][b])) return nullptr;
    }
  }
  auto tmpl = std::make_shared<TileTemplateImpl>();
  tmpl->width = w;
  const SampleFit& f00 = fit[0][0];
  tmpl->roles.resize(f00.roles.size());
  for (std::size_t r = 0; r < f00.roles.size(); ++r) {
    const std::size_t nclasses = f00.roles[r].size();
    tmpl->roles[r].resize(nclasses);
    for (std::size_t c = 0; c < nclasses; ++c) {
      const auto& s00 = f00.roles[r][c];
      const auto& s10 = fit[1][0].roles[r][c];
      const auto& s01 = fit[0][1].roles[r][c];
      const auto& s11 = fit[1][1].roles[r][c];
      if (s10.size() != s00.size() || s01.size() != s00.size() || s11.size() != s00.size()) {
        return nullptr;  // class degree varies with size — not tile-periodic
      }
      auto& sym = tmpl->roles[r][c];
      sym.resize(s00.size());
      for (std::size_t i = 0; i < s00.size(); ++i) {
        if (s10[i].weight != s00[i].weight || s01[i].weight != s00[i].weight ||
            s11[i].weight != s00[i].weight) {
          return nullptr;
        }
        sym[i].weight = s00[i].weight;
        sym[i].nbr_a = Lin::fit(s00[i].nbr_a, s10[i].nbr_a, s01[i].nbr_a, s11[i].nbr_a);
        sym[i].nbr_dx = Lin::fit(s00[i].nbr_dx, s10[i].nbr_dx, s01[i].nbr_dx, s11[i].nbr_dx);
        sym[i].nbr_dy = Lin::fit(s00[i].nbr_dy, s10[i].nbr_dy, s01[i].nbr_dy, s11[i].nbr_dy);
        sym[i].edge_a = Lin::fit(s00[i].edge_a, s10[i].edge_a, s01[i].edge_a, s11[i].edge_a);
        sym[i].edge_dx =
            Lin::fit(s00[i].edge_dx, s10[i].edge_dx, s01[i].edge_dx, s11[i].edge_dx);
        sym[i].edge_dy =
            Lin::fit(s00[i].edge_dy, s10[i].edge_dy, s01[i].edge_dy, s11[i].edge_dy);
      }
    }
  }
  tmpl->edge_count = Lin::fit(f00.edge_count, fit[1][0].edge_count, fit[0][1].edge_count,
                              fit[1][1].edge_count);

  constexpr int kVerifyDim = kMinDim + 2;
  const Graph gv = legacy_graph(family, kVerifyDim, kVerifyDim);
  if (!lower_endpoint_first(gv)) return nullptr;
  if (!matches_legacy(*tmpl->instantiate(kVerifyDim, kVerifyDim), gv)) return nullptr;
  return tmpl;
}

/// A family: (channel width, switch pattern, Fc rule).
using CacheKey = std::tuple<int, int, int>;

// fpr-lint: allow(global-state) process-wide template cache: keyed by arch params only, immutable payloads, so hits are replay-neutral
Mutex g_cache_mu;
// fpr-lint: allow(global-state) guarded by g_cache_mu above; see tile_template.hpp cache contract
std::map<CacheKey, std::shared_ptr<const TileTemplateImpl>> g_cache FPR_GUARDED_BY(g_cache_mu);
// fpr-lint: allow(global-state) hit/miss counters read only by tile_template_stats(); never feed routing decisions
TileTemplateStats g_stats FPR_GUARDED_BY(g_cache_mu);

/// Cache lookup / compile-and-insert. Compilation runs under the lock:
/// it is deterministic, touches only small sample devices (built with
/// DeviceBuild::kLegacy, so no re-entry into this cache), and serializing it
/// means concurrent width probes of the same family compile exactly once.
std::shared_ptr<const TileTemplateImpl> template_for(const ArchSpec& family) {
  const CacheKey key{family.channel_width, static_cast<int>(family.switch_pattern),
                     static_cast<int>(family.fc_rule)};
  MutexLock lock(g_cache_mu);
  const auto it = g_cache.find(key);
  if (it != g_cache.end()) {
    ++g_stats.cache_hits;
    return it->second;
  }
  ++g_stats.compiles;
  auto tmpl = compile(family);
  if (tmpl == nullptr) ++g_stats.compile_failures;
  if (g_cache.size() >= kCacheCap) g_cache.clear();
  g_cache.emplace(key, tmpl);
  return tmpl;
}

void count_fallback() {
  MutexLock lock(g_cache_mu);
  ++g_stats.fallbacks;
}

void count_instantiation() {
  MutexLock lock(g_cache_mu);
  ++g_stats.instantiations;
}

}  // namespace

std::shared_ptr<const TiledTopology> tiled_topology_for(const ArchSpec& spec) {
  if (!spec.valid() || spec.rows < kMinDim || spec.cols < kMinDim) {
    count_fallback();
    return nullptr;
  }
  const auto tmpl = template_for(spec);
  if (tmpl == nullptr) {
    count_fallback();
    return nullptr;
  }
  count_instantiation();
  return tmpl->instantiate(spec.rows, spec.cols);
}

TileTemplateStats tile_template_stats() {
  MutexLock lock(g_cache_mu);
  return g_stats;
}

}  // namespace fpr
