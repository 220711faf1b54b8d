#include "fpga/arch.hpp"

#include <cmath>
#include <limits>
#include <sstream>

namespace fpr {

ArchSpec ArchSpec::xc3000(int rows, int cols, int channel_width) {
  ArchSpec spec;
  spec.rows = rows;
  spec.cols = cols;
  spec.channel_width = channel_width;
  spec.switch_pattern = SwitchPattern::kAugmented;
  spec.fc_rule = FcRule::kFraction60;
  return spec;
}

ArchSpec ArchSpec::xc4000(int rows, int cols, int channel_width) {
  ArchSpec spec;
  spec.rows = rows;
  spec.cols = cols;
  spec.channel_width = channel_width;
  spec.switch_pattern = SwitchPattern::kDisjoint;
  spec.fc_rule = FcRule::kFullWidth;
  return spec;
}

ArchSpec ArchSpec::with_width(int w) const {
  ArchSpec spec = *this;
  spec.channel_width = w;
  return spec;
}

int ArchSpec::fc() const {
  switch (fc_rule) {
    case FcRule::kFraction60:
      return static_cast<int>(std::ceil(0.6 * channel_width));
    case FcRule::kFullWidth:
      return channel_width;
  }
  return channel_width;
}

int ArchSpec::fs() const {
  switch (switch_pattern) {
    case SwitchPattern::kDisjoint:
      return 3;
    case SwitchPattern::kAugmented:
      return 6;
  }
  return 3;
}

std::int64_t ArchSpec::node_count() const {
  const std::int64_t r = rows, c = cols, w = channel_width;
  return r * c + (r + 1) * c * w + (c + 1) * r * w;  // blocks, then wires
}

std::int64_t ArchSpec::edge_bound() const {
  const std::int64_t r = rows, c = cols, w = channel_width;
  // Fc connection-block edges per block side; at each of the (r+1)(c+1)
  // switch blocks, at most 6 side pairs of Fs/3 * W track pairs each.
  return r * c * fc() * 4 + (r + 1) * (c + 1) * 6 * (fs() / 3) * w;
}

bool ArchSpec::fits_ids() const {
  constexpr std::int64_t kMaxId = std::numeric_limits<std::int32_t>::max();
  return valid() && node_count() <= kMaxId && edge_bound() <= kMaxId;
}

std::string ArchSpec::describe() const {
  std::ostringstream out;
  out << rows << "x" << cols << " array, W=" << channel_width << ", Fs=" << fs()
      << ", Fc=" << fc();
  return out.str();
}

}  // namespace fpr
