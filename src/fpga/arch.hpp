#pragma once

#include <cstdint>
#include <string>

namespace fpr {

/// Switch-block connection pattern, parameterizing the flexibility Fs —
/// "the pre-specified fanout of a channel edge inside a switch block" [12].
enum class SwitchPattern {
  /// Each track t connects to track t on every other side (Fs = 3) — the
  /// subset/disjoint pattern of the Xilinx 4000-series model of Table 3.
  kDisjoint,
  /// Each track t connects to tracks t and (t+1) mod W on every other side
  /// (Fs = 6) — the 3000-series model of Table 2.
  kAugmented,
};

/// How the connection-block flexibility Fc is derived from the channel
/// width W.
enum class FcRule {
  kFraction60,  // Fc = ceil(0.6 * W)  (3000-series, as in Table 2)
  kFullWidth,   // Fc = W              (4000-series, as in Table 3)
};

/// A symmetrical-array FPGA architecture (Section 2, Figure 1): a rows x
/// cols array of logic blocks, channels of W parallel tracks between every
/// adjacent pair of rows/columns (and around the perimeter), switch blocks
/// at channel intersections, and connection blocks tying logic-block pins to
/// Fc tracks of each adjacent channel.
struct ArchSpec {
  int rows = 0;
  int cols = 0;
  int channel_width = 0;  // W
  SwitchPattern switch_pattern = SwitchPattern::kDisjoint;
  FcRule fc_rule = FcRule::kFullWidth;

  /// Xilinx 3000-series model: Fs = 6, Fc = ceil(0.6 * W) (Table 2).
  static ArchSpec xc3000(int rows, int cols, int channel_width);

  /// Xilinx 4000-series model: Fs = 3, Fc = W (Table 3).
  static ArchSpec xc4000(int rows, int cols, int channel_width);

  /// Same architecture family at a different channel width (Fc re-derived);
  /// this is the knob the minimum-channel-width search turns.
  ArchSpec with_width(int w) const;

  /// Connection-block flexibility for the current width.
  int fc() const;

  /// Switch-block flexibility implied by the pattern (3 or 6).
  int fs() const;

  bool valid() const { return rows >= 1 && cols >= 1 && channel_width >= 1; }

  /// Nodes of this architecture's routing graph, and an upper bound on its
  /// edges, in 64 bits. Meaningful only when valid().
  std::int64_t node_count() const;
  std::int64_t edge_bound() const;

  /// valid(), and the routing graph fits 32-bit node and edge ids. Devices
  /// check it before building; parsers of untrusted specs use it to refuse
  /// a spec instead of overflowing.
  bool fits_ids() const;

  std::string describe() const;
};

}  // namespace fpr
