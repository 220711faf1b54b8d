#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace fpr::line_format {

/// The one-line record format every replayable record shares: a fault
/// spec or fault event (fpga/faults.hpp), a repair event or outcome
/// (router/repair.hpp) and a fuzz case (check/generate.hpp) are each
///   <tag> key=value key=value ...
/// Records are untrusted text (journals, repro files), so every reader
/// here returns false on malformed input and never throws.
///
/// Unknown keys are accepted and ignored, so the format can grow without
/// breaking old replay tooling; a token without `=` rejects the line.

/// Called once per `key=value` token; returning false rejects the line.
using FieldReader = std::function<bool(std::string_view key, std::string_view value)>;

/// Splits `line` on whitespace. False when the first token is not `tag`,
/// when a later token has no `=`, or when `field` rejects a pair.
bool read_record(std::string_view line, std::string_view tag, const FieldReader& field);

/// A plain decimal (digits only: no sign, non-empty) no larger than `max`;
/// the digit loop behind parse_uint.
bool parse_u64(std::string_view text, std::uint64_t& out, std::uint64_t max);

/// The one integer field parser: a plain decimal within the range of `T`.
/// `out` is left untouched on failure.
template <std::integral T>
bool parse_uint(std::string_view text, T& out) {
  std::uint64_t value = 0;
  if (!parse_u64(text, value, static_cast<std::uint64_t>(std::numeric_limits<T>::max()))) {
    return false;
  }
  out = static_cast<T>(value);
  return true;
}

/// Calls `item(piece)` for every `sep`-separated piece of `text`. False
/// when `text` or any piece is empty ("1,,2"), or when `item` rejects one,
/// so a mangled line fails loudly instead of silently dropping elements.
template <typename Fn>
bool for_each_item(std::string_view text, char sep, Fn&& item) {
  while (true) {
    const std::size_t end = text.find(sep);
    const std::string_view piece = text.substr(0, end);
    if (piece.empty() || !item(piece)) return false;
    if (end == std::string_view::npos) return true;
    text.remove_prefix(end + 1);
  }
}

/// Canonical comma-joined id list ("12,40,77").
std::string format_ids(const std::vector<std::int32_t>& ids);

/// A non-empty comma-separated list of int32 ids (for_each_item rules).
bool parse_id_list(std::string_view text, std::vector<std::int32_t>& out);

}  // namespace fpr::line_format
