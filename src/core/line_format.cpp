#include "core/line_format.hpp"

namespace fpr::line_format {

bool read_record(std::string_view line, std::string_view tag, const FieldReader& field) {
  constexpr std::string_view kSpace = " \t\n\v\f\r";
  bool tagged = false;
  while (true) {
    const std::size_t begin = line.find_first_not_of(kSpace);
    if (begin == std::string_view::npos) return tagged;
    line.remove_prefix(begin);
    const std::string_view token = line.substr(0, line.find_first_of(kSpace));
    line.remove_prefix(token.size());
    if (!tagged) {
      if (token != tag) return false;
      tagged = true;
      continue;
    }
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || !field(token.substr(0, eq), token.substr(eq + 1))) {
      return false;
    }
  }
}

bool parse_u64(std::string_view text, std::uint64_t& out, std::uint64_t max) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (digit > max || value > (max - digit) / 10) return false;
    value = value * 10 + digit;
  }
  out = value;
  return true;
}

std::string format_ids(const std::vector<std::int32_t>& ids) {
  std::string out;
  for (const std::int32_t id : ids) {
    if (!out.empty()) out += ',';
    out += std::to_string(id);
  }
  return out;
}

bool parse_id_list(std::string_view text, std::vector<std::int32_t>& out) {
  out.clear();
  return for_each_item(text, ',', [&](std::string_view piece) {
    std::int32_t id = 0;
    if (!parse_uint(piece, id)) return false;
    out.push_back(id);
    return true;
  });
}

}  // namespace fpr::line_format
