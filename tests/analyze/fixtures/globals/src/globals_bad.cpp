#include <vector>

int g_counter = 0;                 // VIOLATION: namespace-scope mutable
std::vector<int> g_scratch;        // VIOLATION: namespace-scope mutable
__extension__ unsigned __int128 g_wide = 0;  // VIOLATION: the marker hides nothing

namespace impl {
bool g_flag{false};                // VIOLATION: nested namespace is still global
}

int bump() {
  static int calls = 0;            // VIOLATION: function-local static
  return ++calls + g_counter + static_cast<int>(g_scratch.size()) + (impl::g_flag ? 1 : 0);
}
