#include <array>
#include <string>

// Constants, types, functions and members are all fine.
const int kAnswer = 42;
constexpr double kHalf = 0.5;
static const std::array<int, 3> kTable = {1, 2, 3};

namespace impl {
constexpr char kName[] = "clean";
}

// A type alias, whatever marker leads it (GCC's __extension__ keeps
// -Wpedantic quiet about the non-ISO 128-bit type).
__extension__ typedef unsigned __int128 Wide;

struct Widget {
  int mutable_member = 0;  // object state, not program state
  static int count(Widget w) { return w.mutable_member; }
};

int compute(int x);  // declaration, not a variable

int compute(int x) {
  int local = x + kAnswer;              // automatic storage is fine
  static const std::string kLabel = "w";  // function-local constant is fine
  for (int i = 0; i < 3; ++i) local += kTable[static_cast<std::size_t>(i)];
  return local + static_cast<int>(kLabel.size()) + static_cast<int>(kHalf) +
         static_cast<int>(sizeof(impl::kName));
}
