// fuzz_fpr — unbounded property-fuzzing driver over the src/check oracles.
//
// The bounded tier-1 versions of these runs live in tests/check/; this
// binary is the nightly-CI / local soak entry point. See TESTING.md.
//
//   fuzz_fpr --iters 5000 --seed 42                 # all oracles
//   fuzz_fpr --oracle approx --iters 20000          # one oracle, deep
//   fuzz_fpr --replay fuzz-failures/approx-seed<N>.repro
//
// Exit codes: 0 clean, 1 at least one oracle violation, 2 usage error.

#include <cstdlib>
#include <iostream>
#include <string>

#include "check/fuzz.hpp"
#include "steiner/subset_dp.hpp"

namespace {

void usage(std::ostream& os) {
  os << "usage: fuzz_fpr [--seed N] [--iters N] [--oracle NAME]... [--algo NAME]...\n"
        "                [--failures DIR] [--max-terminals K] [--no-shrink] [--quiet]\n"
        "       fuzz_fpr --replay FILE\n"
        "       fuzz_fpr --list\n"
        "\n"
        "oracles:";
  for (const auto o : fpr::check::all_oracles()) os << " " << fpr::check::oracle_name(o);
  os << "\n\ndefaults: --seed 1 --iters 1000 --failures fuzz-failures --max-terminals 9,\n"
        "all oracles, shrinking on. --max-terminals takes 2 to "
     << fpr::kSubsetDpMaxTerminals
     << ", the exact\n"
        "solvers' limit. A failing case is minimized and persisted as a .repro file\n"
        "that replays byte-identically via --replay.\n";
}

}  // namespace

int main(int argc, char** argv) {
  fpr::check::FuzzOptions options;
  options.failure_dir = "fuzz-failures";
  options.log = &std::cout;
  std::string replay_path;

  const auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      std::exit(2);
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed") {
      options.seed = std::strtoull(need_value(i), nullptr, 10);
    } else if (arg == "--iters") {
      options.iterations = std::atoi(need_value(i));
    } else if (arg == "--oracle") {
      const std::string name = need_value(i);
      if (name == "all") {
        options.oracles.clear();
      } else if (const auto o = fpr::check::parse_oracle(name)) {
        options.oracles.push_back(*o);
      } else {
        std::cerr << "unknown oracle '" << name << "'\n";
        usage(std::cerr);
        return 2;
      }
    } else if (arg == "--algo") {
      const std::string name = need_value(i);
      if (const auto a = fpr::check::algorithm_from_name(name)) {
        options.algorithms.push_back(*a);
      } else {
        std::cerr << "unknown algorithm '" << name << "'\n";
        return 2;
      }
    } else if (arg == "--failures") {
      options.failure_dir = need_value(i);
    } else if (arg == "--max-terminals") {
      const char* value = need_value(i);
      char* end = nullptr;
      const long k = std::strtol(value, &end, 10);
      if (end == value || *end != '\0' || k < 2 || k > fpr::kSubsetDpMaxTerminals) {
        std::cerr << "--max-terminals must be an integer in [2, " << fpr::kSubsetDpMaxTerminals
                  << "], got '" << value << "'\n";
        return 2;
      }
      options.max_terminals = static_cast<int>(k);
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else if (arg == "--quiet") {
      options.log = nullptr;
    } else if (arg == "--replay") {
      replay_path = need_value(i);
    } else if (arg == "--list") {
      usage(std::cout);
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else {
      std::cerr << "unknown argument '" << arg << "'\n";
      usage(std::cerr);
      return 2;
    }
  }

  if (!replay_path.empty()) {
    const auto result = fpr::check::replay_file(replay_path, std::cout);
    if (!result) return 2;
    return result->ok() ? 0 : 1;
  }

  if (options.iterations <= 0) {
    std::cerr << "--iters must be positive\n";
    return 2;
  }
  const auto report = fpr::check::fuzz(options);
  std::cout << report.iterations << " oracle invocations, " << report.failures.size()
            << " failure(s)\n";
  return report.clean() ? 0 : 1;
}
