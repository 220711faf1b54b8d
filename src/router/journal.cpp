#include "router/journal.hpp"

#include <fstream>
#include <sstream>

namespace fpr {

namespace {

/// A journal line is skippable when blank or a `#` comment.
bool skippable(const std::string& line) {
  for (const char c : line) {
    if (c == '#') return true;
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;
}

std::string strip_cr(std::string line) {
  while (!line.empty() && (line.back() == '\r' || line.back() == '\n')) line.pop_back();
  return line;
}

}  // namespace

std::string RepairJournal::serialize() const {
  std::ostringstream os;
  os << "fpr-journal v1\n";
  for (const JournalEntry& entry : entries_) {
    os << entry.event.describe() << '\n' << entry.outcome.describe() << '\n';
  }
  return os.str();
}

std::optional<RepairJournal> RepairJournal::parse(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  bool saw_header = false;
  RepairJournal journal;
  std::optional<RepairEvent> pending;  // event waiting for its outcome line
  while (std::getline(is, line)) {
    line = strip_cr(line);
    if (skippable(line)) continue;
    if (!saw_header) {
      if (line != "fpr-journal v1") return std::nullopt;
      saw_header = true;
      continue;
    }
    if (!pending.has_value()) {
      pending = RepairEvent::parse(line);
      if (!pending.has_value()) return std::nullopt;
    } else {
      std::optional<RepairOutcome> outcome = RepairOutcome::parse(line);
      if (!outcome.has_value()) return std::nullopt;
      journal.append(std::move(*pending), *outcome);
      pending.reset();
    }
  }
  if (!saw_header || pending.has_value()) return std::nullopt;  // truncated entry
  return journal;
}

bool RepairJournal::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << serialize();
  return static_cast<bool>(out);
}

std::optional<RepairJournal> RepairJournal::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return std::nullopt;
  return parse(buffer.str());
}

JournalReplayResult replay_journal(Device& device, const Circuit& seed,
                                   const RouterOptions& options, const RepairJournal& journal) {
  JournalReplayResult replay;
  replay.circuit = seed;

  // The seed state: the installed fault set is part of the device and
  // stay; any accumulated event overlay is NOT — the journal's events will
  // rebuild it in order.
  device.clear_fault_events();

  RouterOptions replay_options = options;
  replay_options.record_commits = true;  // repair needs the commit logs
  replay.result = route_circuit(device, replay.circuit, replay_options);

  replay.ok = true;
  for (std::size_t i = 0; i < journal.entries().size(); ++i) {
    const JournalEntry& entry = journal.entries()[i];
    const RepairOutcome recomputed =
        repair_route(device, replay.circuit, replay.result, entry.event, replay_options);
    replay.outcomes.push_back(recomputed);
    if (replay.ok && !(recomputed == entry.outcome)) {
      replay.ok = false;
      std::ostringstream os;
      os << "journal entry " << i << " diverged: recorded '" << entry.outcome.describe()
         << "' vs recomputed '" << recomputed.describe() << "'";
      replay.error = os.str();
    }
  }
  return replay;
}

}  // namespace fpr
