// Campaign journal: the fingerprint-keyed cache of completed cells.
//
// One line per finished cell, appended and flushed the moment the cell's
// experiment completes, so an interrupted campaign (SIGTERM, OOM, power
// cut) resumes from exactly the cells it finished. The key is the cell
// fingerprint (grid.h): re-running an unchanged spec re-executes nothing;
// editing a spec re-executes only the cells whose single-cell canonical
// text changed. The entry stores everything the campaign needs to
// reproduce its share of the output bit-identically — the full CSV row and
// the exact result_fingerprint() text, which parse_result_fingerprint()
// (harness/report.h) turns back into the result the [report] renders — so
// a resumed campaign's stdout and merged CSV are byte-identical to an
// uninterrupted run.
//
// Format (text, line-oriented; unknown or torn lines are ignored on load,
// which is what makes kill-mid-append safe):
//
//   # dcpim-campaign-journal v2
//   cell <16-hex cell fp> <16-hex result fnv> <csv row>\t<fingerprint>
//
// The fingerprint follows the first tab, escaped onto the line (`\` ->
// `\\`, newline -> `\n`); an entry whose fingerprint does not hash to its
// result fnv (a torn tail, or a v1 line with none) is skipped.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace dcpim::campaign {

struct JournalEntry {
  std::uint64_t cell_fp = 0;
  std::string csv_row;
  std::string fingerprint;  ///< result_fingerprint() text, unescaped
};

/// Entries keyed by cell fingerprint. A missing or unreadable file is an
/// empty journal; malformed lines (including a torn final line from a
/// mid-append kill) are skipped silently. Each kept entry's fingerprint
/// hashes to the result fnv written beside it. Later duplicates win, so a cell
/// re-executed after a spec revert simply refreshes its entry.
std::map<std::uint64_t, JournalEntry> load_journal(
    const std::string& path);

/// Append-side handle. Opens in append mode (creating the file and header
/// when new/empty) and flushes after every entry — the durability contract
/// resume depends on.
class JournalWriter {
 public:
  explicit JournalWriter(const std::string& path);
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  bool ok() const { return file_ != nullptr; }
  void append(const JournalEntry& entry);

 private:
  std::FILE* file_ = nullptr;
};

}  // namespace dcpim::campaign
