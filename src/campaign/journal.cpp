#include "campaign/journal.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "campaign/spec.h"

namespace dcpim::campaign {

namespace {

constexpr const char* kHeader = "# dcpim-campaign-journal v2";

/// Parses exactly 16 lowercase hex digits; returns false on anything else.
bool parse_hex16(const std::string& token, std::uint64_t& out) {
  if (token.size() != 16) return false;
  std::uint64_t value = 0;
  for (char c : token) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  out = value;
  return true;
}

/// `text` on one line: backslash and newline escaped.
std::string escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '\\' || c == '\n') out += '\\';
    out += c == '\n' ? 'n' : c;
  }
  return out;
}

std::string unescape(const std::string& text) {
  std::string out;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const bool escaped = text[i] == '\\' && i + 1 < text.size();
    if (escaped) ++i;
    out += escaped && text[i] == 'n' ? '\n' : text[i];
  }
  return out;
}

}  // namespace

std::map<std::uint64_t, JournalEntry> load_journal(
    const std::string& path) {
  std::map<std::uint64_t, JournalEntry> entries;
  std::ifstream in(path);
  if (!in) return entries;

  std::string line;
  while (std::getline(in, line)) {
    // `cell <16hex> <16hex> <csv row>\t<fingerprint>` — anything else
    // (header, comments, a torn tail from a kill mid-append) is skipped,
    // not an error.
    std::istringstream fields(line);
    std::string tag, fp_hex, fnv_hex, rest;
    if (!(fields >> tag >> fp_hex >> fnv_hex) || tag != "cell") continue;
    JournalEntry entry;
    std::uint64_t fnv = 0;
    if (!parse_hex16(fp_hex, entry.cell_fp)) continue;
    if (!parse_hex16(fnv_hex, fnv)) continue;
    std::getline(fields, rest);
    const auto tab = rest.find('\t');
    if (tab == std::string::npos || tab < 2) continue;
    entry.csv_row = rest.substr(1, tab - 1);  // after the separating space
    entry.fingerprint = unescape(rest.substr(tab + 1));
    if (fnv1a(entry.fingerprint) != fnv) continue;  // torn mid-fingerprint
    entries[entry.cell_fp] = entry;  // later duplicates win
  }
  return entries;
}

JournalWriter::JournalWriter(const std::string& path) {
  // A kill mid-append can leave the file without a trailing newline; the
  // first append after resume must not glue onto that torn line (it would
  // corrupt an otherwise-valid new entry). Probe the tail before opening
  // for append and seal it with a newline — the torn fragment then reads
  // as one malformed line, which load_journal skips.
  bool empty = true;
  bool torn_tail = false;
  if (std::FILE* probe = std::fopen(path.c_str(), "rb")) {
    if (std::fseek(probe, 0, SEEK_END) == 0 && std::ftell(probe) > 0) {
      empty = false;
      std::fseek(probe, -1, SEEK_END);
      torn_tail = std::fgetc(probe) != '\n';
    }
    std::fclose(probe);
  }
  file_ = std::fopen(path.c_str(), "a");
  if (file_ == nullptr) return;
  if (empty) {
    std::fprintf(file_, "%s\n", kHeader);
  } else if (torn_tail) {
    std::fputc('\n', file_);
  }
  std::fflush(file_);
}

JournalWriter::~JournalWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void JournalWriter::append(const JournalEntry& entry) {
  if (file_ == nullptr) return;
  std::fprintf(file_, "cell %016llx %016llx %s\t%s\n",
               static_cast<unsigned long long>(entry.cell_fp),
               static_cast<unsigned long long>(fnv1a(entry.fingerprint)),
               entry.csv_row.c_str(), escape(entry.fingerprint).c_str());
  std::fflush(file_);
}

}  // namespace dcpim::campaign
