// Write-ahead scenario journal, factored out of the Campaign engine so the
// campaign service daemon (ddl::service) shares the exact same durability
// story as the one-shot runner.
//
// Layout of a journal directory (journal format 3):
//
//   journal.jsonl   one commit record per scenario: its health-event lines
//                   followed by its result line, written as one buffer in
//                   one locked append.  The result line is the commit.
//   manifest.json   spec fingerprint, scenario count and `"journal": 3`;
//                   written once, when the journal is created.
//
// resume_journal() cuts the file back to the end of its last result line:
// a torn tail and the health lines of an uncommitted record go by the same
// rule, so appends resume on a record boundary.  Journaled lines are
// byte-reused on resume, so a resumed stream is byte-identical to an
// uninterrupted run.  Format-2 directories (health lines in a second file,
// a manifest rewritten per commit) are refused, not migrated.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "ddl/scenario/runner.h"

namespace ddl::scenario {

/// A journal append that could not be durably committed: the write failed
/// (ENOSPC, EIO, a yanked volume).  The journal is fail-closed -- a record
/// whose append did not complete has no durable commit, and resuming after
/// freeing space cuts any partial bytes and replays from the last committed
/// record.
class JournalIoError : public std::runtime_error {
 public:
  JournalIoError(const std::string& what, int error_number)
      : std::runtime_error(what), errno_(error_number) {}

  /// The errno captured when the stream failure was detected (0 when the
  /// OS did not report one).
  int error_number() const noexcept { return errno_; }

 private:
  int errno_ = 0;
};

/// File paths inside a journal directory.
std::string journal_path(const std::string& dir);
std::string manifest_path(const std::string& dir);

/// Reads a whole file as bytes; missing file = empty string.
std::string read_file(const std::string& path);

/// FNV-1a over the newline-joined spec names: the campaign fingerprint a
/// resume must match (same suite, same filter, same expansion).
std::string fingerprint_of(const std::vector<ScenarioSpec>& specs);

/// FNV-1a over the full flat-JSON serialization of every spec
/// (spec_to_json lines, newline-joined): the *content* fingerprint the
/// service daemon keys job identity on -- two submissions are the same job
/// iff every field of every spec matches, not just the names.
std::string content_fingerprint_of(const std::vector<ScenarioSpec>& specs);

/// What a resumed campaign restores from a journal directory.
struct JournalState {
  /// Scenario name -> its exact journaled result line (byte-reused).
  std::map<std::string, std::string> lines;
  /// Scenario name -> its journaled health-event lines, in event order.
  std::map<std::string, std::vector<std::string>> health;
};

/// The one resume path of the campaign and the daemon.  Throws
/// std::runtime_error unless `dir` holds a format-3 manifest matching the
/// fingerprint and scenario count (a different campaign, or a format-2
/// directory, is refused).  Loads every committed record, then truncates
/// journal.jsonl to the end of the last result line so appends resume on a
/// record boundary.
JournalState resume_journal(const std::string& dir,
                            const std::string& fingerprint,
                            std::size_t scenarios);

/// A JournalState laid out by spec index: the one place the campaign and
/// the daemon turn committed records into rows.
struct RestoredRows {
  std::vector<std::string> lines;  ///< Result line by index; "" = pending.
  std::vector<std::vector<std::string>> health;  ///< Health lines by index.
  std::vector<ScenarioResult> results;  ///< reconstruct_result of each line.
  std::size_t restored = 0;  ///< Indices with a committed record.
  std::size_t passed = 0;    ///< Restored rows whose verdict is "pass".
};

RestoredRows restore_rows(const JournalState& state,
                          const std::vector<ScenarioSpec>& specs);

/// Rebuilds the verdict-bearing slice of a ScenarioResult from a journaled
/// line's parsed fields, enough for summarize() and exit-code accounting;
/// metrics and the typed architecture/corner stay default (the line itself
/// is the record).
ScenarioResult reconstruct_result(
    const std::map<std::string, std::string>& fields);

/// Append-side of the journal: one commit record (health lines, then the
/// result line) per record() call, as one locked append.
class JournalWriter {
 public:
  /// Opens journal.jsonl for appending (append=true, after
  /// resume_journal) or creates the journal: truncates journal.jsonl and
  /// writes the manifest.  Throws std::runtime_error when the directory is
  /// not writable.
  JournalWriter(const std::string& dir, const std::string& fingerprint,
                std::size_t scenarios, bool append);
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Appends one commit record; throws JournalIoError when the bytes could
  /// not all be written, and for every record after such a failure.
  void record(const std::string& line,
              const std::vector<std::string>& health_lines);

 private:
  std::mutex mutex_;
  int fd_ = -1;
  int failed_errno_ = 0;  ///< errno of the first failed append, else 0.
};

}  // namespace ddl::scenario
