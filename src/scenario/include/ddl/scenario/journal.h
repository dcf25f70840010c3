// The job ledger: one job's rows and their write-ahead journal, shared by
// the Campaign and the campaign service daemon (ddl::service), so both
// keep the same rows, counts and durability story.
//
// Layout of a journal directory (journal format 3):
//
//   journal.jsonl   one commit record per scenario: its health-event lines
//                   followed by its result line, written as one buffer in
//                   one locked append.  The result line is the commit.
//   manifest.json   spec fingerprint, scenario count and `"journal": 3`;
//                   written once, when the journal is created.
//
// A resuming ledger cuts the file back to the end of its last result line:
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
#include "ddl/scenario/sandbox.h"

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

/// Rebuilds the verdict-bearing slice of a ScenarioResult from a journaled
/// line's parsed fields, enough for summarize() and exit-code accounting;
/// metrics and the typed architecture/corner stay default (the line itself
/// is the record).
ScenarioResult reconstruct_result(
    const std::map<std::string, std::string>& fields);

/// One job's rows and their journal: the spec list, and by spec index the
/// result line, health lines and verdict of every committed scenario.  The
/// Campaign and the daemon's jobs each hold one; what happens to a row
/// after a worker returns it is written here once.
class JobLedger {
 public:
  /// Spec names must be unique, as the journal is keyed by name (throws
  /// std::invalid_argument otherwise).  `dir` empty keeps the rows in
  /// memory only.  Otherwise `dir` is created on demand and, with
  /// `resume`, its journal reloaded: std::runtime_error unless it holds a
  /// format-3 manifest matching the spec names and count; the journal is
  /// cut back to its last result line and every committed record restored.
  /// Without `resume` the journal is created: journal.jsonl truncated,
  /// then the manifest written.
  JobLedger(std::vector<ScenarioSpec> specs, const std::string& dir,
            bool resume);
  ~JobLedger();

  JobLedger(const JobLedger&) = delete;
  JobLedger& operator=(const JobLedger&) = delete;

  /// Commits `index`'s row: appends its record (health lines, then the
  /// result line) to the journal in one locked append, then keeps the row.
  /// Safe to call from several threads at once.  Fail-closed: the first
  /// append that fails throws JournalIoError after keeping the row; every
  /// later commit keeps its row and appends nothing.
  void commit(std::size_t index, ExecutedScenario row);

  const std::vector<ScenarioSpec>& specs() const noexcept { return specs_; }
  std::size_t size() const noexcept { return specs_.size(); }

  /// Row accessors; not synchronized with commit() on the same index.
  bool done(std::size_t index) const { return !lines_[index].empty(); }
  const std::string& line(std::size_t index) const { return lines_[index]; }
  const std::vector<std::string>& health(std::size_t index) const {
    return health_[index];
  }
  /// reconstruct_result() of the committed line (default when pending).
  ScenarioResult result(std::size_t index) const;

  std::size_t restored() const noexcept { return restored_; }
  std::size_t completed() const noexcept { return completed_; }
  std::size_t passed() const noexcept { return passed_; }

 private:
  const std::vector<ScenarioSpec> specs_;
  std::vector<std::string> lines_;  ///< Result line by index; "" = pending.
  std::vector<std::vector<std::string>> health_;
  std::size_t restored_ = 0;   ///< Rows reloaded from the journal.
  std::size_t completed_ = 0;  ///< Restored plus committed.
  std::size_t passed_ = 0;     ///< Completed rows whose verdict is "pass".

  std::mutex mutex_;      ///< Serializes commit().
  int fd_ = -1;           ///< journal.jsonl; -1 = memory only.
  int failed_errno_ = 0;  ///< errno of the first failed append, else 0.
};

}  // namespace ddl::scenario
