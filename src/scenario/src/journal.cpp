#include "ddl/scenario/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "ddl/analysis/bench_json.h"
#include "ddl/core/hash.h"
#include "ddl/scenario/spec.h"

namespace ddl::scenario {
namespace {

const std::string& field_or(const std::map<std::string, std::string>& fields,
                            const std::string& key) {
  static const std::string empty;
  const auto it = fields.find(key);
  return it == fields.end() ? empty : it->second;
}

/// The manifest's journal format: one file, one commit record per
/// scenario.  Format 2 kept health lines in a second file.
constexpr std::uint64_t kJournalFormat = 3;

/// Raises JournalIoError for a failed append, capturing errno for the
/// operator ("No space left on device" beats a silent torn journal).
[[noreturn]] void throw_io_error(int error_number) {
  std::string message = "campaign: journal write failed";
  if (error_number != 0) {
    message += ": ";
    message += std::strerror(error_number);
    message += " (errno " + std::to_string(error_number) + ")";
  }
  throw JournalIoError(message, error_number);
}

/// Writes all of `bytes` to `fd`, retrying short writes and EINTR.
/// Returns 0, or the errno of the write that failed.
int write_all(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
    } else if (n == 0 || errno != EINTR) {
      return n == 0 ? EIO : errno;
    }
  }
  return 0;
}

std::string fnv1a_hex(const std::vector<ScenarioSpec>& specs,
                      std::string (*render)(const ScenarioSpec&)) {
  core::Fnv1a64 hash;
  for (const ScenarioSpec& spec : specs) {
    hash.update(render(spec)).update('\n');
  }
  return core::hex16(hash.value());
}

/// Checks the manifest in `dir` against the spec list, loads every
/// committed record into `lines` / `health` at its spec's index, then cuts
/// journal.jsonl back to the end of the last result line so appends resume
/// on a record boundary.  Throws std::runtime_error for a missing,
/// unreadable, format-2 or mismatched manifest.
void resume_journal(const std::string& dir, const std::string& fingerprint,
                    const std::map<std::string, std::size_t>& index_of,
                    std::vector<std::string>& lines,
                    std::vector<std::vector<std::string>>& health) {
  const std::string manifest = read_file(manifest_path(dir));
  if (manifest.empty()) {
    throw std::runtime_error("campaign: no manifest to resume in '" + dir +
                             "'");
  }
  const auto fields = analysis::parse_flat_json_line(manifest);
  if (!fields) {
    throw std::runtime_error("campaign: unreadable manifest in '" + dir + "'");
  }
  if (field_or(*fields, "journal") != std::to_string(kJournalFormat)) {
    throw std::runtime_error(
        "campaign: '" + dir +
        "' holds a format-2 journal (health lines in a second file); this "
        "build resumes journal format 3 only -- start the campaign afresh");
  }
  if (field_or(*fields, "spec_hash") != fingerprint ||
      field_or(*fields, "scenarios") != std::to_string(index_of.size())) {
    throw std::runtime_error(
        "campaign: manifest in '" + dir +
        "' was written for a different scenario list (suite/filter "
        "mismatch?); refusing to resume");
  }

  // Health lines stay pending until their record's result line commits
  // them.  The first line that does not parse (a torn tail) ends the scan.
  const std::string path = journal_path(dir);
  const std::string content = read_file(path);
  std::vector<std::string> pending;
  std::size_t committed_end = 0;
  for (std::size_t start = 0, end = 0;
       (end = content.find('\n', start)) != std::string::npos;
       start = end + 1) {
    std::string line = content.substr(start, end - start);
    const auto record = analysis::parse_flat_json_line(line);
    if (!record) {
      break;
    }
    if (record->count("verdict") == 0) {
      pending.push_back(std::move(line));
      continue;
    }
    const auto index = index_of.find(field_or(*record, "name"));
    if (index != index_of.end()) {
      health[index->second] = std::move(pending);
      lines[index->second] = std::move(line);
    }
    pending.clear();
    committed_end = end + 1;
  }
  if (committed_end < content.size()) {
    std::filesystem::resize_file(path, committed_end);
  }
}

/// Opens journal.jsonl for appending (append=true, after resume_journal)
/// or creates the journal: truncates journal.jsonl, then writes the
/// manifest.  Throws std::runtime_error when the directory is not
/// writable.
int open_journal(const std::string& dir, const std::string& fingerprint,
                 std::size_t scenarios, bool append) {
  const int flags = O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC |
                    (append ? 0 : O_TRUNC);
  const int fd = ::open(journal_path(dir).c_str(), flags, 0644);
  if (fd < 0) {
    throw std::runtime_error("campaign: cannot open the journal in " + dir);
  }
  if (append) {
    return fd;
  }
  // The journal is truncated before the manifest names it, so a crash in
  // between never pairs a new manifest with an old campaign's records.
  analysis::JsonObject manifest;
  manifest.set("schema_version", analysis::kBenchJsonSchemaVersion);
  manifest.set("campaign", "scenario_campaign");
  manifest.set("journal", kJournalFormat);
  manifest.set("scenarios", static_cast<std::uint64_t>(scenarios));
  manifest.set("spec_hash", fingerprint);
  try {
    analysis::write_file_atomic(manifest_path(dir), manifest.to_json());
  } catch (...) {
    ::close(fd);
    throw;
  }
  return fd;
}

}  // namespace

std::string journal_path(const std::string& dir) {
  return dir + "/journal.jsonl";
}
std::string manifest_path(const std::string& dir) {
  return dir + "/manifest.json";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string fingerprint_of(const std::vector<ScenarioSpec>& specs) {
  return fnv1a_hex(specs,
                   [](const ScenarioSpec& spec) { return spec.name; });
}

std::string content_fingerprint_of(const std::vector<ScenarioSpec>& specs) {
  return fnv1a_hex(specs, [](const ScenarioSpec& spec) {
    return spec_to_json(spec).to_json_line();
  });
}

ScenarioResult reconstruct_result(
    const std::map<std::string, std::string>& fields) {
  ScenarioResult result;
  result.name = field_or(fields, "name");
  result.family = field_or(fields, "family");
  result.pass = field_or(fields, "pass") == "true";
  result.locked = field_or(fields, "locked") == "true";
  result.supervised = field_or(fields, "supervised") == "true";
  result.failure_reason = field_or(fields, "failure_reason");
  result.failure_detail = field_or(fields, "failure_detail");
  result.error_detail = field_or(fields, "error_detail");
  const std::string& error = field_or(fields, "error_kind");
  if (error == "exception") {
    result.error = ScenarioError::kException;
  } else if (error == "timeout") {
    result.error = ScenarioError::kTimeout;
  } else if (error == "crash") {
    result.error = ScenarioError::kCrash;
  } else if (error == "resource_limit") {
    result.error = ScenarioError::kResourceLimit;
  } else if (error == "worker_lost") {
    result.error = ScenarioError::kWorkerLost;
  }
  const std::string& attempts = field_or(fields, "attempts");
  if (!attempts.empty()) {
    result.attempts = std::atoi(attempts.c_str());
  }
  const std::string& seed = field_or(fields, "seed");
  if (!seed.empty()) {
    result.seed = std::strtoull(seed.c_str(), nullptr, 10);
  }
  const std::string& periods = field_or(fields, "periods");
  if (!periods.empty()) {
    result.periods = std::strtoull(periods.c_str(), nullptr, 10);
  }
  return result;
}

JobLedger::JobLedger(std::vector<ScenarioSpec> specs, const std::string& dir,
                     bool resume)
    : specs_(std::move(specs)),
      lines_(specs_.size()),
      health_(specs_.size()) {
  std::map<std::string, std::size_t> index_of;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (!index_of.emplace(specs_[i].name, i).second) {
      throw std::invalid_argument("campaign: duplicate scenario name '" +
                                  specs_[i].name +
                                  "' (the journal is keyed by name)");
    }
  }
  if (dir.empty()) {
    return;
  }
  std::filesystem::create_directories(dir);
  const std::string fingerprint = fingerprint_of(specs_);
  if (resume) {
    resume_journal(dir, fingerprint, index_of, lines_, health_);
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      if (done(i)) {
        ++restored_;
        passed_ += result(i).verdict() == "pass" ? 1 : 0;
      }
    }
    completed_ = restored_;
  }
  fd_ = open_journal(dir, fingerprint, specs_.size(), /*append=*/resume);
}

JobLedger::~JobLedger() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

void JobLedger::commit(std::size_t index, ExecutedScenario row) {
  std::string record;
  if (fd_ >= 0) {
    for (const std::string& health_line : row.health_lines) {
      record += health_line;
      record += '\n';
    }
    record += row.line;
    record += '\n';
  }
  const bool pass = row.result.verdict() == "pass";
  const std::lock_guard<std::mutex> lock(mutex_);
  // A failed append may leave partial bytes; nothing appends after them,
  // so the next resume cuts them as a torn tail.
  const int failed =
      fd_ >= 0 && failed_errno_ == 0 ? write_all(fd_, record) : 0;
  if (failed != 0) {
    failed_errno_ = failed;
  }
  lines_[index] = std::move(row.line);
  health_[index] = std::move(row.health_lines);
  ++completed_;
  passed_ += pass ? 1 : 0;
  if (failed != 0) {
    throw_io_error(failed);
  }
}

ScenarioResult JobLedger::result(std::size_t index) const {
  const auto fields = analysis::parse_flat_json_line(lines_[index]);
  return fields ? reconstruct_result(*fields) : ScenarioResult{};
}

}  // namespace ddl::scenario
