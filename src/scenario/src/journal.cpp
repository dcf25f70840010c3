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

JournalState resume_journal(const std::string& dir,
                            const std::string& fingerprint,
                            std::size_t scenarios) {
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
      field_or(*fields, "scenarios") != std::to_string(scenarios)) {
    throw std::runtime_error(
        "campaign: manifest in '" + dir +
        "' was written for a different scenario list (suite/filter "
        "mismatch?); refusing to resume");
  }

  // Health lines stay pending until their record's result line commits
  // them.  The first line that does not parse (a torn tail) ends the scan.
  JournalState state;
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
    const std::string& name = field_or(*record, "name");
    state.health[name] = std::move(pending);
    state.lines[name] = std::move(line);
    pending.clear();
    committed_end = end + 1;
  }
  if (committed_end < content.size()) {
    std::filesystem::resize_file(path, committed_end);
  }
  return state;
}

RestoredRows restore_rows(const JournalState& state,
                          const std::vector<ScenarioSpec>& specs) {
  RestoredRows rows;
  rows.lines.resize(specs.size());
  rows.health.resize(specs.size());
  rows.results.resize(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto line_it = state.lines.find(specs[i].name);
    if (line_it == state.lines.end()) {
      continue;
    }
    rows.lines[i] = line_it->second;
    const auto health_it = state.health.find(specs[i].name);
    if (health_it != state.health.end()) {
      rows.health[i] = health_it->second;
    }
    const auto fields = analysis::parse_flat_json_line(line_it->second);
    rows.results[i] = fields ? reconstruct_result(*fields) : ScenarioResult{};
    ++rows.restored;
    rows.passed += rows.results[i].verdict() == "pass" ? 1 : 0;
  }
  return rows;
}

JournalWriter::JournalWriter(const std::string& dir,
                             const std::string& fingerprint,
                             std::size_t scenarios, bool append) {
  const int flags = O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC |
                    (append ? 0 : O_TRUNC);
  fd_ = ::open(journal_path(dir).c_str(), flags, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("campaign: cannot open the journal in " + dir);
  }
  if (append) {
    return;
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
    ::close(fd_);
    throw;
  }
}

JournalWriter::~JournalWriter() { ::close(fd_); }

void JournalWriter::record(const std::string& line,
                           const std::vector<std::string>& health_lines) {
  std::string buffer;
  for (const std::string& health_line : health_lines) {
    buffer += health_line;
    buffer += '\n';
  }
  buffer += line;
  buffer += '\n';
  const std::lock_guard<std::mutex> lock(mutex_);
  // A failed append may leave partial bytes; nothing appends after them,
  // so the next resume cuts them as a torn tail.
  if (failed_errno_ == 0) {
    failed_errno_ = write_all(fd_, buffer);
  }
  if (failed_errno_ != 0) {
    throw_io_error(failed_errno_);
  }
}

}  // namespace ddl::scenario
