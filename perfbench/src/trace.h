// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only in the benchmark's own files, around each call
// into a library layer: name, start, end, the span that caused it (the
// enclosing span on the same thread) and a key naming the scenario or job
// the call served.  Nothing is written until the run ends, so recording
// costs two clock reads and one locked push per span.  A disabled tracer
// records nothing; the end-to-end numbers always come from untraced loops.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = a root span.
  std::uint64_t key = 0;     ///< Scenario / job / round id.
  std::uint64_t thread = 0;
  double start_us = 0.0;     ///< Since the tracer was created.
  double end_us = 0.0;

  double duration_us() const noexcept { return end_us - start_us; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }

  /// RAII span: opens on construction, records on destruction.  Spans
  /// nest per thread; the innermost open span is the parent.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name, std::uint64_t key);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;  ///< Null when tracing is off.
    Span span_;
  };

  Scope span(std::string_view name, std::uint64_t key = 0) {
    return Scope(*this, name, key);
  }

  /// Durations (us) of every span called `name`.
  std::vector<double> durations_us(std::string_view name) const;

  /// Self times (us) of every span called `name`: its duration minus the
  /// part its direct child spans cover.
  std::vector<double> self_us(std::string_view name) const;

  std::size_t size() const;

  /// Writes the spans as Chrome trace-event JSON ("X" events; args carry
  /// the span id, parent and key).  False when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  double now_us() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< Guarded by mutex_.
  std::uint64_t next_id_ = 1;  ///< Guarded by mutex_.
};

}  // namespace perfbench
