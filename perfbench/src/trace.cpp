#include "trace.h"

#include <fstream>
#include <functional>
#include <map>
#include <thread>

namespace perfbench {

namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<std::uint64_t> t_open;

std::uint64_t thread_tag() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

void append_escaped(std::string& out, const std::string& text) {
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
}

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, std::string_view name,
                     std::uint64_t key) {
  if (!tracer.enabled()) {
    return;
  }
  tracer_ = &tracer;
  span_.name = std::string(name);
  span_.key = key;
  span_.parent = t_open.empty() ? 0 : t_open.back();
  {
    const std::lock_guard<std::mutex> lock(tracer.mutex_);
    span_.id = tracer.next_id_++;
  }
  t_open.push_back(span_.id);
  span_.start_us = tracer.now_us();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) {
    return;
  }
  span_.end_us = tracer_->now_us();
  t_open.pop_back();
  span_.thread = thread_tag();
  const std::lock_guard<std::mutex> lock(tracer_->mutex_);
  tracer_->spans_.push_back(std::move(span_));
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::vector<double> Tracer::durations_us(std::string_view name) const {
  std::vector<double> out;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.push_back(span.duration_us());
    }
  }
  return out;
}

std::vector<double> Tracer::self_us(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::uint64_t, double> child_us;
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      child_us[span.parent] += span.duration_us();
    }
  }
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      const auto it = child_us.find(span.id);
      out.push_back(span.duration_us() -
                    (it == child_us.end() ? 0.0 : it->second));
    }
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::string out = "{\"traceEvents\":[\n";
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::uint64_t, int> tids;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      const int tid =
          tids.emplace(span.thread, static_cast<int>(tids.size())).first->second;
      out += "{\"name\":\"";
      append_escaped(out, span.name);
      out += "\",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(tid) +
             ",\"ts\":" + std::to_string(span.start_us) +
             ",\"dur\":" + std::to_string(span.duration_us()) +
             ",\"args\":{\"id\":" + std::to_string(span.id) +
             ",\"parent\":" + std::to_string(span.parent) +
             ",\"key\":" + std::to_string(span.key) + "}}";
      out += i + 1 < spans_.size() ? ",\n" : "\n";
    }
  }
  out += "]}\n";
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << out;
  return static_cast<bool>(file);
}

}  // namespace perfbench
