// The unit engine: the one executor pool under the Campaign and the
// campaign service daemon.  Dispatch units (one spec, an MC-yield batch
// group or a closed-loop lane stream; batch_plan.h) queue FIFO, tagged
// with a job key, and run on `workers` threads that each own one sandbox
// ScenarioExecutor (sandbox.h), counting into one shared SandboxCounters.
//
// The stop rule, written once: a worker claims a unit only while stop()
// has not been called, no callback has thrown, and the optional external
// stop flag (a SIGTERM handler's) reads false.  Units already running
// finish and call back, so a journal written from the callback stays
// resumable and non-torn.  A claimed unit is registered as interruptible
// before the queue lock is released, so withdraw() finds every unit of a
// job either still queued or already interruptible.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ddl/scenario/sandbox.h"

namespace ddl::scenario {

/// One unit of work: specs that run together in one sandbox worker.
struct DispatchUnit {
  std::string job;                   ///< withdraw() key.
  std::vector<std::size_t> indices;  ///< The caller's tag for each member.
  std::vector<ScenarioSpec> specs;
};

class UnitEngine {
 public:
  /// Called once per finished unit with one row per member, or with no
  /// rows when the unit was withdrawn.  Runs on a worker thread; an
  /// exception it throws halts claiming and is rethrown by wait().
  using Callback =
      std::function<void(DispatchUnit, std::vector<ExecutedScenario>)>;

  /// Starts `workers` threads (at least one).  `stop_flag`, when given,
  /// must outlive the engine.
  UnitEngine(std::size_t workers, IsolationConfig isolation,
             Callback on_done, const std::atomic<bool>* stop_flag = nullptr);
  ~UnitEngine();

  UnitEngine(const UnitEngine&) = delete;
  UnitEngine& operator=(const UnitEngine&) = delete;

  void submit(DispatchUnit unit);

  /// Removes `job`'s queued units and returns them; interrupts its running
  /// units, which call back with no rows.
  std::vector<DispatchUnit> withdraw(const std::string& job);

  /// Blocks until no unit runs and none is claimable: every submitted unit
  /// has called back, or the stop rule holds the rest (a raised stop flag
  /// is seen within 20 ms).  Rethrows the first exception a callback threw.
  void wait();

  /// Graceful stop; returns the units never claimed, in queue order.
  /// Idempotent.
  std::vector<DispatchUnit> stop();

  const SandboxCounters& counters() const noexcept { return counters_; }

 private:
  /// What withdraw() may interrupt: one entry per worker thread, its
  /// executor set while a unit runs.
  struct Slot {
    ScenarioExecutor* executor = nullptr;
    std::string job;
  };

  bool halted() const;
  /// Removes and returns the queued units of `job` (all when null); the
  /// caller holds `mutex_`.
  std::vector<DispatchUnit> take_queued(const std::string* job);
  void worker_main(std::size_t index);

  const IsolationConfig isolation_;
  const Callback on_done_;
  const std::atomic<bool>* const stop_flag_;
  SandboxCounters counters_;

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<DispatchUnit> queue_;
  std::vector<Slot> slots_;
  std::size_t busy_ = 0;  ///< Units claimed and not yet called back.
  bool stopping_ = false;
  std::exception_ptr error_;
  std::vector<std::thread> threads_;
};

}  // namespace ddl::scenario
