#include "ddl/scenario/engine.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <memory>
#include <utility>

namespace ddl::scenario {

UnitEngine::UnitEngine(std::size_t workers, IsolationConfig isolation,
                       Callback on_done, const std::atomic<bool>* stop_flag)
    : isolation_(isolation),
      on_done_(std::move(on_done)),
      stop_flag_(stop_flag),
      slots_(std::max<std::size_t>(workers, 1)) {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

UnitEngine::~UnitEngine() { stop(); }

bool UnitEngine::halted() const {
  return stopping_ || error_ != nullptr ||
         (stop_flag_ != nullptr &&
          stop_flag_->load(std::memory_order_relaxed));
}

void UnitEngine::submit(DispatchUnit unit) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(unit));
  }
  work_cv_.notify_one();
}

std::vector<DispatchUnit> UnitEngine::take_queued(const std::string* job) {
  const auto taken = std::stable_partition(
      queue_.begin(), queue_.end(), [job](const DispatchUnit& unit) {
        return job != nullptr && unit.job != *job;
      });
  std::vector<DispatchUnit> out(std::make_move_iterator(taken),
                                std::make_move_iterator(queue_.end()));
  queue_.erase(taken, queue_.end());
  return out;
}

std::vector<DispatchUnit> UnitEngine::withdraw(const std::string& job) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Slot& slot : slots_) {
    if (slot.executor != nullptr && slot.job == job) {
      slot.executor->interrupt();
    }
  }
  return take_queued(&job);
}

void UnitEngine::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  // Polled too: a signal handler raises the stop flag without a notify.
  while (!idle_cv_.wait_for(lock, std::chrono::milliseconds(20), [this] {
    return busy_ == 0 && (queue_.empty() || halted());
  })) {
  }
  if (error_ != nullptr) {
    std::rethrow_exception(error_);
  }
}

std::vector<DispatchUnit> UnitEngine::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& thread : threads_) {
    thread.join();
  }
  threads_.clear();
  std::lock_guard<std::mutex> lock(mutex_);
  return take_queued(nullptr);
}

void UnitEngine::worker_main(std::size_t index) {
  // The executor owns a long-lived sandbox child (respawned on death)
  // whose sizing caches persist across units.
  std::unique_ptr<ScenarioExecutor> executor;
  Slot& slot = slots_[index];
  for (;;) {
    DispatchUnit unit;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] {
        return stopping_ || (!queue_.empty() && !halted());
      });
      if (stopping_) {
        return;
      }
      unit = std::move(queue_.front());
      queue_.pop_front();
      if (!executor) {
        executor = std::make_unique<ScenarioExecutor>(isolation_, &counters_);
      }
      // Registered before the lock is released: withdraw() sees this unit
      // either queued or interruptible.
      slot = Slot{executor.get(), unit.job};
      ++busy_;
    }
    std::vector<ExecutedScenario> rows = executor->run_unit(unit.specs);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      slot.executor = nullptr;
    }
    // Re-armed after deregistering: a flag still set here was aimed at
    // this unit (consumed as a withdrawal, or raced a unit that finished
    // anyway), never at the next one.
    executor->clear_interrupt();
    try {
      on_done_(std::move(unit), std::move(rows));
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (error_ == nullptr) {
        error_ = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --busy_;
    }
    idle_cv_.notify_all();
  }
}

}  // namespace ddl::scenario
