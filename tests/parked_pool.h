// Test helper: parks every worker of a ThreadPool until Release(), so tasks
// submitted in the meantime wait in the pool's FIFO queue. A test can then
// hold admitted predicts in flight deterministically, without sleeps or
// timing windows.
#pragma once

#include <cstddef>
#include <latch>
#include <memory>

#include "common/thread_pool.h"

namespace grafics {

class ParkedPool {
 public:
  /// Returns once every worker of `pool` is blocked in a parking task.
  explicit ParkedPool(ThreadPool& pool)
      : latches_(std::make_shared<Latches>(pool.num_threads())) {
    for (std::size_t i = 0; i < pool.num_threads(); ++i) {
      pool.Submit([latches = latches_] {
        latches->parked.count_down();
        latches->release.wait();
      });
    }
    latches_->parked.wait();
  }
  ~ParkedPool() { Release(); }

  ParkedPool(const ParkedPool&) = delete;
  ParkedPool& operator=(const ParkedPool&) = delete;

  /// Unparks the workers; the queued tasks then run in submission order.
  /// Idempotent.
  void Release() {
    if (released_) return;
    released_ = true;
    latches_->release.count_down();
  }

 private:
  struct Latches {
    explicit Latches(std::size_t workers)
        : parked(static_cast<std::ptrdiff_t>(workers)) {}
    std::latch parked;
    std::latch release{1};
  };
  // Shared with the parking tasks, which may still be returning from the
  // release latch after this object is gone.
  std::shared_ptr<Latches> latches_;
  bool released_ = false;
};

}  // namespace grafics
