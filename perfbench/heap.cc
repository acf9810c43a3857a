#include "heap.h"

#include <malloc.h>

#include <chrono>

#include "trace.h"

namespace perfbench {

HeapSampler::HeapSampler()
    : thread_([this] {
        while (!stop_.load(std::memory_order_relaxed)) {
          const struct mallinfo2 mi = mallinfo2();
          samples_.emplace_back(clock_ms(),
                                static_cast<double>(mi.uordblks + mi.hblkhd));
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }) {}

HeapSampler::~HeapSampler() { stop(); }

std::vector<std::pair<double, double>> HeapSampler::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  return std::move(samples_);
}

}  // namespace perfbench
