// Heap-in-use sampler for the peak_heap_mb metric.
//
// A background thread reads malloc's own accounting (mallinfo2: bytes in
// use in every arena plus mmapped chunks) every 2 ms during the timed pass,
// so the benchmark sees memory over time without reading any file.
#pragma once

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

class HeapSampler {
 public:
  HeapSampler();
  ~HeapSampler();  // stops and joins the sampling thread
  HeapSampler(const HeapSampler&) = delete;
  HeapSampler& operator=(const HeapSampler&) = delete;

  // Stops sampling and returns the (clock_ms, bytes in use) samples.
  std::vector<std::pair<double, double>> stop();

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::pair<double, double>> samples_;  // sampling thread only
  std::thread thread_;
};

}  // namespace perfbench
