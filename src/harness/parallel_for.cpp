#include "harness/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace dynreg::harness {

std::size_t resolve_jobs(std::size_t jobs) {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void parallel_for(std::size_t jobs, std::size_t count, const IndexBody& body) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  // Each thread takes the next unclaimed index until none is left.
  const auto claim_and_run = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  const std::size_t threads = std::min(resolve_jobs(jobs), count);
  std::vector<std::thread> helpers;
  for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(claim_and_run);
  claim_and_run();
  // join() publishes each helper's writes (its bodies' result slots and any
  // caught exception) to the calling thread.
  for (auto& helper : helpers) helper.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace dynreg::harness
