// Fixture: harness::parallel_for is where the library's threads start; the
// thread-scope rule leaves this one file alone.
#include <thread>
#include <vector>

namespace fixture {

void parallel_for(unsigned threads, void (*claim_and_run)()) {
  std::vector<std::thread> helpers;
  for (unsigned t = 1; t < threads; ++t) helpers.emplace_back(claim_and_run);
  claim_and_run();
  for (auto& helper : helpers) helper.join();
}

unsigned resolve_jobs() { return std::thread::hardware_concurrency(); }

}  // namespace fixture
