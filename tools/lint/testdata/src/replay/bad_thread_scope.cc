// Fixture: starting a thread anywhere in src/ but harness::parallel_for must
// be flagged.
#include <future>
#include <thread>

namespace fixture {

void fan_out(void (*work)()) {
  std::thread t(work);  // MUST-FLAG thread-scope
  t.join();
  std::jthread j(work);  // MUST-FLAG thread-scope
  auto f = std :: async(work);  // MUST-FLAG thread-scope
  f.get();
}

unsigned cores() {
  return std::thread::hardware_concurrency();  // MUST-FLAG thread-scope
}

// A comment naming std::thread or std::async is not a use.
const char* kDoc = "std::jthread in a string is not a use either";

}  // namespace fixture
