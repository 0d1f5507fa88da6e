// perfbench_reference: a fixed reference workload that measures how fast the
// host runs right now, as a process of its own.
//
//   perfbench_reference --nodes <n> --events <n>
//
// A small message-passing simulation in the style of the dynreg library (a
// binary-heap event queue, small heap-allocated payloads, per-node hash
// tables, branchy handlers) written in the benchmark's own code and linking
// nothing from dynreg, so no change to the library changes its cost.
// Prints one JSON object on stdout: {"seconds": ..., "digest": ...}.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kKeys = 256;  // per node

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

struct Message {
  std::uint32_t from = 0;
  std::uint64_t key = 0;
  std::uint64_t value = 0;
  std::vector<std::uint32_t> path;
};

struct Event {
  std::uint64_t time = 0;
  std::uint64_t seq = 0;
  std::uint32_t to = 0;
  std::shared_ptr<Message> msg;
  bool operator>(const Event& o) const {
    return time != o.time ? time > o.time : seq > o.seq;
  }
};

/// Runs `events` deliveries and returns a digest of the final state.
std::uint64_t simulate(std::uint32_t nodes, std::uint64_t events) {
  std::vector<std::unordered_map<std::uint64_t, std::uint64_t>> table(nodes);
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::uint64_t rng = 1;
  std::uint64_t seq = 0;
  const auto send = [&](std::uint64_t now, std::uint32_t from, std::uint64_t key,
                        std::uint64_t value, const std::vector<std::uint32_t>& path) {
    rng = mix(rng);
    auto msg = std::make_shared<Message>(Message{from, key, value, path});
    msg->path.push_back(from);
    queue.push(Event{now + 1 + rng % 16, seq++, static_cast<std::uint32_t>((rng >> 20) % nodes),
                     std::move(msg)});
  };
  for (std::uint32_t n = 0; n < nodes; ++n) send(0, n, n % kKeys, n, {});
  std::uint64_t digest = 0;
  for (std::uint64_t e = 0; e < events && !queue.empty(); ++e) {
    Event ev = queue.top();
    queue.pop();
    const Message& m = *ev.msg;
    std::uint64_t& slot = table[ev.to][m.key];
    if (m.value > slot) {
      slot = m.value;  // newer value: adopt it and pass it on
      if (m.path.size() < 6) send(ev.time, ev.to, m.key, m.value, m.path);
    } else {
      digest += slot;  // stale: answer with ours
    }
    rng = mix(rng);
    if (queue.size() < nodes || rng % 4 == 0) {
      send(ev.time, ev.to, rng % kKeys, m.value + 1 + (rng >> 40) % 3, {});
    }
  }
  for (const auto& t : table) digest += t.size();
  return digest;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 5 || std::strcmp(argv[1], "--nodes") != 0 || std::atoll(argv[2]) < 1 ||
      std::strcmp(argv[3], "--events") != 0 || std::atoll(argv[4]) < 1) {
    std::fprintf(stderr, "usage: perfbench_reference --nodes <n> --events <n>\n");
    return 2;
  }
  const auto nodes = static_cast<std::uint32_t>(std::atoll(argv[2]));
  const auto events = static_cast<std::uint64_t>(std::atoll(argv[4]));
  const Clock::time_point t0 = Clock::now();
  const std::uint64_t digest = simulate(nodes, events);
  const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  std::printf("{\"seconds\": %.9g, \"digest\": %llu}\n", seconds,
              static_cast<unsigned long long>(digest));
  return 0;
}
