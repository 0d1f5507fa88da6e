// Spans for the traced run. The benchmark opens and closes them around its
// own calls into the dynreg layers; nothing inside the library is
// instrumented. Spans live in memory and are written out once, at exit.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  ///< seconds since the tracer was created
    double end = 0.0;
    int parent = -1;  ///< index of the enclosing span, -1 at the root
  };

  int open(const char* name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, now(), 0.0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }

  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = now();
    stack_.pop_back();
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Durations of every span named `name`, in opening order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.end - s.start);
    }
    return out;
  }

  /// Summed duration of every span named `name`.
  [[nodiscard]] double total(const std::string& name) const {
    double sum = 0.0;
    for (const double d : durations(name)) sum += d;
    return sum;
  }

  /// total(name) minus the part of those spans their direct children cover.
  [[nodiscard]] double self(const std::string& name) const {
    double sum = total(name);
    for (const Span& s : spans_) {
      if (s.parent >= 0 && spans_[static_cast<std::size_t>(s.parent)].name == name) {
        sum -= s.end - s.start;
      }
    }
    return sum;
  }

  /// Writes every span and the run's metrics to `path` as one JSON object.
  bool write(const std::string& path, const std::map<std::string, double>& metrics) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%s\n {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, \"parent\": %d}",
                   i == 0 ? "" : ",", i, s.name.c_str(), s.start, s.end, s.parent);
    }
    std::fprintf(f, "],\n\"metrics\": {");
    const char* sep = "";
    for (const auto& [name, value] : metrics) {
      std::fprintf(f, "%s\n \"%s\": %.17g", sep, name.c_str(), value);
      sep = ",";
    }
    std::fprintf(f, "}}\n");
    return std::fclose(f) == 0;
  }

 private:
  [[nodiscard]] double now() const { return seconds_since(origin_); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;  // open spans, innermost last
};

/// One span for the lifetime of the scope.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name) : tracer_(tracer), id_(tracer.open(name)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
