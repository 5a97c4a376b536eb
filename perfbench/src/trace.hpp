#pragma once
// Host-clock spans recorded from the benchmark's own files, around its
// calls into the bitio layers.  Nothing inside src/ is instrumented.
//
// A Span always times itself (the untraced run needs phase times for the
// end-to-end metrics); only when the Tracer is enabled does it also append
// a record — name, start, end, parent — to the in-memory list that is
// summarised into per-layer self times and exported as one Chrome
// trace-event file when the run ends.  The benchmark is single-threaded, so
// spans nest strictly and a stack of open spans gives each one its parent.

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  struct Record {
    std::string name;
    double start_s = 0.0;  // since the tracer was created
    double end_s = 0.0;
    int parent = -1;       // index into records(), -1 for a root span
  };

  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  /// Open a span starting at `start`; returns its index, or -1 when off.
  int open(std::string name, Clock::time_point start);
  void close(int id, Clock::time_point end);

  const std::vector<Record>& records() const { return records_; }
  /// Per span name: summed duration minus the time its child spans cover.
  std::map<std::string, double> self_seconds() const;
  /// Chrome trace-event JSON ("X" complete events, microseconds), loadable
  /// in chrome://tracing or Perfetto.  Returns false when the file cannot
  /// be written.
  bool write_chrome_trace(const std::string& path,
                          const std::string& process_name) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<int> open_;  // stack of open span indices
};

/// RAII phase timer; records a span into `tracer` when tracing is on.
class Span {
 public:
  Span(Tracer& tracer, std::string name)
      : tracer_(tracer), start_(Clock::now()),
        id_(tracer.open(std::move(name), start_)) {}
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Close the span (idempotent) and return its duration in seconds.
  double stop() {
    if (!stopped_) {
      const auto end = Clock::now();
      elapsed_ = seconds_between(start_, end);
      tracer_.close(id_, end);
      stopped_ = true;
    }
    return elapsed_;
  }

 private:
  Tracer& tracer_;
  Clock::time_point start_;
  int id_;
  bool stopped_ = false;
  double elapsed_ = 0.0;
};

}  // namespace perfbench
