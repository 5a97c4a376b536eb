#pragma once
// Shared plumbing of the perfbench program: run options, the metric table,
// the attempted/failed ledger, unit pacing, and the per-layer report every
// traced run ends with.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fsim/storage_model.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace file of a traced run ("" = none)
};

/// Metric name -> value; units live in main.cpp's metric tables.
using Metrics = std::map<std::string, double>;

/// Operations attempted / failed.  Every in-band correctness check is one
/// operation; a failed one is reported on stderr.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void check(bool ok, const std::string& what);
};

/// What a workload hands back to main(): the end-to-end metrics of an
/// untraced run, or the per-layer metrics of a traced one.
struct Result {
  Metrics metrics;
  Ledger ledger;
};

double median(std::vector<double> values);

/// Paces a run's units: at least kMinUnits, then another only while the
/// median unit so far still ends within `seconds` of the start.
class UnitLoop {
 public:
  static constexpr std::size_t kMinUnits = 3;
  explicit UnitLoop(double seconds)
      : seconds_(seconds), start_(Clock::now()), last_(start_) {}
  /// Call before each unit; false once the run's time is used up.
  bool next();

 private:
  double seconds_;
  Clock::time_point start_, last_;
  std::vector<double> durations_;
  bool started_ = false;
};

/// Peak resident set of this process so far (getrusage ru_maxrss), MiB.
double peak_rss_mib();

/// Print an information line ("# ...") beside the JSON result.
void info(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// The fsim.* counters of one replay of a `trace_ops`-op trace.
struct ReplayCounters {
  std::uint64_t trace_ops = 0;
  std::uint64_t meta_ops = 0;
  double mds_busy_s = 0.0;
  double ost_busy_max_s = 0.0;
};
ReplayCounters replay_counters(const bitio::fsim::ReplayReport& replay,
                               std::uint64_t trace_ops);

/// Shared tail of a traced run: each layer span's self time per unit
/// ("<span>_s"), the fsim counters, the span count and the tracing
/// overhead (median traced unit / median untraced unit) into `m`; then
/// the Chrome trace file.
void report_layers(const Options& options, const Tracer& tracer,
                   std::size_t units, const ReplayCounters& fsim,
                   const std::vector<double>& traced_unit_s,
                   const std::vector<double>& untraced_unit_s, Metrics& m);

// Workload entry points (epochs.cpp, ckpt_live.cpp).
Result run_fig6_point(const Options& options, int aggregators);
Result run_original(const Options& options);
Result run_ckpt_live(const Options& options);

}  // namespace perfbench
