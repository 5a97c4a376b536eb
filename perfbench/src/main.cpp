// bitio repository benchmark: the perfbench program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <chrome-trace.json>]
//
// Runs one workload in this process for about --seconds, checks its
// outputs, and prints information lines followed by one JSON object as the
// last line of stdout: {"attempted", "correct", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// metrics of a traced run (spans from this program only; see README.md).

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include <malloc.h>
#include <sys/resource.h>

#include "bench.hpp"

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Printed for every workload; a layer a workload does not exercise reads 0
// (the "predicted no change" side of the layer -> end-to-end map).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"epoch_host_s", "s"},
    {"commit_host_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"model_write_gibps", "GiB/s"},
    {"model_meta_s_per_proc", "s"},
    {"stored_bytes_per_payload_byte", "ratio"},
};

constexpr MetricSpec kPerLayer[] = {
    {"bp.make_engine_s", "s"},
    {"bp.put_s", "s"},
    {"bp.end_step_s", "s"},
    {"bp.close_s", "s"},
    {"bp.puts", "count"},
    {"bp.files", "count"},
    {"bp.md_bytes", "B"},
    {"fsim.client_s", "s"},
    {"fsim.trace_ops", "count"},
    {"fsim.meta_ops", "count"},
    {"fsim.replay_s", "s"},
    {"fsim.replay_ops_per_s", "1/s"},
    {"fsim.mds_busy_s", "s"},
    {"fsim.ost_busy_max_s", "s"},
    {"darshan.capture_s", "s"},
    {"darshan.serialize_s", "s"},
    {"darshan.parse_s", "s"},
    {"darshan.log_bytes", "B"},
    {"kernel.probe_bytes", "B"},
    {"util.crc32c_MBps", "MB/s"},
    {"util.hash64_MBps", "MB/s"},
    {"compress.blosc_compress_MBps", "MB/s"},
    {"compress.blosc_decompress_MBps", "MB/s"},
    {"compress.blosc_ratio", "ratio"},
    {"picmc.step_s", "s"},
    {"resil.stage_s", "s"},
    {"resil.commit_s", "s"},
    {"resil.restore_s", "s"},
    {"resil.bytes_stored", "B"},
    {"resil.dedup_bytes_saved", "B"},
    {"resil.blocks_restored", "count"},
    {"trace.spans", "count"},
    {"trace.overhead_ratio", "ratio"},
};

// Spans whose self time is a layer metric "<span>_s".
constexpr const char* kLayerSpans[] = {
    "bp.make_engine",  "bp.put",            "bp.end_step",   "bp.close",
    "fsim.client",     "fsim.replay",       "darshan.capture",
    "darshan.serialize", "darshan.parse",   "picmc.step",
    "resil.stage",     "resil.commit",      "resil.restore",
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n"
               "workloads: fig6_dardel200.agg1 fig6_dardel200.agg400 "
               "fig6_dardel200.agg25600 original_dardel200 ckpt_live\n",
               why);
  return 2;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Ledger::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

bool UnitLoop::next() {
  const auto now = Clock::now();
  if (started_) durations_.push_back(seconds_between(last_, now));
  started_ = true;
  last_ = now;
  if (durations_.size() < kMinUnits) return true;
  return seconds_between(start_, now) + median(durations_) <= seconds_;
}

void info(const char* format, ...) {
  std::va_list args;
  va_start(args, format);
  std::printf("# ");
  std::vprintf(format, args);
  std::printf("\n");
  va_end(args);
}

ReplayCounters replay_counters(const bitio::fsim::ReplayReport& replay,
                               std::uint64_t trace_ops) {
  ReplayCounters c;
  c.trace_ops = trace_ops;
  for (const auto& client : replay.clients) c.meta_ops += client.meta_ops;
  c.mds_busy_s = replay.mds_busy_seconds;
  for (const double busy : replay.ost_busy_seconds)
    c.ost_busy_max_s = std::max(c.ost_busy_max_s, busy);
  return c;
}

void report_layers(const Options& options, const Tracer& tracer,
                   std::size_t units, const ReplayCounters& fsim,
                   const std::vector<double>& traced_unit_s,
                   const std::vector<double>& untraced_unit_s, Metrics& m) {
  const auto self = tracer.self_seconds();
  for (const char* span : kLayerSpans) {
    const auto it = self.find(span);
    m[std::string(span) + "_s"] =
        it == self.end() ? 0.0 : it->second / double(units);
  }
  const double replay_s = m["fsim.replay_s"];
  m["fsim.trace_ops"] = double(fsim.trace_ops);
  m["fsim.meta_ops"] = double(fsim.meta_ops);
  m["fsim.replay_ops_per_s"] =
      replay_s > 0 ? double(fsim.trace_ops) / replay_s : 0.0;
  m["fsim.mds_busy_s"] = fsim.mds_busy_s;
  m["fsim.ost_busy_max_s"] = fsim.ost_busy_max_s;
  m["trace.spans"] = double(tracer.records().size());
  m["trace.overhead_ratio"] =
      median(traced_unit_s) / median(untraced_unit_s);
  if (!options.trace_out.empty() &&
      !tracer.write_chrome_trace(options.trace_out, options.workload))
    info("could not write %s", options.trace_out.c_str());
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Pin glibc's mmap threshold at its initial 128 KiB.  Left adaptive, a
  // process lands in one of two allocator modes at random (large blocks
  // mmapped per use, or kept in the heap once the threshold has grown),
  // ~25 % apart in epoch time and ~10 % in peak RSS.  Pinned, large blocks
  // are always mapped and returned, so peak RSS is the live peak.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 0);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(options.seconds > 0)) return usage("--seconds must be positive");

  Result result;
  try {
    const std::string& w = options.workload;
    if (w == "fig6_dardel200.agg1")
      result = run_fig6_point(options, 1);
    else if (w == "fig6_dardel200.agg400")
      result = run_fig6_point(options, 400);
    else if (w == "fig6_dardel200.agg25600")
      result = run_fig6_point(options, 25600);
    else if (w == "original_dardel200")
      result = run_original(options);
    else if (w == "ckpt_live")
      result = run_ckpt_live(options);
    else
      return usage(("unknown workload " + w).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  std::string metrics;
  auto emit = [&](const MetricSpec& spec) {
    const auto it = result.metrics.find(spec.name);
    const double value = it == result.metrics.end() ? 0.0 : it->second;
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + spec.name + "\": {\"value\": " +
               number(value) + ", \"unit\": \"" + spec.unit + "\"}";
    if (!options.trace || it != result.metrics.end())
      info("%-32s %s %s", spec.name, number(value).c_str(), spec.unit);
  };
  if (options.trace)
    for (const auto& spec : kPerLayer) emit(spec);
  else
    for (const auto& spec : kEndToEnd) emit(spec);

  const Ledger& ledger = result.ledger;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      ledger.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(ledger.attempted),
      static_cast<unsigned long long>(ledger.failed), metrics.c_str());
  return 0;
}
