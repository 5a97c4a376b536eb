// The fig6_dardel200.* and original_dardel200 workloads.
//
// core::run_openpmd_epoch / core::run_original_epoch are single calls, so
// each unit here re-drives their sequence of public calls — SharedFs,
// FsClient ops, bp::make_engine, Engine::put_synthetic / end_step / close,
// fsim::replay_trace — with a Span around each layer call.  Each traced run
// checks that mirror bit for bit against the core function (makespan,
// bytes written, file count, max file size, per-process metadata time).

#include <algorithm>
#include <memory>

#include "bench.hpp"
#include "bp/engine.hpp"
#include "core/workload.hpp"
#include "darshan/darshan.hpp"
#include "fsim/posix_fs.hpp"
#include "fsim/system_profiles.hpp"
#include "util/units.hpp"

namespace perfbench {

namespace {

using namespace bitio;

constexpr int kNodes = 200;  // 200 x 128 = 25 600 ranks
// Record sizes of the original path (core/workload.cpp).
constexpr std::uint64_t kStdioRecord = 2 * KiB;
constexpr std::uint64_t kBinaryRecord = 64 * KiB;
constexpr std::uint64_t kInputBytes = 2 * KiB;

/// The workload seed perturbs the Dardel noise stream; seed 0 keeps
/// fsim::dardel()'s own seed, i.e. the numbers the figure benches print.
fsim::SystemProfile dardel_profile(std::uint64_t seed) {
  fsim::SystemProfile profile = fsim::dardel();
  profile.noise_seed ^= seed;
  return profile;
}

core::Bit1IoConfig openpmd_config(int aggregators) {
  core::Bit1IoConfig config;
  config.mode = core::IoMode::openpmd;
  config.engine = "bp4";
  config.num_aggregators = aggregators;
  config.codec = "none";
  return config;
}

std::uint32_t record_count(std::uint64_t bytes, std::uint64_t record) {
  return std::uint32_t(
      std::max<std::uint64_t>(1, (bytes + record - 1) / record));
}

/// One mirrored epoch: the core EpochResult plus host phase times and the
/// per-layer counters the trace cannot see.
struct EpochRun {
  core::EpochResult result;
  double setup_s = 0.0;   // SharedFs + engine creation
  double commit_s = 0.0;  // output phase up to the last close
  double epoch_s = 0.0;   // everything but set-up
  std::uint64_t expected_files = 0;  // file population of the output dir
  std::uint64_t payload_bytes = 0;   // bytes handed to the writer
  std::uint64_t stored_bytes = 0;    // bytes the files hold for them
  std::uint64_t puts = 0;
  std::uint64_t bp_files = 0;
  std::uint64_t md_bytes = 0;
  ReplayCounters fsim;
  std::uint64_t darshan_log_bytes = 0;  // 0: the epoch ran no Darshan pass
  bool darshan_roundtrip_ok = false;
};

std::uint64_t bytes_under(const fsim::SharedFs& fs, const std::string& dir) {
  std::uint64_t sum = 0;
  for (const auto* file : fs.store().list_recursive(dir)) sum += file->size;
  return sum;
}

/// Replay, census and layer counters shared by both mirrors.
void finish_epoch(Tracer& tracer, const fsim::SystemProfile& profile,
                  const fsim::SharedFs& fs, const std::string& dir, int ranks,
                  EpochRun& run, fsim::ReplayReport& replay) {
  {
    Span span(tracer, "fsim.replay");
    replay = fsim::replay_trace(profile, fs.store(), fs.trace(), ranks);
  }
  Span span(tracer, "census");
  auto& result = run.result;
  result.makespan_s = replay.makespan;
  result.bytes_written = replay.bytes_written;
  result.write_gibps =
      replay.makespan > 0
          ? double(replay.bytes_written) / replay.makespan / double(GiB)
          : 0.0;
  result.bytes_gathered = replay.bytes_transferred;
  result.mean_meta_s = replay.mean_meta_time();
  result.mean_write_s = replay.mean_write_time();
  result.mean_read_s = replay.mean_read_time();
  result.mean_drain_s = replay.mean_drain_time();
  result.cpu_by_tag = replay.cpu_by_tag;
  std::uint64_t sum = 0;
  for (const auto* file : fs.store().list_recursive(dir)) {
    ++result.total_files;
    sum += file->size;
    result.max_file_bytes = std::max(result.max_file_bytes, file->size);
  }
  if (result.total_files > 0) result.avg_file_bytes = sum / result.total_files;
  run.fsim = replay_counters(replay, fs.trace().size());
}

/// Mirror of core::run_openpmd_epoch (flat topology, no striping).
EpochRun openpmd_epoch(Tracer& tracer, const fsim::SystemProfile& profile,
                       const core::ScaleSpec& spec,
                       const core::Bit1IoConfig& config) {
  EpochRun run;
  Span epoch(tracer, "fig6.point");
  Span setup_fs(tracer, "setup");
  fsim::SharedFs fs(profile.ost_count, /*store_data=*/false,
                    profile.default_stripe);
  fs.set_tracing(true);
  run.setup_s += setup_fs.stop();
  const int ranks = spec.ranks();
  const std::string dir = "run_openpmd";

  {
    Span read(tracer, "phase.input_read");
    Span client_span(tracer, "fsim.client");
    {
      fsim::FsClient root(fs, 0);
      root.mkdir(dir);
      const int fd = root.open("bit1.inp", fsim::OpenMode::create);
      root.write_simulated(fd, kInputBytes, 1);
      root.close(fd);
    }
    for (int r = 0; r < ranks; ++r) {
      fsim::FsClient client(fs, fsim::ClientId(r));
      const int fd = client.open("bit1.inp", fsim::OpenMode::read);
      client.read_simulated(fd, kInputBytes, 1);
      client.close(fd);
    }
  }

  auto engine_config = [&](int aggregators, bool profiling) {
    bp::EngineConfig engine;
    engine.num_aggregators = aggregators;
    engine.ranks_per_node = spec.ranks_per_node;
    engine.codec = config.codec;
    engine.compress_threads = config.compress_threads;
    engine.compress_block_kb = std::size_t(config.compress_block_kb);
    engine.profiling = profiling;
    engine.synthetic_codec_ratio = 1.0;
    engine.mem_bandwidth_bps = profile.client_mem_bandwidth_bps;
    engine.async_write = config.async_write;
    engine.buffer_chunk_mb = std::size_t(config.buffer_chunk_mb);
    engine.io_batch_depth = config.io_batch_depth;
    engine.coalesce_writes = config.coalesce_writes;
    engine.aggregation = config.aggregation;
    engine.topology = config.topology;
    engine.numa_per_node = config.numa_per_node;
    engine.nics_per_node = config.nics_per_node;
    return engine;
  };
  const std::string diag_path = dir + "/dat_file." + config.engine;
  const std::string ckpt_path = dir + "/dmp_file." + config.engine;
  std::unique_ptr<bp::Engine> diag_ptr, ckpt_ptr;
  {
    Span setup(tracer, "setup");
    Span make(tracer, "bp.make_engine");
    diag_ptr = bp::make_engine(
        config.engine, fs, diag_path,
        engine_config(config.num_aggregators, config.profiling), ranks);
    ckpt_ptr = bp::make_engine(
        config.engine, fs, ckpt_path,
        engine_config(config.checkpoint_aggregators, false), ranks);
    make.stop();
    run.setup_s += setup.stop();
  }
  bp::Engine& diag = *diag_ptr;
  bp::Engine& ckpt = *ckpt_ptr;
  // Each container: one data file per aggregator plus md.0 and md.idx.
  run.expected_files =
      std::uint64_t(std::min(config.num_aggregators, ranks)) +
      std::uint64_t(std::min(config.checkpoint_aggregators, ranks)) + 4;

  using bp::Datatype;
  const char* species[] = {"e", "D+", "D"};
  Span commit(tracer, "phase.commit");
  for (int dump = 0; dump < spec.dat_dumps; ++dump) {
    std::vector<std::uint64_t> offsets(std::size_t(ranks) + 1, 0);
    for (int r = 0; r < ranks; ++r) {
      const std::uint64_t elems =
          std::max<std::uint64_t>(1, spec.diag_bytes_for_rank(r) / 8 / 3);
      offsets[std::size_t(r) + 1] = offsets[std::size_t(r)] + elems;
    }
    const std::uint64_t total = offsets[std::size_t(ranks)];
    Span put(tracer, "bp.put");
    diag.begin_step(std::uint64_t(dump));
    for (const char* name : species) {
      const std::string vdf = std::string("vdf_") + name;
      for (int r = 0; r < ranks; ++r) {
        const std::uint64_t rr = std::uint64_t(r);
        diag.put_synthetic(r, vdf, Datatype::float64, {total}, {offsets[rr]},
                           {offsets[rr + 1] - offsets[rr]});
      }
    }
    put.stop();
    run.puts += 3 * std::uint64_t(ranks);
    run.payload_bytes += 3 * total * 8;
    Span end_step(tracer, "bp.end_step");
    diag.end_step();
  }

  const char* arrays[] = {"position/x", "velocity/x", "velocity/y",
                          "velocity/z", "weighting"};
  for (int c = 0; c < spec.checkpoints; ++c) {
    std::vector<std::uint64_t> offsets(std::size_t(ranks) + 1, 0);
    for (int r = 0; r < ranks; ++r) {
      const std::uint64_t elems = std::max<std::uint64_t>(
          1, spec.ckpt_bytes_for_rank(r) / 8 / (3 * 5));
      offsets[std::size_t(r) + 1] = offsets[std::size_t(r)] + elems;
    }
    const std::uint64_t total = offsets[std::size_t(ranks)];
    Span put(tracer, "bp.put");
    ckpt.begin_step(0);
    for (const char* sp : species) {
      for (const char* array : arrays) {
        const std::string var = std::string("particles/") + sp + "/" + array;
        for (int r = 0; r < ranks; ++r) {
          const std::uint64_t rr = std::uint64_t(r);
          ckpt.put_synthetic(r, var, Datatype::float64, {total},
                             {offsets[rr]}, {offsets[rr + 1] - offsets[rr]});
        }
      }
    }
    put.stop();
    run.puts += 15 * std::uint64_t(ranks);
    Span end_step(tracer, "bp.end_step");
    ckpt.end_step();
  }
  {
    Span close(tracer, "bp.close");
    diag.close();
    ckpt.close();
  }
  run.commit_s = commit.stop();

  fsim::ReplayReport replay;
  finish_epoch(tracer, profile, fs, dir, ranks, run, replay);
  run.stored_bytes = bytes_under(fs, diag_path);
  for (const std::string& container : {diag_path, ckpt_path}) {
    for (const auto* file : fs.store().list_recursive(container)) {
      ++run.bp_files;
      if (file->path.ends_with("/md.0") || file->path.ends_with("/md.idx"))
        run.md_bytes += file->size;
    }
  }
  run.epoch_s = epoch.stop() - run.setup_s;
  return run;
}

/// Mirror of core::run_original_epoch, followed by the Darshan pass the
/// paper runs on it (capture -> serialize -> parse).
EpochRun original_epoch(Tracer& tracer, const fsim::SystemProfile& profile,
                        const core::ScaleSpec& spec) {
  EpochRun run;
  Span epoch(tracer, "original.window");
  Span setup(tracer, "setup");
  fsim::SharedFs fs(profile.ost_count, /*store_data=*/false,
                    profile.default_stripe);
  fs.set_tracing(true);
  run.setup_s = setup.stop();
  const int ranks = spec.ranks();
  const std::string dir = "run_original";

  {
    Span read(tracer, "phase.input_read");
    Span client_span(tracer, "fsim.client");
    {
      fsim::FsClient root(fs, 0);
      const int fd = root.open("bit1.inp", fsim::OpenMode::create);
      root.write_simulated(fd, kInputBytes, 1);
      root.close(fd);
    }
    for (int r = 0; r < ranks; ++r) {
      fsim::FsClient client(fs, fsim::ClientId(r));
      const int fd = client.open("bit1.inp", fsim::OpenMode::read);
      client.read_simulated(fd, kInputBytes, 1);
      client.close(fd);
    }
  }

  // Two .dat files per rank, rank 0's four history files, bit1.dmp.
  run.expected_files = 2 * std::uint64_t(ranks) + 4 + 1;
  Span commit(tracer, "phase.commit");
  for (int dump = 0; dump < spec.dat_dumps; ++dump) {
    Span client_span(tracer, "fsim.client");
    for (int r = 0; r < ranks; ++r) {
      fsim::FsClient client(fs, fsim::ClientId(r));
      const std::uint64_t bytes = spec.diag_bytes_for_rank(r);
      const std::uint64_t slow = bytes * 3 / 5;
      const std::uint64_t slow1 = bytes - slow;
      for (const auto& [stem, n] :
           {std::pair<const char*, std::uint64_t>{"slow_", slow},
            std::pair<const char*, std::uint64_t>{"slow1_", slow1}}) {
        const std::string path = dir + "/" + stem + std::to_string(r) + ".dat";
        const int fd = client.open(path, dump == 0 ? fsim::OpenMode::create
                                                   : fsim::OpenMode::append);
        client.write_simulated(fd, n, record_count(n, kStdioRecord));
        client.close(fd);
        run.payload_bytes += n;
      }
    }
    fsim::FsClient root(fs, 0);
    for (const char* name :
         {"history.dat", "energy.dat", "pwall.dat", "iondiag.dat"}) {
      const std::string path = dir + "/" + std::string(name);
      const int fd = root.open(path, dump == 0 ? fsim::OpenMode::create
                                               : fsim::OpenMode::append);
      root.write_simulated(fd, 128, 1);
      root.close(fd);
      run.payload_bytes += 128;
    }
  }
  {
    Span client_span(tracer, "fsim.client");
    for (int c = 0; c < spec.checkpoints; ++c) {
      fsim::FsClient root(fs, 0);
      const int fd =
          root.open(dir + "/bit1.dmp", fsim::OpenMode::create_or_truncate);
      root.write_simulated(fd, spec.checkpoint_bytes,
                           record_count(spec.checkpoint_bytes, kBinaryRecord));
      root.fsync(fd);
      root.close(fd);
    }
  }
  // bit1.dmp is truncated and rewritten per checkpoint: only the last one
  // is payload the file system still holds.
  run.payload_bytes += spec.checkpoint_bytes;
  run.commit_s = commit.stop();

  fsim::ReplayReport replay;
  finish_epoch(tracer, profile, fs, dir, ranks, run, replay);
  run.stored_bytes = bytes_under(fs, dir);

  darshan::DarshanLog log;
  {
    Span span(tracer, "darshan.capture");
    log = darshan::capture(
        fs, replay, {"bit1", std::uint32_t(ranks), 0.0, "/dardel/lustre"});
  }
  std::vector<std::uint8_t> bytes;
  {
    Span span(tracer, "darshan.serialize");
    bytes = log.serialize();
  }
  darshan::DarshanLog parsed;
  {
    Span span(tracer, "darshan.parse");
    parsed = darshan::DarshanLog::parse(bytes);
  }
  run.darshan_log_bytes = bytes.size();
  const auto before = log.file_size_stats();
  const auto after = parsed.file_size_stats();
  run.darshan_roundtrip_ok = before.count == after.count &&
                             before.average == after.average &&
                             before.max == after.max && before.count > 0;
  run.epoch_s = epoch.stop() - run.setup_s;
  return run;
}

bool same_result(const core::EpochResult& a, const core::EpochResult& b) {
  return a.makespan_s == b.makespan_s && a.bytes_written == b.bytes_written &&
         a.total_files == b.total_files &&
         a.max_file_bytes == b.max_file_bytes &&
         a.mean_meta_s == b.mean_meta_s;
}

/// Sample vectors and the last unit's counters across a run's units.
struct Samples {
  std::vector<double> setup, epoch, commit;
  EpochRun last;
  void add(const EpochRun& run) {
    setup.push_back(run.setup_s);
    epoch.push_back(run.epoch_s);
    commit.push_back(run.commit_s);
    last = run;
  }
};

/// Drive `unit` for about options.seconds and return the end-to-end or
/// per-layer metrics; `core_epoch` is the function the mirror must
/// reproduce.
template <typename Unit, typename CoreEpoch>
Result drive(const Options& options, const char* label, Unit unit,
             CoreEpoch core_epoch) {
  Result out;
  Tracer off(false);
  Tracer on(options.trace);
  Tracer& tracer = options.trace ? on : off;

  Samples samples;
  std::vector<double> untraced_epoch_s;
  UnitLoop loop(options.seconds);
  while (loop.next()) {
    // A traced run alternates with untraced units: the ratio of the two
    // medians is the tracing overhead.
    if (options.trace) untraced_epoch_s.push_back(unit(off).epoch_s);
    samples.add(unit(tracer));
    const EpochRun& run = samples.last;
    out.ledger.check(run.result.write_gibps > 0 &&
                         run.result.total_files == run.expected_files,
                     std::string(label) + ": " +
                         std::to_string(run.result.total_files) +
                         " files, expected " +
                         std::to_string(run.expected_files));
    out.ledger.check(run.stored_bytes >= run.payload_bytes,
                     std::string(label) + ": files hold fewer bytes than " +
                         "were written to them");
    if (run.darshan_log_bytes > 0)
      out.ledger.check(run.darshan_roundtrip_ok,
                       std::string(label) +
                           ": Darshan file_size_stats changed across "
                           "serialize -> parse");
  }

  // The mirror check costs one more epoch, so only the traced run makes it.
  if (options.trace) {
    Span check(tracer, "check.mirror");
    const core::EpochResult reference = core_epoch();
    out.ledger.check(same_result(samples.last.result, reference),
                     std::string(label) +
                         ": mirror differs from the core epoch function");
  }

  const EpochRun& last = samples.last;
  const std::size_t units = samples.epoch.size();
  std::string listed;
  for (const double v : samples.epoch) listed += " " + std::to_string(v);
  info("%s: %zu units; epoch_host_s samples:%s", label, units, listed.c_str());
  auto& m = out.metrics;
  if (!options.trace) {
    m["setup_s"] = median(samples.setup);
    m["epoch_host_s"] = median(samples.epoch);
    m["commit_host_s"] = median(samples.commit);
    m["peak_rss_mib"] = peak_rss_mib();
    m["model_write_gibps"] = last.result.write_gibps;
    m["model_meta_s_per_proc"] = last.result.mean_meta_s;
    m["stored_bytes_per_payload_byte"] =
        double(last.stored_bytes) / double(last.payload_bytes);
    return out;
  }
  m["bp.puts"] = double(last.puts);
  m["bp.files"] = double(last.bp_files);
  m["bp.md_bytes"] = double(last.md_bytes);
  m["darshan.log_bytes"] = double(last.darshan_log_bytes);
  report_layers(options, tracer, units, last.fsim, samples.epoch,
                untraced_epoch_s, m);
  return out;
}

}  // namespace

Result run_fig6_point(const Options& options, int aggregators) {
  // Paper Fig 6 (Dardel, 200 nodes, GiB/s) — information, not a gate.
  const double paper = aggregators == 1     ? 0.59
                       : aggregators == 400 ? 15.80
                                            : 3.87;
  const std::string label = "fig6_dardel200.agg" + std::to_string(aggregators);
  auto make_inputs = [&] {
    return std::make_pair(dardel_profile(options.seed),
                          core::ScaleSpec::throughput(kNodes));
  };
  Result result = drive(
      options, label.c_str(),
      [&](Tracer& tracer) {
        Span setup(tracer, "setup");
        const auto [profile, spec] = make_inputs();
        const auto config = openpmd_config(aggregators);
        const double inputs_s = setup.stop();
        EpochRun run = openpmd_epoch(tracer, profile, spec, config);
        run.setup_s += inputs_s;
        return run;
      },
      [&] {
        const auto [profile, spec] = make_inputs();
        return core::run_openpmd_epoch(profile, spec,
                                       openpmd_config(aggregators));
      });
  if (!options.trace) {
    info("model_write_gibps = %.4f GiB/s at %d aggregators (paper Fig 6: "
         "%.2f GiB/s)",
         result.metrics["model_write_gibps"], aggregators, paper);
    if (aggregators == 400)
      info("model_meta_s_per_proc = %.6f s (paper Fig 5: ~99.9 %% below "
           "original I/O's per-process metadata time; compare "
           "original_dardel200)",
           result.metrics["model_meta_s_per_proc"]);
  }
  return result;
}

Result run_original(const Options& options) {
  auto make_inputs = [&] {
    return std::make_pair(dardel_profile(options.seed),
                          core::ScaleSpec::throughput(kNodes));
  };
  Result result = drive(
      options, "original_dardel200",
      [&](Tracer& tracer) {
        Span setup(tracer, "setup");
        const auto [profile, spec] = make_inputs();
        const double inputs_s = setup.stop();
        EpochRun run = original_epoch(tracer, profile, spec);
        run.setup_s += inputs_s;
        return run;
      },
      [&] {
        const auto [profile, spec] = make_inputs();
        return core::run_original_epoch(profile, spec);
      });
  if (!options.trace)
    info("model_write_gibps = %.4f GiB/s (paper: original I/O <= 0.41 GiB/s "
         "at 200 nodes); model_meta_s_per_proc = %.4f s (paper Fig 5 "
         "baseline for the ~99.9 %% openPMD reduction)",
         result.metrics["model_write_gibps"],
         result.metrics["model_meta_s_per_proc"]);
  return result;
}

}  // namespace perfbench
