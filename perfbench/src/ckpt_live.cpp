// The ckpt_live workload: real bytes through compress, crc32c, dedup
// hashing, Reader verify and the read path.
//
// Four picmc::Simulation ranks of the ionization case run 8 checkpoint
// epochs at a 4-step cadence through resil::CheckpointManager (blosc,
// one compression thread, a full epoch every 4), driven one rank after
// another.  After each commit one rank (round robin) is restored with
// restore() and compared bit for bit with its live state.  The same
// containers are written and read back inside one epoch, so a write-side
// gain that costs restore shows in epoch_host_s.

#include <algorithm>
#include <cstring>
#include <memory>

#include "bench.hpp"
#include "compress/codec.hpp"
#include "core/checkpoint_payload.hpp"
#include "fsim/posix_fs.hpp"
#include "fsim/system_profiles.hpp"
#include "picmc/simulation.hpp"
#include "resil/checkpoint_manager.hpp"
#include "util/crc32c.hpp"
#include "util/hash64.hpp"
#include "util/units.hpp"

namespace perfbench {

namespace {

using namespace bitio;

constexpr int kRanks = 4;
constexpr int kEpochs = 8;
constexpr std::uint64_t kCadence = 4;  // steps between commits

/// The workload seed perturbs the simulation seed; seed 0 keeps
/// SimConfig's default (0xB171).
picmc::SimConfig sim_config(std::uint64_t seed) {
  auto config = picmc::SimConfig::ionization_case(4096, 64);
  config.seed ^= seed;
  config.last_step = kEpochs * kCadence;
  return config;
}

core::Bit1IoConfig io_config() {
  core::Bit1IoConfig io;
  io.codec = "blosc";
  io.compress_threads = 1;
  io.checkpoint_interval = int(kCadence);
  io.checkpoint_full_interval = 4;
  return io;
}

std::uint64_t particle_bytes(const picmc::Simulation& sim) {
  std::uint64_t n = 0;
  for (std::size_t s = 0; s < sim.species_count(); ++s)
    n += sim.species(s).particles.size();
  return n * 5 * sizeof(double);  // x, vx, vy, vz, w
}

bool same_state(picmc::Simulation& a, picmc::Simulation& b) {
  if (a.current_step() != b.current_step() ||
      a.rng().state() != b.rng().state() ||
      a.ionization_events() != b.ionization_events() ||
      a.ionized_weight() != b.ionized_weight() ||
      a.species_count() != b.species_count())
    return false;
  for (std::size_t s = 0; s < a.species_count(); ++s) {
    const auto& pa = a.species(s).particles;
    const auto& pb = b.species(s).particles;
    if (pa.x() != pb.x() || pa.vx() != pb.vx() || pa.vy() != pb.vy() ||
        pa.vz() != pb.vz() || pa.w() != pb.w())
      return false;
  }
  return true;
}

struct UnitRun {
  double setup_s = 0.0;
  std::vector<double> epoch_s;    // steps + stage + commit + restore
  std::vector<double> commit_s;   // stage + commit
  std::vector<double> restore_s;  // restore() of one rank
  std::uint64_t staged_bytes = 0;
  std::uint64_t stored_bytes = 0;  // epoch files, summed at commit time
  resil::ResilienceStats stats;
  fsim::ReplayReport replay;
  std::uint64_t trace_ops = 0;
};

/// One unit: set-up, then 8 epochs; each epoch steps every rank to the
/// next checkpoint, stages and commits them, and restores one rank
/// (round robin, so each rank twice) into a fresh Simulation that must
/// match the live one bit for bit.
UnitRun ckpt_unit(Tracer& tracer, const picmc::SimConfig& config,
                  Ledger& ledger,
                  std::vector<std::unique_ptr<picmc::Simulation>>* keep) {
  UnitRun run;
  Span unit(tracer, "ckpt.unit");
  Span setup(tracer, "setup");
  const fsim::SystemProfile profile = fsim::dardel();
  fsim::SharedFs fs(profile.ost_count, /*store_data=*/true,
                    profile.default_stripe);
  resil::CheckpointManager manager(fs, "run", io_config(), kRanks);
  std::vector<std::unique_ptr<picmc::Simulation>> sims;
  for (int r = 0; r < kRanks; ++r) {
    sims.push_back(std::make_unique<picmc::Simulation>(config, r, kRanks));
    Span init(tracer, "picmc.initialize");
    sims.back()->initialize();
  }
  run.setup_s = setup.stop();

  for (int e = 1; e <= kEpochs; ++e) {
    Span epoch(tracer, "ckpt.epoch");
    const std::uint64_t target = std::uint64_t(e) * kCadence;
    for (auto& sim : sims) {
      Span step(tracer, "picmc.step");
      while (sim->current_step() < target) sim->step();
    }
    Span commit(tracer, "phase.commit");
    for (auto& sim : sims) {
      Span stage(tracer, "resil.stage");
      manager.stage(sim->rank(), *sim);
    }
    std::uint64_t committed = 0;
    {
      Span span(tracer, "resil.commit");
      committed = manager.commit();
    }
    run.commit_s.push_back(commit.stop());

    const int r = (e - 1) % kRanks;
    picmc::Simulation restored(config, r, kRanks);
    resil::RestartReport report;
    {
      Span span(tracer, "resil.restore");
      report = manager.restore(restored);
      run.restore_s.push_back(span.stop());
    }
    run.epoch_s.push_back(epoch.stop());
    ledger.check(report.recovered && report.epoch == committed &&
                     same_state(restored, *sims[std::size_t(r)]),
                 "ckpt_live: rank " + std::to_string(r) + " at epoch " +
                     std::to_string(committed) +
                     " did not restore bit-exactly to its live state");

    for (const auto* file :
         fs.store().list_recursive(manager.epoch_dir(committed)))
      run.stored_bytes += file->size;
    for (const auto& sim : sims) run.staged_bytes += particle_bytes(*sim);
  }
  run.stats = manager.stats();
  run.trace_ops = fs.trace().size();

  Span model(tracer, "fsim.replay");
  run.replay = fsim::replay_trace(profile, fs.store(), fs.trace(), kRanks);
  if (keep) *keep = std::move(sims);
  return run;
}

/// Kernel probes over the staged particle arrays of every rank: crc32c,
/// hash64 and the blosc codec, each timed over the whole set and checked
/// for a round trip.
void kernel_probes(Tracer& tracer,
                   const std::vector<std::unique_ptr<picmc::Simulation>>& sims,
                   Ledger& ledger, Metrics& m) {
  std::vector<std::vector<std::uint8_t>> arrays;
  std::uint64_t total = 0;
  for (const auto& sim : sims) {
    const core::RankCheckpoint state = core::capture_rank_state(*sim);
    for (const auto* field : {&state.x, &state.vx, &state.vy, &state.vz,
                              &state.w}) {
      for (const auto& values : *field) {
        std::vector<std::uint8_t> bytes(values.size() * sizeof(double));
        if (!bytes.empty())
          std::memcpy(bytes.data(), values.data(), bytes.size());
        total += bytes.size();
        arrays.push_back(std::move(bytes));
      }
    }
  }

  static constexpr char kCheck[] = "123456789";
  ledger.check(crc32c({reinterpret_cast<const std::uint8_t*>(kCheck), 9}) ==
                   0xE3069283u,
               "util.crc32c: wrong check value for \"123456789\"");
  std::vector<std::uint32_t> crcs;
  Span crc_span(tracer, "util.crc32c");
  for (const auto& a : arrays) crcs.push_back(crc32c(a));
  const double crc_s = crc_span.stop();
  bool chained = true;
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    const std::span<const std::uint8_t> a(arrays[i]);
    const std::size_t half = a.size() / 2;
    chained = chained &&
              crc32c(a.subspan(half), crc32c(a.first(half))) == crcs[i];
  }
  ledger.check(chained, "util.crc32c: chained CRC differs from one pass");

  std::vector<std::uint64_t> hashes;
  Span hash_span(tracer, "util.hash64");
  for (const auto& a : arrays) hashes.push_back(util::hash64(a));
  const double hash_s = hash_span.stop();
  bool hashed = true;
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    std::vector<std::uint8_t> flipped = arrays[i];
    if (flipped.empty()) continue;
    hashed = hashed && util::hash64(flipped) == hashes[i];
    flipped[flipped.size() / 2] ^= 1;
    hashed = hashed && util::hash64(flipped) != hashes[i];
  }
  ledger.check(hashed, "util.hash64: not a stable content identity");

  const auto codec = cz::make_codec("blosc");
  std::vector<cz::Bytes> frames;
  std::uint64_t compressed = 0;
  Span compress_span(tracer, "compress.blosc_compress");
  for (const auto& a : arrays) frames.push_back(codec->compress(a));
  const double compress_s = compress_span.stop();
  for (const auto& f : frames) compressed += f.size();
  bool round_trip = true;
  Span decompress_span(tracer, "compress.blosc_decompress");
  for (std::size_t i = 0; i < arrays.size(); ++i)
    round_trip = round_trip && codec->decompress(frames[i]) == arrays[i];
  const double decompress_s = decompress_span.stop();
  ledger.check(round_trip, "compress.blosc: decompress(compress(x)) != x");

  const double mb = double(total) / 1e6;
  m["kernel.probe_bytes"] = double(total);
  m["util.crc32c_MBps"] = mb / crc_s;
  m["util.hash64_MBps"] = mb / hash_s;
  m["compress.blosc_compress_MBps"] = mb / compress_s;
  m["compress.blosc_decompress_MBps"] = mb / decompress_s;
  m["compress.blosc_ratio"] = double(compressed) / double(total);
}

}  // namespace

Result run_ckpt_live(const Options& options) {
  Result out;
  const picmc::SimConfig config = sim_config(options.seed);
  Tracer off(false);
  Tracer on(options.trace);
  Tracer& tracer = options.trace ? on : off;

  std::vector<double> setup, epoch, commit, restore, untraced_unit, unit_s;
  UnitRun last;
  std::vector<std::unique_ptr<picmc::Simulation>> sims;
  UnitLoop loop(options.seconds);
  while (loop.next()) {
    if (options.trace) {
      // Alternate with an untraced unit for the tracing-overhead ratio.
      const auto t0 = Clock::now();
      ckpt_unit(off, config, out.ledger, nullptr);
      untraced_unit.push_back(seconds_between(t0, Clock::now()));
    }
    const auto t0 = Clock::now();
    last = ckpt_unit(tracer, config, out.ledger, &sims);
    unit_s.push_back(seconds_between(t0, Clock::now()));
    setup.push_back(last.setup_s);
    epoch.insert(epoch.end(), last.epoch_s.begin(), last.epoch_s.end());
    commit.insert(commit.end(), last.commit_s.begin(), last.commit_s.end());
    restore.insert(restore.end(), last.restore_s.begin(),
                   last.restore_s.end());
  }

  auto& m = out.metrics;
  kernel_probes(tracer, sims, out.ledger, m);

  const fsim::ReplayReport& replay = last.replay;
  info("ckpt_live: %zu units; medians over %zu set-ups, %zu epochs; "
       "restore() median %.6f s over %zu restores",
       setup.size(), setup.size(), epoch.size(), median(restore),
       restore.size());
  if (!options.trace) {
    m = {};
    m["setup_s"] = median(setup);
    m["epoch_host_s"] = median(epoch);
    m["commit_host_s"] = median(commit);
    m["peak_rss_mib"] = peak_rss_mib();
    m["model_write_gibps"] = replay.write_throughput_bps() / double(GiB);
    m["model_meta_s_per_proc"] = replay.mean_meta_time();
    m["stored_bytes_per_payload_byte"] =
        double(last.stored_bytes) / double(last.staged_bytes);
    return out;
  }
  m["resil.bytes_stored"] = double(last.stored_bytes);
  m["resil.dedup_bytes_saved"] = double(last.stats.dedup_bytes_saved);
  m["resil.blocks_restored"] = double(last.stats.blocks_restored);
  report_layers(options, tracer, unit_s.size(),
                replay_counters(replay, last.trace_ops), unit_s,
                untraced_unit, m);
  return out;
}

}  // namespace perfbench
