// Performance smoke test with machine-readable output.
//
// Measures the simulator's throughput figures and writes them as JSON so CI
// and regression tooling can track them without parsing tables:
//  * end-to-end simulator throughput: simulated memory operations per
//    wall-clock second for the milc workload on the 4x4 FgNVM config;
//  * deep-queue throughput: memory-only mcf runs on an 8x8 FgNVM with
//    64-entry read / 128-entry write queues — the regime that stresses the
//    scheduler's issue-selection and next_event paths;
//  * write-drain throughput: a write-heavy (80%) mcf variant on the same
//    deep-queue config — dominated by high-watermark drain windows, the
//    regime the analytic write-drain phase replays in closed form;
//  * multi-channel throughput: the milc workload on the same 4x4 config
//    widened to 4 channels — tracks the per-channel due caches and the
//    windowed channel advance;
//  * sharded tile-runtime throughput: the multi-channel workload pushed
//    through the shard-per-thread tile topology (DESIGN.md §14) — tracks the
//    SPSC ring hand-off, the per-channel clock advance, and the
//    deterministic completion merge; a threaded run follows to report
//    per-worker CPU seconds (the scaling signal that survives one-core CI
//    runners, where wall clock cannot scale);
//  * hybrid-migration throughput: a hot-set workload on the RBLA hybrid
//    (DESIGN.md §13) — tracks the migration engine, remap routing, and the
//    wake-clamped event loop;
//  * compute-bound throughput: eight wrf cores (the lowest-MPKI profile)
//    multiprogrammed on the 4x4 config — dominated by compute-only gaps
//    between LLC misses, so it tracks the core-side analytic fast-forward
//    and the indexed wake schedule (DESIGN.md §10);
//  * many-core engine throughput: 256 tenants (the evaluation mix rotated)
//    multiprogrammed through per-core record sources — tracks the indexed
//    wake calendar (DESIGN.md §16); the same mix re-run with
//    FGNVM_WAKE_CALENDAR=0 (legacy min-scan) and once at 1024 cores are
//    reported as informational A/B references;
//  * serve-path throughput: the multi-channel workload streamed through
//    the epoll front tier (DESIGN.md §15) by four loopback socketpair
//    clients — batched frame decode, batched ring submission, completion
//    routing, and the ping/flush/quit teardown all inside the timed span;
//  * sweep wall time: seconds for a SweepRunner sweep of all evaluation
//    workloads through baseline + FgNVM 4x4.
//
// All scenarios draw their traces from one shared TraceSet — each profile
// is generated exactly once per invocation.
//
// Usage: perf_smoke [ops] [output.json]
//   ops          memory ops per run (default 20000; FGNVM_BENCH_OPS works)
//   output.json  output path (default BENCH_sim_throughput.json)
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "sim/runner.hpp"
#include "common/sweep.hpp"
#include "mem/geometry.hpp"
#include "sys/presets.hpp"
#include "tile/frame.hpp"
#include "tile/front.hpp"
#include "tile/topology.hpp"
#include "trace/generator.hpp"
#include "trace/spec_profiles.hpp"

int main(int argc, char** argv) {
  using namespace fgnvm;
  using clock = std::chrono::steady_clock;
  const std::uint64_t ops = benchutil::ops_from_args(argc, argv, 20000);
  const std::string out_path =
      argc > 2 ? argv[2] : "BENCH_sim_throughput.json";

  sim::SweepRunner pool;
  const benchutil::TraceSet traces(ops, pool);

  // End-to-end throughput: repeated single runs on one thread.
  const trace::Trace& tr = traces.by_name("milc");
  const sys::SystemConfig cfg = sys::fgnvm_config(4, 4);
  (void)sim::run_workload(tr, cfg);  // warm-up
  const int runs = 5;
  const auto t0 = clock::now();
  for (int i = 0; i < runs; ++i) {
    const sim::RunResult r = sim::run_workload(tr, cfg);
    // Also defeats dead-code elimination of the timed runs.
    if (r.reads + r.writes == 0 || r.instructions == 0) {
      std::cerr << "perf_smoke: run " << i << " retired " << r.instructions
                << " instructions / " << (r.reads + r.writes)
                << " memory ops — refusing to report throughput\n";
      return 1;
    }
  }
  const double run_secs =
      std::chrono::duration<double>(clock::now() - t0).count();
  const double mem_ops_per_sec =
      static_cast<double>(ops) * runs / run_secs;

  // Deep-queue throughput: memory-only (no core model — every cycle is
  // controller work) with saturated 64-entry read queues on an 8x8 grid.
  sys::SystemConfig deep_cfg = sys::fgnvm_config(8, 8);
  deep_cfg.controller.read_queue_cap = 64;
  deep_cfg.controller.write_queue_cap = 128;
  deep_cfg.controller.wq_high = 64;
  deep_cfg.controller.wq_low = 16;
  const trace::Trace& deep_tr = traces.by_name("mcf");
  (void)sim::run_memory_only(deep_tr, deep_cfg);  // warm-up
  const auto td = clock::now();
  for (int i = 0; i < runs; ++i) {
    const sim::RunResult r = sim::run_memory_only(deep_tr, deep_cfg);
    if (r.reads + r.writes == 0) {
      std::cerr << "perf_smoke: deep-queue run " << i
                << " retired no memory ops — refusing to report throughput\n";
      return 1;
    }
  }
  const double deep_secs =
      std::chrono::duration<double>(clock::now() - td).count();
  const double deep_queue_mem_ops_per_sec =
      static_cast<double>(ops) * runs / deep_secs;

  // Write-drain throughput: a write-heavy mcf variant on the deep-queue
  // config — the stream crosses the high watermark over and over, so wall
  // time is dominated by drain windows, the regime the analytic write-drain
  // phase (DESIGN.md §12) replays in closed form.
  trace::WorkloadProfile wd_profile = trace::spec2006_profile("mcf");
  wd_profile.name = "write_drain";
  wd_profile.write_fraction = 0.8;
  const trace::Trace wd_tr = trace::generate_trace(wd_profile, ops);
  (void)sim::run_memory_only(wd_tr, deep_cfg);  // warm-up
  const auto tw = clock::now();
  for (int i = 0; i < runs; ++i) {
    const sim::RunResult r = sim::run_memory_only(wd_tr, deep_cfg);
    if (r.reads + r.writes == 0) {
      std::cerr << "perf_smoke: write-drain run " << i
                << " retired no memory ops — refusing to report throughput\n";
      return 1;
    }
  }
  const double wd_secs =
      std::chrono::duration<double>(clock::now() - tw).count();
  const double write_drain_mem_ops_per_sec =
      static_cast<double>(ops) * runs / wd_secs;

  // Multi-channel throughput: the end-to-end workload spread over four
  // channels — time here is dominated by how cheaply the system skips
  // not-due channels.
  sys::SystemConfig mc_cfg = sys::fgnvm_config(4, 4);
  mc_cfg.geometry.channels = 4;
  mc_cfg.geometry.validate();
  (void)sim::run_workload(tr, mc_cfg);  // warm-up
  const auto tm = clock::now();
  for (int i = 0; i < runs; ++i) {
    const sim::RunResult r = sim::run_workload(tr, mc_cfg);
    if (r.reads + r.writes == 0 || r.instructions == 0) {
      std::cerr << "perf_smoke: multi-channel run " << i
                << " retired no memory ops — refusing to report throughput\n";
      return 1;
    }
  }
  const double mc_secs =
      std::chrono::duration<double>(clock::now() - tm).count();
  const double multi_channel_mem_ops_per_sec =
      static_cast<double>(ops) * runs / mc_secs;

  // Sharded tile-runtime throughput: the same four-channel workload pushed
  // through the shard-per-thread tile topology (one shard per channel).
  // The serial coordinator is the gated figure — it exercises the identical
  // ring/merge code path with no thread-scheduling noise, so the number is
  // stable on one-core CI runners.
  tile::TopologyConfig tile_cfg;
  tile_cfg.shards = 4;
  tile_cfg.worker_threads = false;
  (void)tile::run_sharded(tr, mc_cfg, tile_cfg);  // warm-up
  const auto ts = clock::now();
  for (int i = 0; i < runs; ++i) {
    const tile::ShardedRunResult r = tile::run_sharded(tr, mc_cfg, tile_cfg);
    if (r.run.reads + r.run.writes == 0 || r.completions.empty()) {
      std::cerr << "perf_smoke: sharded run " << i
                << " retired no memory ops — refusing to report throughput\n";
      return 1;
    }
  }
  const double sh_secs =
      std::chrono::duration<double>(clock::now() - ts).count();
  const double sharded_mem_ops_per_sec =
      static_cast<double>(ops) * runs / sh_secs;

  // Threaded variants, once each, for the scaling evidence: the drop in the
  // slowest worker's CPU seconds from 1 shard to 4 shards is the signal that
  // survives one-core runners (wall clock cannot scale where nproc=1, as
  // CHANGES.md PR 4 established) — ops / max-worker-CPU projects the
  // aggregate throughput a 4-core host would see. Informational (not
  // gated): thread timing on shared runners is too noisy for a ±15% floor.
  auto max_worker_cpu = [](const tile::ShardedRunResult& r) {
    double mx = 0.0;
    for (const tile::ShardMetrics& m : r.shards) {
      if (m.cpu_seconds > mx) mx = m.cpu_seconds;
    }
    return mx;
  };
  tile::TopologyConfig tile_mt = tile_cfg;
  tile_mt.worker_threads = true;
  tile_mt.shards = 1;
  const tile::ShardedRunResult mt1 = tile::run_sharded(tr, mc_cfg, tile_mt);
  const double sh_cpu_1shard = max_worker_cpu(mt1);
  tile_mt.shards = 4;
  const auto tt = clock::now();
  const tile::ShardedRunResult mt = tile::run_sharded(tr, mc_cfg, tile_mt);
  const double sh_mt_wall =
      std::chrono::duration<double>(clock::now() - tt).count();
  const double sh_cpu_4shard = max_worker_cpu(mt);
  if (mt1.run.reads + mt1.run.writes == 0 ||
      mt.run.reads + mt.run.writes == 0) {
    std::cerr << "perf_smoke: threaded sharded run retired no memory ops\n";
    return 1;
  }

  // Hybrid-migration throughput: a hot-set workload (small footprint, row-
  // buffer-hostile) on the RBLA hybrid (DESIGN.md §13). Wall time includes
  // the full migration engine: RBLA bookkeeping on every submit, injected
  // row-move traffic through the controllers, and the wake-clamped event
  // loop around in-flight migrations.
  trace::WorkloadProfile hy_profile;
  hy_profile.name = "hybrid_hotset";
  hy_profile.mpki = 30.0;
  hy_profile.write_fraction = 0.3;
  hy_profile.row_locality = 0.1;
  hy_profile.random_fraction = 0.8;
  hy_profile.footprint_bytes = 256ULL << 10;
  hy_profile.num_streams = 4;
  hy_profile.seed = 7;
  const trace::Trace hy_tr = trace::generate_trace(hy_profile, ops);
  sys::HybridSystemConfig hy_cfg = sys::hybrid_config(4, 4);
  hy_cfg.hybrid.migration_threshold = 2;
  hy_cfg.hybrid.migration_epoch = 100'000;
  (void)sim::run_workload(hy_tr, hy_cfg);  // warm-up
  const auto th = clock::now();
  for (int i = 0; i < runs; ++i) {
    const sim::RunResult r = sim::run_workload(hy_tr, hy_cfg);
    if (r.reads + r.writes == 0 ||
        r.controller.counter("hybrid_migrations") == 0) {
      std::cerr << "perf_smoke: hybrid run " << i << " retired "
                << (r.reads + r.writes) << " memory ops / "
                << r.controller.counter("hybrid_migrations")
                << " migrations — refusing to report throughput\n";
      return 1;
    }
  }
  const double hy_secs =
      std::chrono::duration<double>(clock::now() - th).count();
  const double hybrid_mem_ops_per_sec =
      static_cast<double>(ops) * runs / hy_secs;

  // Compute-bound throughput: 8 wrf cores share the 4x4 config. wrf is the
  // lowest-MPKI evaluation profile, so wall time is dominated by the
  // compute-only gaps between misses — the regime the core-side
  // fast-forward targets. Reported ops count all cores' submissions.
  const std::vector<trace::Trace> cb_mix = traces.copies("wrf", 8);
  (void)sim::run_multiprogrammed(cb_mix, cfg);  // warm-up
  const auto tc = clock::now();
  for (int i = 0; i < runs; ++i) {
    const sim::MultiProgramResult r = sim::run_multiprogrammed(cb_mix, cfg);
    if (r.mem_cycles == 0 || r.ipc.empty()) {
      std::cerr << "perf_smoke: compute-bound run " << i
                << " did no work — refusing to report throughput\n";
      return 1;
    }
  }
  const double cb_secs =
      std::chrono::duration<double>(clock::now() - tc).count();
  const double compute_bound_mem_ops_per_sec =
      static_cast<double>(ops) * cb_mix.size() * runs / cb_secs;

  // Many-core engine throughput: 256 low-intensity tenants share the
  // 4-channel FgNVM through per-core TraceSource cursors — the
  // thousand-core regime the indexed wake calendar (DESIGN.md §16) targets.
  // Tenant intensity scales inversely with core count (25.6/n MPKI: 0.1 at
  // 256 cores, heterogeneous seeds) so aggregate demand stays below the
  // channels' service rate: with hundreds of cores on one memory only
  // low-duty tenants avoid permanent queue backpressure, and the long
  // compute gaps between misses are exactly where a per-iteration O(cores)
  // min-scan loses to the O(1) calendar (under saturation every core is
  // runnable every cycle and the two schedules do the same work). Per-tenant
  // traces are short (ops/64) so the figure tracks the engine's
  // per-iteration cost at high core counts, not trace length. The gated key
  // is the calendar run; the same mix is re-run with FGNVM_WAKE_CALENDAR=0
  // (legacy min-scan) as the same-commit A/B reference, and once at 1024
  // cores — both informational.
  const std::uint64_t mc_ops = std::max<std::uint64_t>(ops / 64, 64);
  const auto tenant_traces = [&](std::size_t n) {
    std::vector<trace::Trace> out;
    for (int v = 0; v < 16; ++v) {
      trace::WorkloadProfile p = trace::spec2006_profile("wrf");
      p.name = "tenant" + std::to_string(v);
      p.mpki = 25.6 / static_cast<double>(n);
      p.seed = 211 + static_cast<std::uint64_t>(v);
      out.push_back(trace::generate_trace(p, mc_ops));
    }
    return out;
  };
  const std::vector<trace::Trace> mc_256 = tenant_traces(256);
  const std::vector<trace::Trace> mc_1024 = tenant_traces(1024);
  auto manycore_once = [&](const std::vector<trace::Trace>& tenants,
                           std::size_t n) -> bool {
    std::vector<trace::TraceSource> cursors;
    cursors.reserve(n);
    std::vector<trace::RecordSource*> srcs;
    srcs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      cursors.emplace_back(tenants[i % tenants.size()]);
      srcs.push_back(&cursors.back());
    }
    const sim::MultiProgramResult r = sim::run_multiprogrammed(srcs, mc_cfg);
    return r.mem_cycles != 0 && !r.ipc.empty();
  };
  auto manycore_timed = [&](const std::vector<trace::Trace>& tenants,
                            std::size_t n, int reps, const char* what,
                            double& out_ops_per_sec) -> bool {
    const auto t = clock::now();
    for (int i = 0; i < reps; ++i) {
      if (!manycore_once(tenants, n)) {
        std::cerr << "perf_smoke: " << what << " run " << i
                  << " did no work — refusing to report throughput\n";
        return false;
      }
    }
    const double secs = std::chrono::duration<double>(clock::now() - t).count();
    out_ops_per_sec =
        static_cast<double>(mc_ops) * static_cast<double>(n) * reps / secs;
    return true;
  };
  double multicore_256_ops_per_sec = 0.0;
  double multicore_256_legacy_ops_per_sec = 0.0;
  double multicore_1024_ops_per_sec = 0.0;
  if (!manycore_once(mc_256, 256)) {  // warm-up
    std::cerr << "perf_smoke: multicore warm-up did no work\n";
    return 1;
  }
  if (!manycore_timed(mc_256, 256, runs, "multicore-256",
                      multicore_256_ops_per_sec)) {
    return 1;
  }
  ::setenv("FGNVM_WAKE_CALENDAR", "0", 1);
  const bool legacy_ok =
      manycore_timed(mc_256, 256, runs, "multicore-256-legacy",
                     multicore_256_legacy_ops_per_sec);
  ::unsetenv("FGNVM_WAKE_CALENDAR");
  if (!legacy_ok) return 1;
  if (!manycore_timed(mc_1024, 1024, 1, "multicore-1024",
                      multicore_1024_ops_per_sec)) {
    return 1;
  }

  // Serve-path throughput: the multi-channel workload streamed through the
  // epoll front tier (DESIGN.md §15) by four loopback socketpair clients —
  // requests partitioned by channel ownership, batch-decoded per recv(),
  // batch-submitted into the shard rings, completions routed back over the
  // sockets, and the ping-fence / flush / quit teardown all inside the
  // timed span. Serial shards keep the figure stable on one-core CI
  // runners (same rationale as the sharded figure). Frames/sec counts the
  // R/W request frames the server decoded, admitted, and answered.
  const unsigned serve_clients = 4;
  const mem::AddressDecoder serve_dec(mc_cfg.geometry, mc_cfg.mapping);
  std::vector<std::vector<std::uint8_t>> serve_streams(serve_clients);
  for (std::size_t i = 0; i < tr.records.size(); ++i) {
    const auto& rec = tr.records[i];
    const unsigned owner = static_cast<unsigned>(
        serve_dec.decode(rec.addr).channel % serve_clients);
    tile::Request req;
    req.kind = rec.op == OpType::kRead ? tile::ReqFrame::kRead
                                       : tile::ReqFrame::kWrite;
    req.addr = rec.addr;
    req.tag = i;
    tile::encode_request(req, serve_streams[owner]);
  }
  auto serve_once = [&]() -> bool {
    tile::TopologyConfig scfg;
    scfg.shards = 4;
    scfg.worker_threads = false;
    tile::Topology topo(mc_cfg, scfg);
    topo.start();
    tile::FrontTier::Config fcfg;
    fcfg.exit_when_idle = true;
    tile::FrontTier front(topo, fcfg);
    std::vector<int> fds(serve_clients, -1);
    for (unsigned c = 0; c < serve_clients; ++c) {
      int sv[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return false;
      front.add_client(sv[0]);
      fds[c] = sv[1];
    }
    std::thread server([&front] { front.run(); });
    std::atomic<unsigned> admitted{0};
    std::atomic<bool> flushed{false};
    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < serve_clients; ++c) {
      threads.emplace_back([&, c] {
        tile::FrameReader reader;
        std::vector<std::uint8_t> payload;
        std::vector<std::uint8_t> pending = serve_streams[c];
        std::size_t sent = 0;
        bool sent_ping = false, sent_flush = false, sent_quit = false;
        std::uint8_t rbuf[8192];
        while (!failed.load(std::memory_order_relaxed)) {
          if (sent == pending.size()) {
            // Stream done: fence with a ping, let client 0 flush once all
            // pongs landed, then quit — the same admission-barrier protocol
            // the selftest uses (see examples/fgnvm_serve.cpp).
            tile::Request r;
            if (!sent_ping) {
              r.kind = tile::ReqFrame::kPing;
              tile::encode_request(r, pending);
              sent_ping = true;
            } else if (c == 0 && !sent_flush &&
                       admitted.load(std::memory_order_acquire) ==
                           serve_clients) {
              r.kind = tile::ReqFrame::kFlush;
              tile::encode_request(r, pending);
              sent_flush = true;
            } else if (!sent_quit &&
                       flushed.load(std::memory_order_acquire)) {
              r.kind = tile::ReqFrame::kQuit;
              tile::encode_request(r, pending);
              sent_quit = true;
            }
          }
          pollfd pfd{fds[c], POLLIN, 0};
          if (sent < pending.size()) pfd.events |= POLLOUT;
          const int pr = ::poll(&pfd, 1, 20);
          if (pr < 0) {
            if (errno == EINTR) continue;
            failed.store(true, std::memory_order_relaxed);
            break;
          }
          if (pr == 0) continue;  // timeout: re-check flush/quit conditions
          if ((pfd.revents & POLLOUT) && sent < pending.size()) {
            const std::size_t chunk =
                std::min(sizeof(rbuf), pending.size() - sent);
            const ssize_t n =
                ::send(fds[c], pending.data() + sent, chunk, MSG_DONTWAIT);
            if (n > 0) {
              sent += static_cast<std::size_t>(n);
            } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                       errno != EINTR) {
              failed.store(true, std::memory_order_relaxed);
              break;
            }
          }
          if (!(pfd.revents & (POLLIN | POLLHUP | POLLERR))) continue;
          const ssize_t n = ::read(fds[c], rbuf, sizeof(rbuf));
          if (n < 0) {
            if (errno == EINTR) continue;
            failed.store(true, std::memory_order_relaxed);
            break;
          }
          if (n == 0) break;  // server closed after the 'S' frame: done
          reader.feed(rbuf, static_cast<std::size_t>(n));
          while (reader.next(payload)) {
            const auto resp =
                tile::decode_response(payload.data(), payload.size());
            if (!resp || resp->kind == tile::RespFrame::kError) {
              failed.store(true, std::memory_order_relaxed);
              break;
            }
            if (resp->kind == tile::RespFrame::kPong) {
              admitted.fetch_add(1, std::memory_order_acq_rel);
            } else if (resp->kind == tile::RespFrame::kFlushDone) {
              flushed.store(true, std::memory_order_release);
            }
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    for (int fd : fds) ::close(fd);
    if (failed.load(std::memory_order_relaxed)) front.stop();
    server.join();
    const sim::RunResult served = topo.finish(tr.name);
    return !failed.load(std::memory_order_relaxed) &&
           served.reads + served.writes == tr.records.size();
  };
  if (!serve_once()) {  // warm-up doubles as the end-to-end sanity check
    std::cerr << "perf_smoke: serve warm-up failed\n";
    return 1;
  }
  const auto tf = clock::now();
  for (int i = 0; i < runs; ++i) {
    if (!serve_once()) {
      std::cerr << "perf_smoke: serve run " << i
                << " failed — refusing to report throughput\n";
      return 1;
    }
  }
  const double serve_secs =
      std::chrono::duration<double>(clock::now() - tf).count();
  const double serve_frames_per_sec =
      static_cast<double>(tr.records.size()) * runs / serve_secs;

  // Sweep wall time: all evaluation workloads through baseline + FgNVM 4x4
  // on the thread pool (FGNVM_THREADS selects the width).
  const auto t1 = clock::now();
  const auto runs_out = benchutil::sweep_workloads(
      pool, traces.all(), sys::baseline_config(), {cfg});
  const double sweep_secs =
      std::chrono::duration<double>(clock::now() - t1).count();
  if (runs_out.empty()) {
    std::cerr << "perf_smoke: sweep produced no runs\n";
    return 1;
  }

  std::ofstream json(out_path);
  if (!json) {
    std::cerr << "perf_smoke: cannot open " << out_path << "\n";
    return 1;
  }
  json << "{\n"
       << "  \"benchmark\": \"sim_throughput\",\n"
       << "  \"ops_per_run\": " << ops << ",\n"
       << "  \"runs\": " << runs << ",\n"
       << "  \"mem_ops_per_sec\": " << mem_ops_per_sec << ",\n"
       << "  \"deep_queue_mem_ops_per_sec\": " << deep_queue_mem_ops_per_sec
       << ",\n"
       << "  \"write_drain_mem_ops_per_sec\": " << write_drain_mem_ops_per_sec
       << ",\n"
       << "  \"multi_channel_mem_ops_per_sec\": "
       << multi_channel_mem_ops_per_sec << ",\n"
       << "  \"sharded_mem_ops_per_sec\": " << sharded_mem_ops_per_sec
       << ",\n"
       << "  \"sharded_shards\": " << tile_cfg.shards << ",\n"
       << "  \"sharded_threaded_wall_seconds\": " << sh_mt_wall << ",\n"
       << "  \"sharded_worker_cpu_seconds_1shard\": " << sh_cpu_1shard
       << ",\n"
       << "  \"sharded_worker_cpu_seconds_4shard\": " << sh_cpu_4shard
       << ",\n"
       << "  \"hybrid_mem_ops_per_sec\": " << hybrid_mem_ops_per_sec << ",\n"
       << "  \"compute_bound_mem_ops_per_sec\": "
       << compute_bound_mem_ops_per_sec << ",\n"
       << "  \"multicore_256_ops_per_sec\": " << multicore_256_ops_per_sec
       << ",\n"
       << "  \"multicore_256_legacy_ops_per_sec\": "
       << multicore_256_legacy_ops_per_sec << ",\n"
       << "  \"multicore_1024_ops_per_sec\": " << multicore_1024_ops_per_sec
       << ",\n"
       << "  \"multicore_ops_per_core\": " << mc_ops << ",\n"
       << "  \"serve_frames_per_sec\": " << serve_frames_per_sec << ",\n"
       << "  \"serve_clients\": " << serve_clients << ",\n"
       << "  \"sweep_workloads\": " << traces.all().size() << ",\n"
       << "  \"sweep_runs\": " << runs_out.size() * 2 << ",\n"
       << "  \"sweep_threads\": " << pool.threads() << ",\n"
       << "  \"sweep_wall_seconds\": " << sweep_secs << "\n"
       << "}\n";
  json.close();

  std::cout << "simulated mem-ops/sec: " << mem_ops_per_sec << " (" << runs
            << " x " << ops << " ops)\n"
            << "deep-queue mem-ops/sec: " << deep_queue_mem_ops_per_sec
            << " (" << runs << " x " << ops << " ops, 8x8, 64-entry queues)\n"
            << "write-drain mem-ops/sec: " << write_drain_mem_ops_per_sec
            << " (" << runs << " x " << ops
            << " ops, 80% writes, deep queues)\n"
            << "multi-channel mem-ops/sec: " << multi_channel_mem_ops_per_sec
            << " (" << runs << " x " << ops << " ops, 4 channels, serial)\n"
            << "sharded mem-ops/sec: " << sharded_mem_ops_per_sec << " ("
            << runs << " x " << ops << " ops, " << tile_cfg.shards
            << " shards, serial coordinator)\n"
            << "sharded threaded: slowest worker " << sh_cpu_1shard * 1e3
            << " ms CPU at 1 shard -> " << sh_cpu_4shard * 1e3
            << " ms at 4 shards (projected 4-core aggregate "
            << static_cast<double>(ops) / sh_cpu_4shard << " ops/s)\n"
            << "hybrid mem-ops/sec: " << hybrid_mem_ops_per_sec << " (" << runs
            << " x " << ops << " ops, RBLA hybrid, hot set)\n"
            << "compute-bound mem-ops/sec: " << compute_bound_mem_ops_per_sec
            << " (" << runs << " x 8 wrf cores x " << ops << " ops)\n"
            << "multicore-256 ops/sec: " << multicore_256_ops_per_sec << " ("
            << runs << " x 256 cores x " << mc_ops
            << " ops, wake calendar)\n"
            << "multicore-256 legacy ops/sec: "
            << multicore_256_legacy_ops_per_sec << " (same mix, min-scan; "
            << "calendar speedup "
            << multicore_256_ops_per_sec / multicore_256_legacy_ops_per_sec
            << "x)\n"
            << "multicore-1024 ops/sec: " << multicore_1024_ops_per_sec
            << " (1 x 1024 cores x " << mc_ops << " ops, wake calendar)\n"
            << "serve frames/sec: " << serve_frames_per_sec << " (" << runs
            << " x " << ops << " frames, " << serve_clients
            << " loopback clients, epoll front tier)\n"
            << "sweep wall seconds: " << sweep_secs << " ("
            << runs_out.size() * 2 << " runs on " << pool.threads()
            << " threads)\n"
            << "wrote " << out_path << "\n";
  return 0;
}
