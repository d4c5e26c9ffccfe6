// google-benchmark microbenchmarks of the simulator's hot paths: bank FSM
// queries, scheduler picks, address decoding, trace generation, and a full
// end-to-end simulation throughput figure (simulated memory ops per second).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <ctime>
#include <thread>
#include <vector>

#include "mem/geometry.hpp"
#include "nvm/fgnvm_bank.hpp"
#include "sim/runner.hpp"
#include "sys/memory_system.hpp"
#include "sys/presets.hpp"
#include "tile/spsc_ring.hpp"
#include "tile/topology.hpp"
#include "trace/generator.hpp"
#include "trace/spec_profiles.hpp"

namespace {

using namespace fgnvm;

mem::MemGeometry bench_geometry(std::uint64_t sags, std::uint64_t cds) {
  mem::MemGeometry g;
  g.banks_per_rank = 8;
  g.rows_per_bank = 4096;
  g.row_bytes = 1024;
  g.line_bytes = 64;
  g.num_sags = sags;
  g.num_cds = cds;
  return g;
}

void BM_AddressDecode(benchmark::State& state) {
  const mem::AddressDecoder dec(bench_geometry(4, 4));
  Addr a = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.decode(a));
    a += 4096 + 64;
  }
}
BENCHMARK(BM_AddressDecode);

void BM_BankEarliestActivate(benchmark::State& state) {
  const mem::MemGeometry geo =
      bench_geometry(state.range(0), state.range(1));
  const mem::TimingParams timing;
  nvm::FgNvmBank bank(geo, timing, nvm::AccessModes::all_on());
  const mem::AddressDecoder dec(geo);
  const auto addr = dec.decode(dec.encode(0, 0, 0, 100, 3));
  Cycle now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bank.earliest_activate(addr, nvm::ActPurpose::kRead, now++));
  }
}
BENCHMARK(BM_BankEarliestActivate)->Args({4, 4})->Args({32, 32});

void BM_BankActivateColumnCycle(benchmark::State& state) {
  const mem::MemGeometry geo = bench_geometry(4, 4);
  const mem::TimingParams timing;
  nvm::FgNvmBank bank(geo, timing, nvm::AccessModes::all_on());
  const mem::AddressDecoder dec(geo);
  Cycle now = 0;
  std::uint64_t row = 0;
  for (auto _ : state) {
    const auto addr = dec.decode(dec.encode(0, 0, 0, row, 0));
    now = bank.earliest_activate(addr, nvm::ActPurpose::kRead, now);
    bank.issue_activate(addr, nvm::ActPurpose::kRead, now);
    now = bank.earliest_column(addr, OpType::kRead, now);
    benchmark::DoNotOptimize(bank.issue_column(addr, OpType::kRead, now));
    row = (row + 1) % geo.rows_per_bank;
  }
}
BENCHMARK(BM_BankActivateColumnCycle);

void BM_TraceGeneration(benchmark::State& state) {
  const trace::WorkloadProfile p = trace::spec2006_profile("milc");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trace::generate_trace(p, static_cast<std::uint64_t>(state.range(0))));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TraceGeneration)->Arg(10000);

void BM_ControllerNextEvent(benchmark::State& state) {
  // next_event is the event-skipping loop's inner query; exercise it
  // against full queues with a realistic address mix.
  const sys::SystemConfig cfg = sys::fgnvm_config(4, 4);
  sys::MemorySystem mem(cfg);
  const trace::Trace tr =
      trace::generate_trace(trace::spec2006_profile("milc"), 512);
  Cycle now = 0;
  for (const trace::TraceRecord& rec : tr.records) {
    if (!mem.can_accept(rec.addr, rec.op)) break;
    mem.submit(rec.addr, rec.op, now, 0);
  }
  std::vector<mem::MemRequest> drained;
  mem.tick(now);
  mem.drain_completed(drained);  // forwarded reads would short-circuit
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.next_event(now));
  }
}
BENCHMARK(BM_ControllerNextEvent);

sys::SystemConfig deep_queue_config(std::uint64_t sags, std::uint64_t cds) {
  // Deep scheduler queues: the regime where the pre-index full-queue scans
  // were O(Q) per issue slot and O(Q^2) per demand-aggregated activation.
  sys::SystemConfig cfg = sys::fgnvm_config(sags, cds);
  cfg.controller.read_queue_cap = 64;
  cfg.controller.write_queue_cap = 128;
  cfg.controller.wq_high = 64;
  cfg.controller.wq_low = 16;
  return cfg;
}

void BM_TryIssueDeepQueue(benchmark::State& state) {
  // Steady-state issue selection against a saturated 64-entry read queue:
  // each tick runs the column/activate/write pick walks, with the submit
  // loop keeping the queue at capacity.
  const sys::SystemConfig cfg =
      deep_queue_config(state.range(0), state.range(1));
  sys::MemorySystem mem(cfg);
  const trace::Trace tr =
      trace::generate_trace(trace::spec2006_profile("mcf"), 8192);
  std::vector<mem::MemRequest> out;
  Cycle now = 0;
  std::size_t rec = 0;
  for (auto _ : state) {
    while (true) {
      const trace::TraceRecord& r = tr.records[rec];
      if (!mem.can_accept(r.addr, r.op)) break;
      mem.submit(r.addr, r.op, now, 0);
      rec = (rec + 1) % tr.records.size();
    }
    mem.tick(now);
    mem.drain_completed(out);
    benchmark::DoNotOptimize(out.data());
    out.clear();
    ++now;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TryIssueDeepQueue)->Args({8, 8})->Args({32, 32});

void BM_NextEventDeepQueue(benchmark::State& state) {
  // next_event against a saturated 64-entry read queue plus queued writes —
  // the event-skipping loop's query cost at depth. The indexed scheduler
  // serves this from cached per-bank candidates (banks stay clean between
  // queries), where the scan implementation re-walked every queue entry.
  const sys::SystemConfig cfg =
      deep_queue_config(state.range(0), state.range(1));
  sys::MemorySystem mem(cfg);
  const trace::Trace tr =
      trace::generate_trace(trace::spec2006_profile("mcf"), 512);
  Cycle now = 0;
  for (const trace::TraceRecord& rec : tr.records) {
    if (!mem.can_accept(rec.addr, rec.op)) break;
    mem.submit(rec.addr, rec.op, now, 0);
  }
  std::vector<mem::MemRequest> drained;
  mem.tick(now);
  mem.drain_completed(drained);  // forwarded reads would short-circuit
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.next_event(now));
  }
}
BENCHMARK(BM_NextEventDeepQueue)->Args({8, 8})->Args({32, 32});

void BM_TakeCompleted(benchmark::State& state) {
  // Steady-state submit/tick/drain cycle through the allocation-free
  // completion path (drain_completed into a reused buffer).
  const sys::SystemConfig cfg = sys::fgnvm_config(4, 4);
  sys::MemorySystem mem(cfg);
  const trace::Trace tr =
      trace::generate_trace(trace::spec2006_profile("milc"), 4096);
  std::vector<mem::MemRequest> out;
  Cycle now = 0;
  std::size_t rec = 0;
  for (auto _ : state) {
    while (true) {
      const trace::TraceRecord& r = tr.records[rec];
      if (!mem.can_accept(r.addr, r.op)) break;
      mem.submit(r.addr, r.op, now, 0);
      rec = (rec + 1) % tr.records.size();
    }
    mem.tick(now);
    mem.drain_completed(out);
    benchmark::DoNotOptimize(out.data());
    ++now;
  }
}
BENCHMARK(BM_TakeCompleted);

void BM_MultiChannelAdvance(benchmark::State& state) {
  // Windowed channel advance: saturate four independent channels with deep
  // queues, then repeatedly run them to a horizon via advance_channels_to —
  // the path the event loops use between interaction points.
  sys::SystemConfig cfg = deep_queue_config(8, 8);
  cfg.geometry.channels = 4;
  cfg.geometry.validate();
  sys::MemorySystem mem(cfg);
  const trace::Trace tr =
      trace::generate_trace(trace::spec2006_profile("mcf"), 16384);
  std::vector<mem::MemRequest> out;
  Cycle now = 0;
  std::size_t rec = 0;
  for (auto _ : state) {
    while (true) {
      const trace::TraceRecord& r = tr.records[rec];
      if (!mem.can_accept(r.addr, r.op)) break;
      mem.submit(r.addr, r.op, now, 0);
      rec = (rec + 1) % tr.records.size();
    }
    mem.tick(now);
    mem.drain_completed(out);
    benchmark::DoNotOptimize(out.data());
    const Cycle horizon = now + 256;
    mem.advance_channels_to(horizon);
    now = horizon;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MultiChannelAdvance)->Unit(benchmark::kMicrosecond);

void BM_AdvancePhase(benchmark::State& state) {
  // Analytic fast-forward (DESIGN.md §12): a write-heavy closed-loop run is
  // dominated by high-watermark drains, which the phase engine replays in
  // closed form instead of tick by tick. Arg 0/1 = engine forced off/on via
  // the FGNVM_PHASE_ENGINE override the controller reads at construction;
  // the simulated schedule is bit-identical either way, only host time
  // changes.
  setenv("FGNVM_PHASE_ENGINE", state.range(0) ? "1" : "0", 1);
  trace::WorkloadProfile p = trace::spec2006_profile("mcf");
  p.name = "write_drain";
  p.write_fraction = 0.8;
  const trace::Trace tr = trace::generate_trace(p, 4096);
  const sys::SystemConfig cfg = deep_queue_config(8, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_memory_only(tr, cfg));
  }
  state.SetItemsProcessed(state.iterations() * 4096);
  unsetenv("FGNVM_PHASE_ENGINE");
}
BENCHMARK(BM_AdvancePhase)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// SoA-vs-AoS candidate probing: the pre-index scheduler walked pooled
// MemRequest objects and probed through the virtual bank interface; the
// request index caches each slot's (sag, row, line-CD mask) image in
// parallel arrays and probes the concrete bank's inline keyed variants.
// Same 64-candidate scan, same answers — the pair measures the layout +
// dispatch difference in isolation.

std::vector<mem::DecodedAddr> probe_scan_addrs(const mem::MemGeometry& geo) {
  const mem::AddressDecoder dec(geo);
  std::vector<mem::DecodedAddr> addrs;
  for (std::uint64_t i = 0; i < 64; ++i) {
    addrs.push_back(
        dec.decode(dec.encode(0, 0, 0, (i * 7) % geo.rows_per_bank,
                              i % (geo.row_bytes / geo.line_bytes))));
  }
  return addrs;
}

void BM_ProbeScanAoS(benchmark::State& state) {
  const mem::MemGeometry geo = bench_geometry(8, 8);
  nvm::FgNvmBank bank(geo, mem::TimingParams{}, nvm::AccessModes::all_on());
  const nvm::Bank& vbank = bank;  // virtual dispatch, as the old scans used
  std::vector<mem::MemRequest> pool;
  for (const mem::DecodedAddr& a : probe_scan_addrs(geo)) {
    mem::MemRequest r;
    r.addr = a;
    pool.push_back(r);
  }
  Cycle now = 0;
  for (auto _ : state) {
    Cycle m = kNeverCycle;
    for (const mem::MemRequest& r : pool) {
      m = std::min(m, vbank.earliest_column(r.addr, OpType::kRead, now));
    }
    benchmark::DoNotOptimize(m);
    ++now;
  }
  state.SetItemsProcessed(state.iterations() * pool.size());
}
BENCHMARK(BM_ProbeScanAoS);

void BM_ProbeScanSoA(benchmark::State& state) {
  const mem::MemGeometry geo = bench_geometry(8, 8);
  nvm::FgNvmBank bank(geo, mem::TimingParams{}, nvm::AccessModes::all_on());
  std::vector<std::uint64_t> sag;
  std::vector<std::uint64_t> cds;
  for (const mem::DecodedAddr& a : probe_scan_addrs(geo)) {
    sag.push_back(a.sag);
    cds.push_back(((a.cd_count >= 64 ? ~0ULL : (1ULL << a.cd_count) - 1))
                  << a.cd);
  }
  Cycle now = 0;
  for (auto _ : state) {
    Cycle m = kNeverCycle;
    for (std::size_t i = 0; i < sag.size(); ++i) {
      m = std::min(m,
                   bank.earliest_column_key(sag[i], cds[i], OpType::kRead, now));
    }
    benchmark::DoNotOptimize(m);
    ++now;
  }
  state.SetItemsProcessed(state.iterations() * sag.size());
}
BENCHMARK(BM_ProbeScanSoA);

void BM_EndToEndSimulation(benchmark::State& state) {
  const trace::Trace tr =
      trace::generate_trace(trace::spec2006_profile("milc"), 2000);
  const sys::SystemConfig cfg = sys::fgnvm_config(4, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_workload(tr, cfg));
  }
  state.SetItemsProcessed(state.iterations() * 2000);  // memory ops / s
}
BENCHMARK(BM_EndToEndSimulation)->Unit(benchmark::kMillisecond);

void BM_SpscRing(benchmark::State& state) {
  // Same-thread push/pop pair: the steady-state cost of one ring handoff
  // (one relaxed load, one slot copy, one release store per side).
  tile::SpscRing<std::uint64_t> ring(1024);
  std::uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.try_push(v));
    benchmark::DoNotOptimize(ring.try_pop(v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpscRing);

void BM_SpscRingThreaded(benchmark::State& state) {
  // Cross-thread handoff throughput, cache lines actually pinging.
  for (auto _ : state) {
    constexpr std::uint64_t kItems = 100'000;
    tile::SpscRing<std::uint64_t> ring(1024);
    std::thread consumer([&ring] {
      std::uint64_t got = 0, v = 0;
      while (got < kItems) {
        if (ring.try_pop(v)) {
          ++got;
        } else {
          std::this_thread::yield();
        }
      }
    });
    for (std::uint64_t i = 0; i < kItems; ++i) {
      while (!ring.try_push(i)) std::this_thread::yield();
    }
    consumer.join();
    state.SetItemsProcessed(state.items_processed() + kItems);
  }
}
BENCHMARK(BM_SpscRingThreaded)->Unit(benchmark::kMillisecond);

void BM_SpscRingBatch(benchmark::State& state) {
  // Batched same-thread handoff: try_push_n/try_pop_n publish a whole batch
  // with ONE release store at the tail instead of one per item. Arg0 =
  // batch size; compare items/s against BM_SpscRing (batch of 1).
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  tile::SpscRing<std::uint64_t> ring(1024);
  std::vector<std::uint64_t> in(batch, 42), out(batch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.try_push_n(in.data(), batch));
    benchmark::DoNotOptimize(ring.try_pop_n(out.data(), batch));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SpscRingBatch)->Arg(4)->Arg(16)->Arg(64);

/// CPU time consumed by the calling thread, in seconds (host telemetry;
/// items/s alone is misleading on a single-core runner where producer and
/// consumer time-share).
double bench_thread_cpu_seconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return 0.0;
}

void BM_SpscRingThreadedBatch(benchmark::State& state) {
  // Cross-thread handoff with batched publication on both sides. Arg0 =
  // batch size (1 reproduces BM_SpscRingThreaded's per-item protocol
  // through the batched entry points). The per-thread CPU counters show
  // the real win on a time-shared core: fewer seq/fseq cache-line
  // handoffs per item on both sides.
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  double producer_cpu = 0.0, consumer_cpu = 0.0;
  for (auto _ : state) {
    constexpr std::uint64_t kItems = 100'000;
    tile::SpscRing<std::uint64_t> ring(1024);
    std::thread consumer([&ring, batch, &consumer_cpu] {
      const double cpu0 = bench_thread_cpu_seconds();
      std::vector<std::uint64_t> out(batch);
      std::uint64_t got = 0;
      while (got < kItems) {
        const std::size_t n = ring.try_pop_n(out.data(), batch);
        if (n > 0) {
          got += n;
        } else {
          std::this_thread::yield();
        }
      }
      consumer_cpu += bench_thread_cpu_seconds() - cpu0;
    });
    const double cpu0 = bench_thread_cpu_seconds();
    std::vector<std::uint64_t> in(batch);
    std::uint64_t next = 0;
    while (next < kItems) {
      std::size_t n = batch;
      if (n > kItems - next) n = static_cast<std::size_t>(kItems - next);
      for (std::size_t i = 0; i < n; ++i) in[i] = next + i;
      std::size_t done = 0;
      while (done < n) {
        const std::size_t pushed = ring.try_push_n(in.data() + done, n - done);
        if (pushed == 0) std::this_thread::yield();
        done += pushed;
      }
      next += n;
    }
    producer_cpu += bench_thread_cpu_seconds() - cpu0;
    consumer.join();
    state.SetItemsProcessed(state.items_processed() + kItems);
  }
  state.counters["producer_cpu_s"] = producer_cpu;
  state.counters["consumer_cpu_s"] = consumer_cpu;
}
BENCHMARK(BM_SpscRingThreadedBatch)
    ->Arg(1)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_ShardedAdvance(benchmark::State& state) {
  // Full sharded replay: trace -> rings -> per-channel-clock shards ->
  // channel-order merge. Arg0 = shard count, Arg1 = worker threads (0 =
  // inline serial reference).
  const trace::Trace tr =
      trace::generate_trace(trace::spec2006_profile("milc"), 4000);
  sys::SystemConfig cfg = sys::fgnvm_config(4, 4);
  cfg.geometry.channels = 4;
  cfg.geometry.validate();
  tile::TopologyConfig tcfg;
  tcfg.shards = static_cast<std::uint64_t>(state.range(0));
  tcfg.worker_threads = state.range(1) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tile::run_sharded(tr, cfg, tcfg));
  }
  state.SetItemsProcessed(state.iterations() * 4000);  // memory ops / s
}
BENCHMARK(BM_ShardedAdvance)
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
