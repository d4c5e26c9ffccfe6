// Tests for the indexed wake calendar (DESIGN.md §16): unit behaviour of
// the wheel/heap/lazy-invalidation structure, a randomized model-based fuzz
// (wakes never overshoot, min_due is exact), and the differential matrix
// pinning the calendar-scheduled multiprogrammed loop bit-identical to the
// legacy min-scan and the cycle-accurate reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <random>
#include <vector>

#include "sim/runner.hpp"
#include "sim/wake_calendar.hpp"
#include "sys/presets.hpp"
#include "trace/generator.hpp"
#include "trace/spec_profiles.hpp"

namespace fgnvm::sim {
namespace {

TEST(WakeCalendar, CollectsExactlyTheDueCores) {
  WakeCalendar cal;
  cal.reset(8);
  cal.schedule(0, 5);
  cal.schedule(1, 3);
  cal.schedule(2, 9);
  EXPECT_EQ(cal.min_due(), 3u);
  cal.advance_to(3);
  std::vector<std::uint32_t> out;
  cal.collect_due(5, out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_FALSE(cal.armed(0));
  EXPECT_FALSE(cal.armed(1));
  EXPECT_TRUE(cal.armed(2));
  EXPECT_EQ(cal.min_due(), 9u);
}

TEST(WakeCalendar, CancelDisarmsLazily) {
  WakeCalendar cal;
  cal.reset(4);
  cal.schedule(0, 10);
  cal.schedule(1, 20);
  cal.cancel(0);
  EXPECT_FALSE(cal.armed(0));
  EXPECT_EQ(cal.min_due(), 20u);  // stale slot-10 entry compacted
  cal.advance_to(20);
  std::vector<std::uint32_t> out;
  cal.collect_due(20, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1}));
}

TEST(WakeCalendar, RescheduleEarlierWinsImmediately) {
  WakeCalendar cal;
  cal.reset(2);
  cal.schedule(0, 100);
  cal.schedule(0, 40);  // completion pulled the wake earlier
  EXPECT_EQ(cal.min_due(), 40u);
  cal.advance_to(40);
  std::vector<std::uint32_t> out;
  cal.collect_due(40, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0}));
  out.clear();
  // The stale cycle-100 entry must not resurrect the core.
  cal.advance_to(100);
  cal.collect_due(100, out);
  EXPECT_TRUE(out.empty());
}

TEST(WakeCalendar, FarWakesMigrateFromTheHeap) {
  WakeCalendar cal;
  cal.reset(3);
  cal.schedule(0, 10'000);  // beyond the 4096-slot window: heap
  cal.schedule(1, 50);
  EXPECT_EQ(cal.min_due(), 50u);
  std::vector<std::uint32_t> out;
  cal.advance_to(50);
  cal.collect_due(50, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(cal.min_due(), 10'000u);
  cal.advance_to(9'000);  // migrates the far entry into the wheel
  out.clear();
  cal.advance_to(10'000);
  cal.collect_due(10'000, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0}));
}

TEST(WakeCalendar, CancelledFarEntryStaysDead) {
  WakeCalendar cal;
  cal.reset(2);
  cal.schedule(0, 20'000);
  cal.cancel(0);
  EXPECT_EQ(cal.min_due(), kNeverCycle);
  cal.advance_to(19'000);
  cal.advance_to(20'000);
  std::vector<std::uint32_t> out;
  cal.collect_due(20'000, out);
  EXPECT_TRUE(out.empty());
}

TEST(WakeCalendar, WindowWrapKeepsCyclesDistinct) {
  WakeCalendar cal;
  cal.reset(4, /*base=*/4090);  // slots wrap modulo 4096 around this base
  cal.schedule(0, 4093);
  cal.schedule(1, 4099);  // wraps to a low slot index
  cal.schedule(2, 4090 + 4000);
  EXPECT_EQ(cal.min_due(), 4093u);
  std::vector<std::uint32_t> out;
  cal.advance_to(4093);
  cal.collect_due(4093, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(cal.min_due(), 4099u);
  out.clear();
  cal.advance_to(4099);
  cal.collect_due(4099, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(cal.min_due(), 4090u + 4000u);
}

TEST(WakeCalendar, ResetReusesCapacityCleanly) {
  WakeCalendar cal;
  cal.reset(16);
  for (std::uint32_t i = 0; i < 16; ++i) cal.schedule(i, 7 + i);
  cal.reset(4, /*base=*/100);  // old entries must not leak through
  EXPECT_EQ(cal.min_due(), kNeverCycle);
  cal.schedule(3, 105);
  EXPECT_EQ(cal.min_due(), 105u);
  std::vector<std::uint32_t> out;
  cal.advance_to(105);
  cal.collect_due(105, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{3}));
}

// Model-based fuzz: random schedules, cancels (completion deliveries), and
// earlier re-schedules (completion-reorder pulls) against a naive per-core
// due map. At every advance the calendar's min_due must equal the model's
// minimum, and collect_due must return exactly the model's due set — wakes
// never overshoot (no armed core is skipped past) and never resurrect.
TEST(WakeCalendar, RandomizedModelFuzz) {
  std::mt19937 rng(12345);
  constexpr std::uint32_t kCores = 64;
  WakeCalendar cal;
  std::vector<Cycle> model(kCores, kNeverCycle);
  cal.reset(kCores);
  Cycle base = 0;
  for (int round = 0; round < 20'000; ++round) {
    const int action = static_cast<int>(rng() % 100);
    const std::uint32_t core = rng() % kCores;
    if (action < 55) {
      // Schedule: near wakes dominate, with occasional far (heap) wakes.
      const Cycle due =
          base + (rng() % 10 == 0 ? 4096 + rng() % 100'000 : rng() % 4000);
      cal.schedule(core, due);
      model[core] = due;
    } else if (action < 70) {
      cal.cancel(core);  // completion woke it early
      model[core] = kNeverCycle;
    } else if (action < 80 && model[core] != kNeverCycle &&
               model[core] > base) {
      // Completion-reorder pull: re-arm strictly earlier than before.
      const Cycle due = base + rng() % (model[core] - base);
      cal.schedule(core, due);
      model[core] = due;
    } else {
      // Advance to the earliest wake and collect. Never past min_due: the
      // runner's jump is bounded by it.
      const Cycle model_min = *std::min_element(model.begin(), model.end());
      ASSERT_EQ(cal.min_due(), model_min) << "round " << round;
      if (model_min == kNeverCycle) continue;
      const Cycle t = model_min + rng() % 16;  // collect a small batch
      base = std::min(t, model_min);
      cal.advance_to(base);
      std::vector<std::uint32_t> got;
      cal.collect_due(std::min<Cycle>(t, base + 4095), got);
      std::vector<std::uint32_t> want;
      for (std::uint32_t i = 0; i < kCores; ++i) {
        if (model[i] <= std::min<Cycle>(t, base + 4095)) {
          want.push_back(i);
          model[i] = kNeverCycle;
        }
      }
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, want) << "round " << round;
    }
  }
}

// ---------------------------------------------------------------------------
// Differential suite: calendar vs legacy min-scan vs cycle-accurate.

std::vector<trace::Trace> mixed_traces(std::size_t cores, std::uint64_t ops,
                                       double mpki = 0.0) {
  static const char* kNames[] = {"mcf",    "lbm",        "milc",   "omnetpp",
                                 "soplex", "libquantum", "bwaves", "sphinx3"};
  std::vector<trace::Trace> v;
  for (std::size_t i = 0; i < cores; ++i) {
    trace::WorkloadProfile p = trace::spec2006_profile(kNames[i % 8]);
    if (mpki > 0.0) {
      // Low-intensity tenant variant for the very large core counts: keeps
      // the run off the saturation wall so it finishes quickly.
      p.mpki = mpki;
      p.seed += i;
    }
    v.push_back(trace::generate_trace(p, ops));
  }
  return v;
}

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

template <typename Config>
MultiProgramResult run_mp(const std::vector<trace::Trace>& traces,
                          const Config& cfg, LoopMode mode, bool calendar) {
  ScopedEnv env("FGNVM_WAKE_CALENDAR", calendar ? "1" : "0");
  return run_multiprogrammed(traces, cfg, {}, 500'000'000, mode);
}

template <typename Config>
void expect_tri_identical(const std::vector<trace::Trace>& traces,
                          const Config& cfg, const std::string& label) {
  const MultiProgramResult cal =
      run_mp(traces, cfg, LoopMode::kEventSkip, true);
  const MultiProgramResult scan =
      run_mp(traces, cfg, LoopMode::kEventSkip, false);
  EXPECT_EQ(diff_results(cal, scan), "") << label << ": calendar vs scan";
  const MultiProgramResult eager =
      run_mp(traces, cfg, LoopMode::kCycleAccurate, true);
  EXPECT_EQ(diff_results(cal, eager), "") << label << ": calendar vs eager";
}

TEST(WakeCalendarDifferential, FgnvmMatrix) {
  for (const std::size_t cores : {1u, 4u, 64u}) {
    const auto traces = mixed_traces(cores, cores > 8 ? 120 : 400);
    expect_tri_identical(traces, sys::fgnvm_config(4, 4),
                         "fgnvm x " + std::to_string(cores));
  }
}

TEST(WakeCalendarDifferential, DramMatrix) {
  for (const std::size_t cores : {1u, 4u, 64u}) {
    const auto traces = mixed_traces(cores, cores > 8 ? 120 : 400);
    expect_tri_identical(traces, sys::dram_config(),
                         "dram x " + std::to_string(cores));
  }
}

TEST(WakeCalendarDifferential, HybridMatrix) {
  for (const std::size_t cores : {1u, 4u, 64u}) {
    const auto traces = mixed_traces(cores, cores > 8 ? 120 : 400);
    expect_tri_identical(traces, sys::hybrid_config(4, 4),
                         "hybrid x " + std::to_string(cores));
  }
}

// The very large core counts run calendar-vs-scan in skip mode only: the
// cycle-accurate reference at 1024 cores would dominate suite wall time
// without adding coverage beyond the 64-core matrix above.
TEST(WakeCalendarDifferential, ManyCoreSkipIdentity) {
  // Four channels keep aggregate demand below the service rate (the same
  // operating point as the perf_smoke many-core scenario) so the test runs
  // in seconds instead of grinding through a fully saturated memory.
  sys::SystemConfig cfg = sys::fgnvm_config(4, 4);
  cfg.geometry.channels = 4;
  cfg.geometry.validate();
  for (const std::size_t cores : {256u, 1024u}) {
    const auto traces =
        mixed_traces(cores, 48, /*mpki=*/25.6 / static_cast<double>(cores));
    const MultiProgramResult cal =
        run_mp(traces, cfg, LoopMode::kEventSkip, true);
    const MultiProgramResult scan =
        run_mp(traces, cfg, LoopMode::kEventSkip, false);
    EXPECT_EQ(diff_results(cal, scan), "")
        << cores << " cores: calendar vs scan";
    ASSERT_EQ(cal.ipc.size(), cores);
  }
}

// Streamed sources and materialized cursors must drive the multiprogrammed
// calendar loop to byte-identical stats (the runner-level counterpart of
// StreamTest.StreamedRunByteIdenticalToMaterialized).
TEST(WakeCalendarDifferential, FairnessHelpersAreConsistent) {
  const auto traces = mixed_traces(4, 400);
  const sys::SystemConfig cfg = sys::fgnvm_config(4, 4);
  std::vector<double> alone;
  for (const auto& tr : traces) alone.push_back(run_workload(tr, cfg).ipc);
  const MultiProgramResult r = run_multiprogrammed(traces, cfg);
  const std::vector<double> slow = r.slowdowns(alone);
  ASSERT_EQ(slow.size(), 4u);
  double max_slow = 0.0, sum_slow = 0.0;
  for (const double s : slow) {
    EXPECT_GE(s, 0.95);  // contention can only slow a tenant down
    max_slow = std::max(max_slow, s);
    sum_slow += s;
  }
  EXPECT_DOUBLE_EQ(r.max_slowdown(alone), max_slow);
  EXPECT_NEAR(r.harmonic_speedup(alone), 4.0 / sum_slow, 1e-12);
  const double fair = r.fairness(alone);
  EXPECT_GT(fair, 0.0);
  EXPECT_LE(fair, 1.0);
  EXPECT_THROW(r.slowdowns({1.0}), std::invalid_argument);
  EXPECT_THROW(r.fairness({1.0, 2.0, 3.0}), std::invalid_argument);
}

}  // namespace
}  // namespace fgnvm::sim
