// End-to-end integration and property tests: full CPU + memory runs over
// generated workloads, checking the invariants the paper's evaluation rests
// on (determinism, conservation, latency bounds, speedup and energy
// orderings across configurations).
#include <gtest/gtest.h>

#include <algorithm>

#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "sys/presets.hpp"
#include "trace/generator.hpp"
#include "trace/spec_profiles.hpp"

namespace fgnvm::sim {
namespace {

trace::Trace small_trace(const std::string& profile_name,
                         std::uint64_t ops = 3000) {
  return trace::generate_trace(trace::spec2006_profile(profile_name), ops);
}

TEST(Integration, DeterministicAcrossRuns) {
  const trace::Trace tr = small_trace("milc");
  const RunResult a = run_workload(tr, sys::fgnvm_config(4, 4));
  const RunResult b = run_workload(tr, sys::fgnvm_config(4, 4));
  EXPECT_EQ(a.cpu_cycles, b.cpu_cycles);
  EXPECT_EQ(a.mem_cycles, b.mem_cycles);
  EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
  EXPECT_DOUBLE_EQ(a.energy.total_pj(), b.energy.total_pj());
  EXPECT_EQ(a.banks.bits_sensed, b.banks.bits_sensed);
}

TEST(Integration, ConservesRequests) {
  const trace::Trace tr = small_trace("soplex");
  const RunResult r = run_workload(tr, sys::fgnvm_config(4, 4));
  std::uint64_t reads = 0, writes = 0;
  for (const auto& rec : tr.records) {
    (rec.op == OpType::kRead ? reads : writes) += 1;
  }
  EXPECT_EQ(r.reads, reads);
  EXPECT_EQ(r.writes, writes);
  EXPECT_EQ(r.instructions, tr.total_instructions());
  // Every accepted (non-forwarded) read was eventually serviced.
  EXPECT_EQ(r.controller.counter("reads.accepted"),
            r.controller.counter("cmd.read"));
  // Every non-coalesced write was programmed.
  EXPECT_EQ(r.controller.counter("writes.accepted"),
            r.controller.counter("cmd.write"));
}

TEST(Integration, ReadLatencyRespectsPhysicalMinimum) {
  const trace::Trace tr = small_trace("sphinx3");
  const RunResult r = run_workload(tr, sys::baseline_config());
  const mem::TimingParams t;
  // No serviced read can beat CAS + burst (forwarded reads are excluded
  // from this distribution only if never enqueued; they complete in 1).
  EXPECT_GE(r.controller.distribution("read_latency").min(), 1.0);
  EXPECT_GE(r.avg_read_latency, static_cast<double>(t.tCAS + t.tBURST));
}

TEST(Integration, LatencyPercentilesOrdered) {
  const trace::Trace tr = small_trace("milc");
  const RunResult r = run_workload(tr, sys::fgnvm_config(4, 4));
  EXPECT_GT(r.p50_read_latency, 0.0);
  EXPECT_LE(r.p50_read_latency, r.p95_read_latency);
  EXPECT_LE(r.p95_read_latency, r.p99_read_latency);
  // The mean sits between the median and the tail for these skewed
  // write-interference distributions.
  EXPECT_LT(r.p50_read_latency, r.avg_read_latency * 1.5);
}

TEST(Integration, JsonReportWellFormedFields) {
  const trace::Trace tr = small_trace("wrf", 1500);
  const RunResult r = run_workload(tr, sys::fgnvm_config(4, 4));
  const std::string json = to_json(r);
  for (const char* key :
       {"\"ipc\"", "\"energy_pj\"", "\"counters\"", "\"p99_read_latency\"",
        "\"underfetch_acts\"", "\"workload\": \"wrf\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Balanced braces (cheap structural sanity; full parse done in CI via
  // python in the examples smoke run).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Integration, MemoryOnlyRunnerDrains) {
  const trace::Trace tr = small_trace("bwaves", 2000);
  const RunResult r = run_memory_only(tr, sys::fgnvm_config(4, 4));
  EXPECT_EQ(r.reads + r.writes, 2000u);
  EXPECT_GT(r.mem_cycles, 0u);
  EXPECT_EQ(r.instructions, 0u);
}

TEST(Integration, MemoryOnlyFasterOnManyBanks) {
  const trace::Trace tr = small_trace("mcf", 2000);
  const RunResult base = run_memory_only(tr, sys::baseline_config());
  const RunResult mb = run_memory_only(tr, sys::many_banks_config(4, 4));
  EXPECT_LT(mb.mem_cycles, base.mem_cycles);
}

TEST(Integration, BankStatsConsistent) {
  const trace::Trace tr = small_trace("lbm");
  const RunResult r = run_workload(tr, sys::fgnvm_config(4, 4));
  // Sensing happens in whole segments: 256B x 8 bits each.
  EXPECT_EQ(r.banks.bits_sensed % (256 * 8), 0u);
  // Every write programs exactly one 64B line.
  EXPECT_EQ(r.banks.bits_written, r.controller.counter("cmd.write") * 512);
  EXPECT_LE(r.banks.underfetch_acts, r.banks.acts_for_read);
}

// ---- Paper-facing property sweeps --------------------------------------

class SpeedupOrdering : public ::testing::TestWithParam<const char*> {};

TEST_P(SpeedupOrdering, FgnvmAndManyBanksBeatBaseline) {
  const trace::Trace tr = small_trace(GetParam());
  const double base = run_workload(tr, sys::baseline_config()).ipc;
  const double fg = run_workload(tr, sys::fgnvm_config(4, 4)).ipc;
  const double mb = run_workload(tr, sys::many_banks_config(4, 4)).ipc;
  // FgNVM must never lose badly to the baseline, and the idealized
  // many-bank memory bounds FgNVM from above (modulo small noise).
  EXPECT_GT(fg, base * 0.97) << GetParam();
  EXPECT_GT(mb, base) << GetParam();
  EXPECT_GT(mb, fg * 0.95) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(HighMpki, SpeedupOrdering,
                         ::testing::Values("lbm", "milc", "omnetpp",
                                           "soplex"));

class EnergyOrdering : public ::testing::TestWithParam<const char*> {};

TEST_P(EnergyOrdering, EnergyFallsWithColumnDivisions) {
  const trace::Trace tr = small_trace(GetParam());
  const double base = run_workload(tr, sys::baseline_config()).energy.total_pj();
  const double e2 =
      run_workload(tr, sys::fgnvm_config(8, 2)).energy.total_pj();
  const double e8 =
      run_workload(tr, sys::fgnvm_config(8, 8)).energy.total_pj();
  const double e32 =
      run_workload(tr, sys::fgnvm_config(8, 32)).energy.total_pj();
  EXPECT_LT(e2, base) << GetParam();
  EXPECT_LT(e8, e2) << GetParam();
  // Diminishing returns: 8x32 may hover near 8x8 (background energy floor)
  // but must stay clearly under 8x2.
  EXPECT_LT(e32, e2 * 0.9) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(HighMpki, EnergyOrdering,
                         ::testing::Values("lbm", "mcf", "libquantum",
                                           "sphinx3"));

class ModeMonotonicity : public ::testing::TestWithParam<const char*> {};

TEST_P(ModeMonotonicity, DisablingEverythingRecoversBaselineBehaviour) {
  const trace::Trace tr = small_trace(GetParam(), 2000);
  // A 1x1 FgNVM with all modes off IS the baseline bank; the whole-system
  // results must match the baseline preset exactly.
  sys::SystemConfig degenerate = sys::fgnvm_config(1, 1);
  degenerate.modes = nvm::AccessModes::all_off();
  degenerate.controller.policy = sched::SchedulerPolicy::kFrfcfs;
  const RunResult a = run_workload(tr, sys::baseline_config());
  const RunResult b = run_workload(tr, degenerate);
  EXPECT_EQ(a.cpu_cycles, b.cpu_cycles) << GetParam();
  EXPECT_DOUBLE_EQ(a.energy.total_pj(), b.energy.total_pj()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Degenerate, ModeMonotonicity,
                         ::testing::Values("milc", "wrf"));

TEST(Integration, BackgroundWritesReduceWriteDrains) {
  const trace::Trace tr = small_trace("lbm");
  sys::SystemConfig aug = sys::fgnvm_config(4, 4);
  sys::SystemConfig plain = sys::fgnvm_config(4, 4);
  plain.controller.policy = sched::SchedulerPolicy::kFrfcfs;
  const RunResult ra = run_workload(tr, aug);
  const RunResult rp = run_workload(tr, plain);
  EXPECT_GT(ra.controller.counter("cmd.write_background"), 0u);
  EXPECT_LT(ra.controller.counter("cmd.write_drain"),
            rp.controller.counter("cmd.write_drain"));
}

TEST(Integration, PartialActivationCutsSensedBits) {
  const trace::Trace tr = small_trace("milc");
  sys::SystemConfig on = sys::fgnvm_config(4, 4);
  sys::SystemConfig off = sys::fgnvm_config(4, 4);
  off.modes.partial_activation = false;
  const RunResult ron = run_workload(tr, on);
  const RunResult roff = run_workload(tr, off);
  EXPECT_LT(ron.banks.bits_sensed, roff.banks.bits_sensed / 2);
}

TEST(Integration, DeadlockGuardFires) {
  const trace::Trace tr = small_trace("mcf", 2000);
  EXPECT_THROW(run_workload(tr, sys::fgnvm_config(4, 4), {}, 10),
               std::runtime_error);
}

TEST(Integration, DeadlockGuardReportsConfigAndChannels) {
  // Every loop's guard names the config, the cycle and each channel's state.
  const trace::Trace tr = small_trace("mcf", 2000);
  sys::SystemConfig cfg = sys::fgnvm_config(4, 4);
  cfg.geometry.channels = 2;
  cfg.geometry.validate();
  const auto expect_report = [&](const auto& run, const char* what) {
    try {
      run();
      ADD_FAILURE() << what << ": guard did not fire";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("exceeded max_mem_cycles at cycle"),
                std::string::npos) << what << ": " << msg;
      EXPECT_NE(msg.find(cfg.name), std::string::npos) << what << ": " << msg;
      EXPECT_NE(msg.find("ch0 next_event="), std::string::npos)
          << what << ": " << msg;
      EXPECT_NE(msg.find("ch1 next_event="), std::string::npos)
          << what << ": " << msg;
    }
  };
  for (const LoopMode mode : {LoopMode::kCycleAccurate, LoopMode::kEventSkip}) {
    expect_report([&] { run_workload(tr, cfg, {}, 10, mode); },
                  "run_workload");
    expect_report([&] { run_memory_only(tr, cfg, 10, mode); },
                  "run_memory_only");
    expect_report(
        [&] { run_multiprogrammed(std::vector<trace::Trace>{tr, tr}, cfg, {},
                                  10, mode); },
        "run_multiprogrammed");
  }
}

}  // namespace
}  // namespace fgnvm::sim
