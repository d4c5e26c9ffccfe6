// Event-skip vs cycle-accurate equivalence (tier 1).
//
// The event-driven loops promise bit-identical results to the reference
// cycle-by-cycle loops (DESIGN.md: next_event never overshoots). These
// tests enforce the promise for every shipped preset configuration across
// two contrasting workloads, for all three run entry points and all three
// LoopModes (kAuto must match whichever loop it picks), using diff_results
// — which compares every stat down to distribution moments and histogram
// buckets with exact floating-point equality.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/runner.hpp"
#include "sys/presets.hpp"
#include "trace/generator.hpp"
#include "trace/spec_profiles.hpp"

namespace {

using namespace fgnvm;

struct NamedConfig {
  std::string name;
  sys::SystemConfig cfg;
};

/// Widens a preset to `channels` channels.
sys::SystemConfig with_channels(sys::SystemConfig cfg, std::uint64_t channels) {
  cfg.geometry.channels = channels;
  cfg.geometry.validate();
  return cfg;
}

std::vector<NamedConfig> preset_configs() {
  return {
      {"baseline", sys::baseline_config()},
      {"fgnvm_4x4", sys::fgnvm_config(4, 4)},
      {"fgnvm_4x4_multi_issue", sys::fgnvm_config(4, 4, true)},
      {"fgnvm_8x8", sys::fgnvm_config(8, 8)},
      {"many_banks_4x4", sys::many_banks_config(4, 4)},
      {"perfect", sys::perfect_config()},
      {"dram", sys::dram_config()},
      {"dram_salp8", sys::dram_config(8)},
      // Multi-channel geometries: the per-channel due caches and windowed
      // advance must stay bit-identical when requests spread over channels.
      {"fgnvm_4x4_ch4", with_channels(sys::fgnvm_config(4, 4), 4)},
      {"dram_ch4", with_channels(sys::dram_config(), 4)},
      {"dram_salp4_ch4", with_channels(sys::dram_config(4), 4)},
  };
}

// milc is read-heavy with high MPKI; omnetpp mixes a large write share —
// together they exercise the read path, drains, and backgrounded writes.
std::vector<trace::Trace> workloads() {
  return {
      trace::generate_trace(trace::spec2006_profile("milc"), 1500),
      trace::generate_trace(trace::spec2006_profile("omnetpp"), 1500),
  };
}

class EquivTest : public ::testing::TestWithParam<std::string> {
 protected:
  sys::SystemConfig config() const {
    for (const NamedConfig& nc : preset_configs()) {
      if (nc.name == GetParam()) return nc.cfg;
    }
    throw std::runtime_error("unknown preset: " + GetParam());
  }
};

const sim::LoopMode kOtherModes[] = {sim::LoopMode::kEventSkip,
                                     sim::LoopMode::kAuto};

const char* mode_name(sim::LoopMode m) {
  switch (m) {
    case sim::LoopMode::kAuto: return "auto";
    case sim::LoopMode::kCycleAccurate: return "cycle";
    case sim::LoopMode::kEventSkip: return "event";
  }
  return "?";
}

TEST_P(EquivTest, RunWorkloadBitIdentical) {
  const sys::SystemConfig cfg = config();
  for (const trace::Trace& tr : workloads()) {
    const sim::RunResult cyc =
        sim::run_workload(tr, cfg, {}, 500'000'000, sim::LoopMode::kCycleAccurate);
    for (const sim::LoopMode mode : kOtherModes) {
      const sim::RunResult other =
          sim::run_workload(tr, cfg, {}, 500'000'000, mode);
      EXPECT_EQ(sim::diff_results(cyc, other), "")
          << tr.name << " vs " << mode_name(mode);
    }
  }
}

TEST_P(EquivTest, RunMemoryOnlyBitIdentical) {
  const sys::SystemConfig cfg = config();
  for (const trace::Trace& tr : workloads()) {
    const sim::RunResult cyc =
        sim::run_memory_only(tr, cfg, 500'000'000, sim::LoopMode::kCycleAccurate);
    for (const sim::LoopMode mode : kOtherModes) {
      const sim::RunResult other =
          sim::run_memory_only(tr, cfg, 500'000'000, mode);
      EXPECT_EQ(sim::diff_results(cyc, other), "")
          << tr.name << " vs " << mode_name(mode);
    }
  }
}

TEST_P(EquivTest, RunMultiprogrammedBitIdentical) {
  const sys::SystemConfig cfg = config();
  const std::vector<trace::Trace> traces = workloads();
  const sim::MultiProgramResult cyc = sim::run_multiprogrammed(
      traces, cfg, {}, 500'000'000, sim::LoopMode::kCycleAccurate);
  for (const sim::LoopMode mode : kOtherModes) {
    const sim::MultiProgramResult other = sim::run_multiprogrammed(
        traces, cfg, {}, 500'000'000, mode);
    EXPECT_EQ(sim::diff_results(cyc, other), "") << mode_name(mode);
  }
}

// Compute-bound coverage: low-MPKI profiles spend tens of core cycles
// between LLC misses — the regime the analytic core fast-forward
// (RobCpu::next_action / advance_to, DESIGN.md §10) skips instead of
// ticking. These presets re-run the equivalence promise where fast-forward
// dominates: single-core, a homogeneous all-compute-bound mix, and a mixed
// intensity mix where lazily-parked cores coexist with memory-bound ones.
std::vector<trace::Trace> compute_bound_workloads() {
  return {
      trace::generate_trace(trace::spec2006_profile("wrf"), 1200),
      trace::generate_trace(trace::spec2006_profile("sphinx3"), 1200),
  };
}

class ComputeBoundEquivTest : public EquivTest {};

TEST_P(ComputeBoundEquivTest, RunWorkloadBitIdentical) {
  const sys::SystemConfig cfg = config();
  for (const trace::Trace& tr : compute_bound_workloads()) {
    const sim::RunResult cyc = sim::run_workload(
        tr, cfg, {}, 500'000'000, sim::LoopMode::kCycleAccurate);
    for (const sim::LoopMode mode : kOtherModes) {
      const sim::RunResult other =
          sim::run_workload(tr, cfg, {}, 500'000'000, mode);
      EXPECT_EQ(sim::diff_results(cyc, other), "")
          << tr.name << " vs " << mode_name(mode);
    }
  }
}

TEST_P(ComputeBoundEquivTest, RunMultiprogrammedBitIdentical) {
  const sys::SystemConfig cfg = config();
  const trace::Trace wrf =
      trace::generate_trace(trace::spec2006_profile("wrf"), 1200);
  const std::vector<std::vector<trace::Trace>> mixes = {
      // Homogeneous: every core compute-bound, the wake schedule is all
      // fast-forward jumps.
      {wrf, wrf, wrf, wrf},
      // Mixed intensity: memory-bound cores keep the channels busy while
      // compute-bound cores park with far-future due cycles.
      {wrf, trace::generate_trace(trace::spec2006_profile("milc"), 1200),
       trace::generate_trace(trace::spec2006_profile("sphinx3"), 1200),
       trace::generate_trace(trace::spec2006_profile("omnetpp"), 1200)},
  };
  for (const auto& mix : mixes) {
    const sim::MultiProgramResult cyc = sim::run_multiprogrammed(
        mix, cfg, {}, 500'000'000, sim::LoopMode::kCycleAccurate);
    for (const sim::LoopMode mode : kOtherModes) {
      const sim::MultiProgramResult other =
          sim::run_multiprogrammed(mix, cfg, {}, 500'000'000, mode);
      EXPECT_EQ(sim::diff_results(cyc, other), "")
          << mix.size() << "-core mix starting " << mix[0].name << " vs "
          << mode_name(mode);
    }
  }
}

std::vector<std::string> preset_names() {
  std::vector<std::string> names;
  for (const NamedConfig& nc : preset_configs()) names.push_back(nc.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Presets, EquivTest,
                         ::testing::ValuesIn(preset_names()),
                         [](const auto& info) { return info.param; });

// Fast-forward-heavy presets only: single-channel and windowed
// multi-channel, for both bank kinds.
INSTANTIATE_TEST_SUITE_P(
    Presets, ComputeBoundEquivTest,
    ::testing::Values("fgnvm_4x4", "dram_salp8", "fgnvm_4x4_ch4",
                      "dram_salp4_ch4"),
    [](const auto& info) { return info.param; });

}  // namespace
