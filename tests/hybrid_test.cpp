// Hybrid DRAM+NVM system tests (DESIGN.md §13).
//
// 1. HybridRbla        — unit tests of the RBLA policy: per-row miss
//                        counting (hits don't count), threshold-triggered
//                        promotion, LRU demotion when the partition is
//                        full, epoch decay, migration traffic accounting,
//                        and obs-channel reconciliation.
// 2. HybridPresets     — hybrid config keys round-trip through
//                        common::Config parse/serialize; invalid values are
//                        rejected; the hybrid_config preset is well-formed.
// 3. HybridEquiv       — the migration engine stays bit-identical across
//                        all three LoopModes (the §9/§12 contract
//                        extended to injected migration traffic).
// 4. HybridFuzz        — randomized workloads x randomized hybrid shapes
//                        through both loops, checking equivalence and the
//                        migration-traffic conservation invariants.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.hpp"
#include "sim/runner.hpp"
#include "sys/hybrid.hpp"
#include "sys/presets.hpp"
#include "trace/generator.hpp"

namespace fgnvm {
namespace {

// ---------------------------------------------------------------- helpers

/// Reference-geometry hybrid with a tiny DRAM partition and an aggressive
/// threshold, so short tests trigger real migrations.
sys::HybridSystemConfig small_hybrid(std::uint64_t threshold = 2,
                                     std::uint64_t dram_banks = 2,
                                     std::uint64_t dram_rows = 2) {
  sys::HybridSystemConfig hc = sys::hybrid_config(4, 4, dram_banks, dram_rows);
  hc.hybrid.migration_threshold = threshold;
  hc.hybrid.migration_epoch = 1'000'000;  // effectively no decay
  return hc;
}

Addr row_addr(const sys::HybridMemorySystem& mem, std::uint64_t row,
              std::uint64_t col = 0) {
  return mem.decoder().encode(0, 0, 0, row, col);
}

/// Ticks cycle by cycle (draining each cycle) until the system is idle —
/// in particular until any in-flight migration has fully completed.
void settle(sys::HybridMemorySystem& mem, Cycle& t, Cycle limit = 500'000) {
  std::vector<mem::MemRequest> done;
  while (!mem.idle()) {
    mem.drain_completed(done);
    for (const mem::MemRequest& r : done) {
      // Migration traffic must never leak to the caller.
      EXPECT_NE(r.cpu_tag, sys::HybridMemorySystem::kMigrationTag);
    }
    mem.tick(t);
    ++t;
    ASSERT_LT(t, limit) << "hybrid system failed to settle";
  }
  mem.drain_completed(done);
}

void submit_and_settle(sys::HybridMemorySystem& mem, Addr addr, OpType op,
                       Cycle& t) {
  ASSERT_TRUE(mem.can_accept(addr, op));
  mem.submit(addr, op, t);
  settle(mem, t);
}

// ---------------------------------------------------------------- RBLA

TEST(HybridRbla, MissesCountRowHitsDoNot) {
  const sys::HybridSystemConfig cfg = small_hybrid(/*threshold=*/100);
  sys::HybridMemorySystem mem(cfg);
  Cycle t = 0;
  const Addr a = row_addr(mem, 10);
  const Addr b = row_addr(mem, 20);  // same bank, same SAG as row 10

  submit_and_settle(mem, a, OpType::kRead, t);
  EXPECT_EQ(mem.rbl_miss_count(a), 1u);  // cold access: miss
  submit_and_settle(mem, a, OpType::kRead, t);
  EXPECT_EQ(mem.rbl_miss_count(a), 1u);  // row still open: hit, no count
  submit_and_settle(mem, b, OpType::kRead, t);
  EXPECT_EQ(mem.rbl_miss_count(b), 1u);
  submit_and_settle(mem, a, OpType::kRead, t);
  EXPECT_EQ(mem.rbl_miss_count(a), 2u);  // b evicted a's row buffer: miss
  EXPECT_EQ(mem.migrations_completed(), 0u);  // threshold never reached
  EXPECT_EQ(mem.nvm_accesses(), 4u);
  EXPECT_EQ(mem.dram_hits(), 0u);
}

TEST(HybridRbla, ThresholdTriggersPromotion) {
  const sys::HybridSystemConfig cfg = small_hybrid(/*threshold=*/2);
  sys::HybridMemorySystem mem(cfg);
  Cycle t = 0;
  const Addr a = row_addr(mem, 10);
  const Addr b = row_addr(mem, 20);
  const std::uint64_t lines = cfg.nvm.geometry.lines_per_row();

  submit_and_settle(mem, a, OpType::kRead, t);  // miss 1 for a
  submit_and_settle(mem, b, OpType::kRead, t);  // miss 1 for b
  submit_and_settle(mem, a, OpType::kRead, t);  // miss 2 for a -> promote
  EXPECT_EQ(mem.migration_triggers(), 1u);
  EXPECT_EQ(mem.migrations_completed(), 1u);
  EXPECT_EQ(mem.demotions_completed(), 0u);
  EXPECT_FALSE(mem.migration_in_flight());
  EXPECT_TRUE(mem.dram_resident(a));
  EXPECT_FALSE(mem.dram_resident(b));
  EXPECT_EQ(mem.rbl_miss_count(a), 0u);  // counter reset on promotion
  EXPECT_EQ(mem.dram_resident_rows(), 1u);
  // Promotion = lines_per_row reads out of NVM + as many writes into DRAM.
  EXPECT_EQ(mem.migration_reads(), lines);
  EXPECT_EQ(mem.migration_writes(), lines);

  // Subsequent accesses to the promoted row are DRAM hits.
  submit_and_settle(mem, a, OpType::kRead, t);
  submit_and_settle(mem, a, OpType::kWrite, t);
  EXPECT_EQ(mem.dram_hits(), 2u);
  const double expect_rate = 2.0 / (2.0 + 3.0);
  EXPECT_DOUBLE_EQ(mem.dram_hit_rate(), expect_rate);
}

TEST(HybridRbla, LruDemotionWhenPartitionFull) {
  // One DRAM slot, threshold 1: every first-touch miss migrates.
  const sys::HybridSystemConfig cfg =
      small_hybrid(/*threshold=*/1, /*dram_banks=*/1, /*dram_rows=*/1);
  sys::HybridMemorySystem mem(cfg);
  Cycle t = 0;
  const Addr a = row_addr(mem, 10);
  const Addr b = row_addr(mem, 20);
  const std::uint64_t lines = cfg.nvm.geometry.lines_per_row();

  submit_and_settle(mem, a, OpType::kRead, t);
  EXPECT_TRUE(mem.dram_resident(a));
  EXPECT_EQ(mem.demotions_completed(), 0u);

  submit_and_settle(mem, b, OpType::kRead, t);
  EXPECT_TRUE(mem.dram_resident(b));
  EXPECT_FALSE(mem.dram_resident(a));  // a was demoted to make room
  EXPECT_EQ(mem.migrations_completed(), 2u);
  EXPECT_EQ(mem.demotions_completed(), 1u);
  EXPECT_EQ(mem.dram_resident_rows(), 1u);
  // 2 promotions + 1 demotion, each moving lines_per_row lines both ways.
  EXPECT_EQ(mem.migration_reads(), 3 * lines);
  EXPECT_EQ(mem.migration_writes(), 3 * lines);

  // A third hot row migrates in over the LRU victim (b). Row 30 has never
  // been touched, so its first access is a row miss no matter which row the
  // background write drain left open.
  const Addr c = row_addr(mem, 30);
  submit_and_settle(mem, c, OpType::kRead, t);
  EXPECT_TRUE(mem.dram_resident(c));
  EXPECT_FALSE(mem.dram_resident(b));
  EXPECT_EQ(mem.demotions_completed(), 2u);
  EXPECT_EQ(mem.dram_resident_rows(), 1u);
}

TEST(HybridRbla, EpochDecayAgesCounters) {
  sys::HybridSystemConfig cfg = small_hybrid(/*threshold=*/1000);
  cfg.hybrid.migration_epoch = 1'000;
  cfg.hybrid.decay_shift = 1;
  sys::HybridSystemConfig zcfg = cfg;
  zcfg.hybrid.decay_shift = 15;  // one elapsed epoch >= 16-bit wipe... (15*2)
  const Addr probe_row = 10;

  {
    sys::HybridMemorySystem mem(cfg);
    Cycle t = 0;
    const Addr a = row_addr(mem, probe_row);
    const Addr b = row_addr(mem, 20);
    for (int i = 0; i < 4; ++i) {
      submit_and_settle(mem, a, OpType::kRead, t);
      submit_and_settle(mem, b, OpType::kRead, t);  // evicts a's row buffer
    }
    ASSERT_EQ(mem.rbl_miss_count(a), 4u);
    t += 1'000;  // one full epoch with no accesses
    submit_and_settle(mem, b, OpType::kRead, t);  // decay applied lazily here
    EXPECT_LE(mem.rbl_miss_count(a), 2u);
  }
  {
    sys::HybridMemorySystem mem(zcfg);
    Cycle t = 0;
    const Addr a = row_addr(mem, probe_row);
    const Addr b = row_addr(mem, 20);
    for (int i = 0; i < 4; ++i) {
      submit_and_settle(mem, a, OpType::kRead, t);
      submit_and_settle(mem, b, OpType::kRead, t);
    }
    ASSERT_GE(mem.rbl_miss_count(a), 4u);
    t += 2'000;  // two epochs x shift 15 >= 16: zero-fill path
    submit_and_settle(mem, b, OpType::kRead, t);
    EXPECT_EQ(mem.rbl_miss_count(a), 0u);
  }
}

TEST(HybridRbla, ControllerStatsCarryHybridCounters) {
  const sys::HybridSystemConfig cfg = small_hybrid(/*threshold=*/2);
  sys::HybridMemorySystem mem(cfg);
  Cycle t = 0;
  const Addr a = row_addr(mem, 10);
  const Addr b = row_addr(mem, 20);
  submit_and_settle(mem, a, OpType::kRead, t);
  submit_and_settle(mem, b, OpType::kRead, t);
  submit_and_settle(mem, a, OpType::kRead, t);
  const StatSet s = mem.controller_stats();
  EXPECT_EQ(s.counter("hybrid_migrations"), mem.migrations_completed());
  EXPECT_EQ(s.counter("hybrid_demotions"), mem.demotions_completed());
  EXPECT_EQ(s.counter("hybrid_triggers"), mem.migration_triggers());
  EXPECT_EQ(s.counter("hybrid_dram_hits"), mem.dram_hits());
  EXPECT_EQ(s.counter("hybrid_nvm_accesses"), mem.nvm_accesses());
  EXPECT_EQ(s.counter("hybrid_mig_reads"), mem.migration_reads());
  EXPECT_EQ(s.counter("hybrid_mig_writes"), mem.migration_writes());
  EXPECT_GT(mem.migrations_completed(), 0u);
}

TEST(HybridRbla, ObsChannelsReconcileWithCounters) {
  sys::HybridSystemConfig cfg = small_hybrid(/*threshold=*/2);
  cfg.nvm.obs.enabled = true;
  cfg.nvm.obs.epoch = 500;
  trace::WorkloadProfile p;
  p.name = "hot";
  p.row_locality = 0.1;
  p.random_fraction = 0.8;
  p.footprint_bytes = 256ULL << 10;
  const trace::Trace tr = trace::generate_trace(p, 1200);

  const sim::RunResult r = sim::run_memory_only(tr, cfg);
  ASSERT_NE(r.obs, nullptr);
  const auto& samples = r.obs->series().samples();
  ASSERT_FALSE(samples.empty());
  // finalize_obs appends a trailing sample, so the last sample's hybrid
  // channels equal the end-of-run counters exactly.
  EXPECT_EQ(samples.back().migrations, r.controller.counter("hybrid_migrations"));
  const double hits =
      static_cast<double>(r.controller.counter("hybrid_dram_hits"));
  const double total =
      hits + static_cast<double>(r.controller.counter("hybrid_nvm_accesses"));
  EXPECT_DOUBLE_EQ(samples.back().dram_hit_rate, total == 0 ? 0.0 : hits / total);
  EXPECT_GT(r.controller.counter("hybrid_migrations"), 0u);
}

// ---------------------------------------------------------------- presets

TEST(HybridPresets, ConfigKeysRoundTripThroughText) {
  sys::HybridConfig hc;
  hc.dram_banks = 4;
  hc.dram_rows = 128;
  hc.dram_subarrays = 2;
  hc.migration_threshold = 7;
  hc.migration_epoch = 12'345;
  hc.decay_shift = 3;

  Config cfg;
  hc.to_config(cfg);
  const Config parsed = Config::from_string(cfg.to_string());
  const sys::HybridConfig back = sys::HybridConfig::from_config(parsed);
  EXPECT_EQ(back.dram_banks, hc.dram_banks);
  EXPECT_EQ(back.dram_rows, hc.dram_rows);
  EXPECT_EQ(back.dram_subarrays, hc.dram_subarrays);
  EXPECT_EQ(back.migration_threshold, hc.migration_threshold);
  EXPECT_EQ(back.migration_epoch, hc.migration_epoch);
  EXPECT_EQ(back.decay_shift, hc.decay_shift);
}

TEST(HybridPresets, SystemConfigFromConfig) {
  const Config cfg = Config::from_string(
      "name hybrid_test\n"
      "bank_kind fgnvm\n"
      "sags 4\ncds 4\n"
      "hybrid_dram_banks 4\nhybrid_dram_rows 32\nhybrid_threshold 3\n"
      "hybrid_epoch 10000\nhybrid_decay_shift 2\n");
  const sys::HybridSystemConfig hc = sys::HybridSystemConfig::from_config(cfg);
  EXPECT_EQ(hc.nvm.name, "hybrid_test");
  EXPECT_EQ(hc.nvm.geometry.num_sags, 4u);
  EXPECT_EQ(hc.hybrid.dram_banks, 4u);
  EXPECT_EQ(hc.hybrid.dram_rows, 32u);
  EXPECT_EQ(hc.hybrid.migration_threshold, 3u);
  EXPECT_EQ(hc.hybrid.migration_epoch, 10'000u);
  EXPECT_EQ(hc.hybrid.decay_shift, 2u);
  // And the resulting system is constructible: NVM channels + 1 DRAM.
  sys::HybridMemorySystem mem(hc);
  EXPECT_EQ(mem.channels(), hc.nvm.geometry.channels + 1);
}

TEST(HybridPresets, RejectsDramBackend) {
  const Config cfg = Config::from_string("bank_kind dram\n");
  EXPECT_THROW(sys::HybridSystemConfig::from_config(cfg), std::runtime_error);
}

TEST(HybridPresets, RejectsInvalidValues) {
  const auto reject = [](const std::string& line) {
    const Config cfg = Config::from_string(line + "\n");
    EXPECT_THROW(sys::HybridConfig::from_config(cfg), std::runtime_error)
        << line;
  };
  reject("hybrid_threshold 0");
  reject("hybrid_threshold 65536");
  reject("hybrid_epoch 0");
  reject("hybrid_decay_shift 16");
  reject("hybrid_dram_banks 3");
  reject("hybrid_dram_banks 0");
  reject("hybrid_dram_rows 12");
  reject("hybrid_dram_subarrays 128");  // > default dram_rows (64)
}

TEST(HybridPresets, PresetIsWellFormed) {
  const sys::HybridSystemConfig hc = sys::hybrid_config(4, 4);
  EXPECT_EQ(hc.nvm.name, "hybrid_4x4");
  EXPECT_EQ(hc.nvm.bank_kind, sys::BankKind::kFgNvm);
  EXPECT_NO_THROW(hc.hybrid.validate());
  EXPECT_EQ(hc.hybrid.dram_slots(), 8u * 64u);
  sys::HybridMemorySystem mem(hc);
  EXPECT_EQ(mem.channels(), 2u);  // 1 NVM + the DRAM partition
}

// ---------------------------------------------------------------- equiv

/// Hot-set workload: small footprint, low row locality, high random
/// fraction — most accesses miss the row buffer and per-row reuse is high,
/// so the RBLA threshold fires within a short trace.
trace::WorkloadProfile hot_profile(std::uint64_t seed = 7) {
  trace::WorkloadProfile p;
  p.name = "hotset";
  p.mpki = 30.0;
  p.write_fraction = 0.3;
  p.row_locality = 0.1;
  p.random_fraction = 0.8;
  p.footprint_bytes = 256ULL << 10;
  p.num_streams = 4;
  p.seed = seed;
  return p;
}

struct NamedHybrid {
  std::string name;
  sys::HybridSystemConfig cfg;
};

std::vector<NamedHybrid> hybrid_configs() {
  NamedHybrid base{"hybrid", small_hybrid(/*threshold=*/2,
                                          /*dram_banks=*/2, /*dram_rows=*/2)};
  // Decay active within the test window, exercising maybe_decay in-loop.
  base.cfg.hybrid.migration_epoch = 20'000;
  base.cfg.hybrid.decay_shift = 1;

  NamedHybrid ch2 = base;
  ch2.name = "hybrid_ch2";
  ch2.cfg.nvm.geometry.channels = 2;
  ch2.cfg.nvm.geometry.validate();
  return {base, ch2};
}

class HybridEquiv : public ::testing::TestWithParam<std::string> {
 protected:
  sys::HybridSystemConfig config() const {
    for (const NamedHybrid& nh : hybrid_configs()) {
      if (nh.name == GetParam()) return nh.cfg;
    }
    throw std::runtime_error("unknown hybrid config: " + GetParam());
  }
};

const sim::LoopMode kOtherModes[] = {sim::LoopMode::kEventSkip,
                                     sim::LoopMode::kAuto};

TEST_P(HybridEquiv, RunWorkloadBitIdentical) {
  const sys::HybridSystemConfig cfg = config();
  const trace::Trace tr = trace::generate_trace(hot_profile(), 1500);
  const sim::RunResult cyc = sim::run_workload(tr, cfg, {}, 500'000'000,
                                               sim::LoopMode::kCycleAccurate);
  // Non-vacuous: the workload must actually migrate rows.
  EXPECT_GT(cyc.controller.counter("hybrid_migrations"), 0u);
  for (const sim::LoopMode mode : kOtherModes) {
    const sim::RunResult other = sim::run_workload(tr, cfg, {}, 500'000'000, mode);
    EXPECT_EQ(sim::diff_results(cyc, other), "");
  }
}

TEST_P(HybridEquiv, RunMemoryOnlyBitIdentical) {
  const sys::HybridSystemConfig cfg = config();
  const trace::Trace tr = trace::generate_trace(hot_profile(), 1500);
  const sim::RunResult cyc = sim::run_memory_only(tr, cfg, 500'000'000,
                                                  sim::LoopMode::kCycleAccurate);
  EXPECT_GT(cyc.controller.counter("hybrid_migrations"), 0u);
  for (const sim::LoopMode mode : kOtherModes) {
    const sim::RunResult other = sim::run_memory_only(tr, cfg, 500'000'000, mode);
    EXPECT_EQ(sim::diff_results(cyc, other), "");
  }
}

TEST_P(HybridEquiv, RunMultiprogrammedBitIdentical) {
  const sys::HybridSystemConfig cfg = config();
  const std::vector<trace::Trace> traces = {
      trace::generate_trace(hot_profile(7), 800),
      trace::generate_trace(hot_profile(13), 800),
  };
  const sim::MultiProgramResult cyc = sim::run_multiprogrammed(
      traces, cfg, {}, 500'000'000, sim::LoopMode::kCycleAccurate);
  EXPECT_GT(cyc.controller.counter("hybrid_migrations"), 0u);
  for (const sim::LoopMode mode : kOtherModes) {
    const sim::MultiProgramResult other =
        sim::run_multiprogrammed(traces, cfg, {}, 500'000'000, mode);
    EXPECT_EQ(sim::diff_results(cyc, other), "");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Presets, HybridEquiv,
    ::testing::Values("hybrid", "hybrid_ch2"),
    [](const auto& info) { return info.param; });

// ---------------------------------------------------------------- fuzz

TEST(HybridFuzz, RandomizedMigrationEquivalenceAndConservation) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 7919);
    trace::WorkloadProfile p;
    p.name = "hfuzz" + std::to_string(seed);
    p.mpki = 20.0 + static_cast<double>(rng.next_below(30));
    p.write_fraction = 0.1 + 0.1 * static_cast<double>(rng.next_below(5));
    p.row_locality = 0.1 * static_cast<double>(rng.next_below(8));
    p.random_fraction = 0.1 + 0.1 * static_cast<double>(rng.next_below(8));
    p.footprint_bytes = (128ULL << 10) << rng.next_below(3);
    p.num_streams = 1 + rng.next_below(4);
    p.seed = seed * 977;
    const trace::Trace tr = trace::generate_trace(p, 1000);

    sys::HybridSystemConfig cfg = sys::hybrid_config(
        4, 4, /*dram_banks=*/1ULL << rng.next_below(3),
        /*dram_rows=*/1ULL << rng.next_below(4));
    cfg.hybrid.migration_threshold = 1 + rng.next_below(4);
    cfg.hybrid.migration_epoch = 500 + 500 * rng.next_below(10);
    cfg.hybrid.decay_shift = rng.next_below(4);

    const sim::RunResult cyc = sim::run_memory_only(
        tr, cfg, 500'000'000, sim::LoopMode::kCycleAccurate);
    const sim::RunResult skip = sim::run_memory_only(
        tr, cfg, 500'000'000, sim::LoopMode::kEventSkip);
    EXPECT_EQ(sim::diff_results(cyc, skip), "") << p.name;

    // Conservation: demand counters exclude migration traffic...
    EXPECT_EQ(cyc.reads + cyc.writes, tr.records.size()) << p.name;
    // ...every demand access is either a DRAM hit or an NVM access...
    EXPECT_EQ(cyc.controller.counter("hybrid_dram_hits") +
                  cyc.controller.counter("hybrid_nvm_accesses"),
              tr.records.size())
        << p.name;
    // ...and a settled run moved whole rows: reads == writes, one
    // lines_per_row batch per completed promotion or demotion.
    const std::uint64_t lines = cfg.nvm.geometry.lines_per_row();
    const std::uint64_t moves = cyc.controller.counter("hybrid_migrations") +
                                cyc.controller.counter("hybrid_demotions");
    EXPECT_EQ(cyc.controller.counter("hybrid_mig_reads"), moves * lines)
        << p.name;
    EXPECT_EQ(cyc.controller.counter("hybrid_mig_writes"), moves * lines)
        << p.name;
    EXPECT_LE(cyc.controller.counter("hybrid_demotions"),
              cyc.controller.counter("hybrid_migrations"))
        << p.name;
    EXPECT_EQ(cyc.controller.counter("hybrid_migrations"),
              cyc.controller.counter("hybrid_triggers"))
        << p.name;
  }
}

TEST(HybridFuzz, RandomizedWorkloadRuns) {
  // Full-system runs (ROB CPU in front) over randomized shapes; kAuto picks
  // up the FGNVM_PARANOID differential when the environment enables it.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed * 104729);
    trace::WorkloadProfile p = hot_profile(seed * 31);
    p.name = "hwfuzz" + std::to_string(seed);
    p.write_fraction = 0.1 + 0.1 * static_cast<double>(rng.next_below(4));
    const trace::Trace tr = trace::generate_trace(p, 800);

    sys::HybridSystemConfig cfg =
        small_hybrid(1 + rng.next_below(3), 2, 1ULL << rng.next_below(3));
    cfg.hybrid.migration_epoch = 1'000 + 1'000 * rng.next_below(5);
    cfg.hybrid.decay_shift = rng.next_below(3);

    const sim::RunResult r = sim::run_workload(tr, cfg);
    EXPECT_GT(r.instructions, 0u) << p.name;
    EXPECT_EQ(r.reads + r.writes, tr.records.size()) << p.name;
  }
}

}  // namespace
}  // namespace fgnvm
