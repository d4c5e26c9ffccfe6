// Randomized differential tests of the indexed scheduler (tier 1).
//
// The controller's indexed issue selection and incremental next_event must
// be bit-identical to the pre-index full-queue scans, which are preserved as
// a reference oracle. With cross-checking enabled (set_cross_check), every
// issue decision, sticky bus-flag set, SAG/CD conflict test, closed-page
// row-occupancy test, and next_event value is recomputed both ways and the
// controller throws on the first divergence — so a randomized run that
// completes at all *is* the differential verdict. These tests drive random
// mixed read/write traces with row locality through every scheduling policy
// and several SAG x CD geometries, querying next_event each cycle, and
// additionally check that final stats are identical with the oracle on and
// off (the cross-check itself must not perturb the simulation).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "cpu/rob_cpu.hpp"
#include "dram/dram_bank.hpp"
#include "mem/geometry.hpp"
#include "mem/timing.hpp"
#include "nvm/fgnvm_bank.hpp"
#include "sched/controller.hpp"
#include "sys/memory_system.hpp"
#include "sys/presets.hpp"
#include "trace/generator.hpp"
#include "trace/spec_profiles.hpp"

namespace fgnvm::sched {
namespace {

struct Scenario {
  SchedulerPolicy policy;
  PagePolicy page;
  std::uint64_t sags;
  std::uint64_t cds;
  std::uint64_t seed;
};

std::string scenario_name(const Scenario& s) {
  return std::string(to_string(s.policy)) + "_" + to_string(s.page) + "_" +
         std::to_string(s.sags) + "x" + std::to_string(s.cds);
}

class IndexedScheduler {
 public:
  IndexedScheduler(const Scenario& s, bool cross_check) {
    geo_.banks_per_rank = 4;
    geo_.rows_per_bank = 1024;
    geo_.row_bytes = 1024;
    geo_.line_bytes = 64;
    geo_.num_sags = s.sags;
    geo_.num_cds = s.cds;
    ControllerConfig cfg;
    cfg.policy = s.policy;
    cfg.page_policy = s.page;
    cfg.read_queue_cap = 24;
    cfg.write_queue_cap = 32;
    cfg.wq_high = 16;
    cfg.wq_low = 4;
    // Small thresholds so backgrounded writes and drains actually engage
    // within a short random run.
    cfg.bg_write_min = 2;
    cfg.bg_write_inflight_max = 3;
    decoder_ = std::make_unique<mem::AddressDecoder>(geo_);
    ctrl_ = std::make_unique<Controller>(
        geo_, timing_, cfg, [&]() -> std::unique_ptr<nvm::Bank> {
          return std::make_unique<nvm::FgNvmBank>(geo_, timing_,
                                                  nvm::AccessModes::all_on());
        });
    ctrl_->set_cross_check(cross_check);
  }

  /// Runs `ops` random requests to completion, querying next_event every
  /// cycle so the incremental candidate cache is exercised against the
  /// oracle at every step, and returns the final stats rendering.
  std::string run(std::uint64_t ops, std::uint64_t seed) {
    Rng rng(seed);
    Cycle now = 0;
    std::uint64_t submitted = 0;
    std::uint64_t hot_row = 0, hot_bank = 0;
    while (submitted < ops || !ctrl_->idle()) {
      // Bursty arrivals with strong row locality: ~70% land on the current
      // hot (bank, row), the rest scatter — this populates deep per-group
      // and per-row lists and triggers demand aggregation.
      while (submitted < ops && rng.next_bool(0.6)) {
        if (rng.next_bool(0.05)) {
          hot_row = rng.next_below(geo_.rows_per_bank);
          hot_bank = rng.next_below(geo_.banks_per_rank);
        }
        const bool hot = rng.next_bool(0.7);
        const std::uint64_t bank =
            hot ? hot_bank : rng.next_below(geo_.banks_per_rank);
        const std::uint64_t row =
            hot ? hot_row : rng.next_below(geo_.rows_per_bank);
        const std::uint64_t col = rng.next_below(geo_.lines_per_row());
        const OpType op = rng.next_bool(0.35) ? OpType::kWrite : OpType::kRead;
        if (!ctrl_->can_accept(op)) break;
        mem::MemRequest r;
        r.id = submitted;
        r.op = op;
        r.addr = decoder_->decode(decoder_->encode(0, 0, bank, row, col));
        ctrl_->enqueue(r, now);
        ++submitted;
      }
      ctrl_->tick(now);
      (void)ctrl_->take_completed();
      // Exercise the cached next_event (and its oracle comparison) every
      // cycle; occasionally skip ahead to it like the event-driven loop.
      const Cycle nxt = ctrl_->next_event(now);
      if (ctrl_->idle() && submitted < ops && nxt == kNeverCycle) {
        ++now;  // idle gap between bursts
      } else if (rng.next_bool(0.3) && nxt != kNeverCycle) {
        now = nxt;
      } else {
        ++now;
      }
      if (now >= 10'000'000u) {
        ADD_FAILURE() << "run did not converge";
        break;
      }
    }
    return ctrl_->stats().to_string();
  }

 private:
  mem::MemGeometry geo_;
  mem::TimingParams timing_;
  std::unique_ptr<mem::AddressDecoder> decoder_;
  std::unique_ptr<Controller> ctrl_;
};

class SchedIndexTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(SchedIndexTest, IndexedMatchesReferenceOracle) {
  // The controller throws std::runtime_error on the first divergence
  // between the indexed and reference implementations.
  IndexedScheduler checked(GetParam(), /*cross_check=*/true);
  const std::string with_oracle = checked.run(600, GetParam().seed);

  // The oracle must be purely passive: the same trace without it yields
  // bit-identical stats (exact string equality, shape included).
  IndexedScheduler plain(GetParam(), /*cross_check=*/false);
  const std::string without_oracle = plain.run(600, GetParam().seed);
  EXPECT_EQ(with_oracle, without_oracle);
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  std::uint64_t seed = 1;
  for (const SchedulerPolicy pol :
       {SchedulerPolicy::kFcfs, SchedulerPolicy::kFrfcfs,
        SchedulerPolicy::kFrfcfsAugmented}) {
    for (const PagePolicy page : {PagePolicy::kOpen, PagePolicy::kClosed}) {
      for (const std::uint64_t dim : {2ull, 4ull, 8ull}) {
        out.push_back({pol, page, dim, dim, seed++});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Differential, SchedIndexTest,
                         ::testing::ValuesIn(scenarios()),
                         [](const auto& info) {
                           return scenario_name(info.param);
                         });

// ---------------------------------------------------------------------------
// MemorySystem-level differential: the lazy per-channel due caches (and the
// windowed advance_channels_to on top of them) must yield the same
// simulation as eager all-channel ticking over a random multi-channel
// stream. Arrivals are pre-scheduled so every mode is offered
// the identical stream no matter how it advances time; a request is then
// submitted at the first visited cycle at/after its arrival where the
// channel accepts — which is the same cycle in every mode, because
// acceptance only changes at actionable cycles and next_event never
// overshoots one.

struct Arrival {
  Cycle at;
  Addr addr;
  OpType op;
};

std::vector<Arrival> plan_arrivals(const sys::MemorySystem& mem,
                                   std::uint64_t ops, std::uint64_t seed) {
  const mem::MemGeometry& geo = mem.config().geometry;
  Rng rng(seed);
  std::vector<Arrival> plan;
  plan.reserve(ops);
  Cycle at = 0;
  std::uint64_t hot_row = 0;
  for (std::uint64_t i = 0; i < ops; ++i) {
    at += rng.next_below(6);  // bursty: zero gaps allowed
    if (rng.next_bool(0.05)) hot_row = rng.next_below(geo.rows_per_bank);
    const std::uint64_t row =
        rng.next_bool(0.7) ? hot_row : rng.next_below(geo.rows_per_bank);
    const Addr addr = mem.decoder().encode(
        rng.next_below(geo.channels), 0, rng.next_below(geo.banks_per_rank),
        row, rng.next_below(geo.lines_per_row()));
    const OpType op = rng.next_bool(0.35) ? OpType::kWrite : OpType::kRead;
    plan.push_back({at, addr, op});
  }
  return plan;
}

/// Drives `plan` to completion and renders the final merged stats plus the
/// completed-read count. `windowed` adds advance_channels_to windows (only
/// meaningful under lazy scheduling) once arrivals are exhausted, bounded by
/// completion_bound so no drain is skipped.
std::string run_system(const sys::SystemConfig& cfg, bool eager, bool windowed,
                       const std::vector<Arrival>& plan) {
  sys::MemorySystem mem(cfg);
  if (eager) mem.set_eager_ticking(true);
  std::size_t next = 0;
  Cycle now = 0;
  std::uint64_t completed = 0;
  while (next < plan.size() || !mem.idle()) {
    while (next < plan.size() && plan[next].at <= now &&
           mem.can_accept(plan[next].addr, plan[next].op)) {
      mem.submit(plan[next].addr, plan[next].op, now);
      ++next;
    }
    mem.tick(now);
    completed += mem.take_completed().size();
    const Cycle nxt = mem.next_event(now);
    const bool backpressured = next < plan.size() && plan[next].at <= now;
    Cycle step = nxt;
    if (next < plan.size() && !backpressured) {
      step = std::min(nxt, std::max<Cycle>(plan[next].at, now + 1));
    }
    if (step == kNeverCycle) {
      if (next >= plan.size()) break;  // drained and no arrivals left
      now = std::max(plan[next].at, now + 1);  // idle gap to the next burst
    } else if (windowed && mem.lazy_scheduling() && next >= plan.size()) {
      const Cycle bound = mem.completion_bound(now);
      if (bound != kNeverCycle && bound > step) {
        mem.advance_channels_to(bound);
        now = bound;
      } else {
        now = step;
      }
    } else {
      now = step;
    }
    if (now >= 50'000'000u) {
      ADD_FAILURE() << "run did not converge";
      break;
    }
  }
  return mem.controller_stats().to_string() + "\ncompleted_reads=" +
         std::to_string(completed) + "\nsubmitted=" +
         std::to_string(mem.submitted_reads() + mem.submitted_writes());
}

TEST(MemorySystemDifferential, LazyAndWindowedMatchEagerAcrossChannels) {
  for (sys::SystemConfig cfg :
       {sys::fgnvm_config(4, 4), sys::dram_config(4)}) {
    cfg.geometry.channels = 4;
    cfg.geometry.validate();
    for (const std::uint64_t seed : {11ull, 12ull}) {
      const sys::MemorySystem probe(cfg);
      const std::vector<Arrival> plan = plan_arrivals(probe, 500, seed);
      const std::string eager = run_system(cfg, true, false, plan);
      EXPECT_NE(eager.find("completed_reads="), std::string::npos);
      EXPECT_EQ(eager, run_system(cfg, false, false, plan))
          << cfg.name << " lazy seed " << seed;
      EXPECT_EQ(eager, run_system(cfg, false, true, plan))
          << cfg.name << " windowed seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Phase-engine differential twin (DESIGN.md §12): a controller advanced
// along its event chain with the analytic phase engine forced ON is
// compared against an eager twin (engine OFF) that ticks every single
// cycle. The twins receive the identical arrival stream, and the full stats
// rendering plus the completed-read ids are compared at EVERY chain/phase
// boundary — so a phase that overshoots an actionable cycle (skipping an
// event the eager twin executes) or mis-replays any commit diverges at the
// very next boundary, pinpointing the phase that fired. Three policies x
// two bank technologies; DRAM's refresh bookkeeping is not pure-timing, so
// only the retire-only phase may fire there — the equivalence must hold
// regardless.

struct PhaseTwinCase {
  SchedulerPolicy policy;
  bool dram;
  std::uint64_t seed;
};

std::string phase_twin_name(const PhaseTwinCase& c) {
  return std::string(to_string(c.policy)) + (c.dram ? "_dram" : "_fgnvm");
}

class PhaseTwinTest : public ::testing::TestWithParam<PhaseTwinCase> {};

TEST_P(PhaseTwinTest, FastForwardMatchesEagerAtEveryBoundary) {
  const PhaseTwinCase& c = GetParam();
  mem::MemGeometry geo;
  geo.banks_per_rank = 4;
  geo.rows_per_bank = 1024;
  geo.row_bytes = 1024;
  geo.line_bytes = 64;
  geo.num_sags = 4;
  geo.num_cds = c.dram ? 1 : 4;  // DRAM has no CD dimension
  const mem::TimingParams timing =
      c.dram ? dram::ddr3_timing() : mem::TimingParams{};
  ControllerConfig cfg;
  cfg.policy = c.policy;
  cfg.read_queue_cap = 16;
  cfg.write_queue_cap = 24;
  cfg.wq_high = 12;
  cfg.wq_low = 3;
  cfg.bg_write_min = 2;
  cfg.bg_write_inflight_max = 3;
  const mem::AddressDecoder dec(geo);
  const BankFactory make = [&]() -> std::unique_ptr<nvm::Bank> {
    if (c.dram) return std::make_unique<dram::DramBank>(geo, timing);
    return std::make_unique<nvm::FgNvmBank>(geo, timing,
                                            nvm::AccessModes::all_on());
  };
  // The shipped statically-dispatched instantiations, driven through the
  // type-erased facade exactly as sys::MemorySystem drives them.
  std::unique_ptr<ControllerBase> fast;
  std::unique_ptr<ControllerBase> eager;
  if (c.dram) {
    fast = std::make_unique<ControllerT<dram::DramBank>>(geo, timing, cfg,
                                                         make);
    eager = std::make_unique<ControllerT<dram::DramBank>>(geo, timing, cfg,
                                                          make);
  } else {
    fast = std::make_unique<ControllerT<nvm::FgNvmBank>>(geo, timing, cfg,
                                                         make);
    eager = std::make_unique<ControllerT<nvm::FgNvmBank>>(geo, timing, cfg,
                                                          make);
  }
  fast->set_phase_engine(true);    // override the FGNVM_PHASE_ENGINE env
  eager->set_phase_engine(false);  // default so both CI matrix legs agree

  // Write-heavy, row-local bursty plan so drains, row-hit bursts and
  // idle-retire tails all occur. Arrivals are pre-scheduled so both twins
  // are offered the identical stream.
  struct Planned {
    Cycle at;
    Addr addr;
    OpType op;
  };
  Rng rng(c.seed);
  std::vector<Planned> plan;
  Cycle at = 0;
  std::uint64_t hot_row = 0, hot_bank = 0;
  for (std::uint64_t i = 0; i < 500; ++i) {
    at += rng.next_below(8);
    if (rng.next_bool(0.05)) {
      hot_row = rng.next_below(geo.rows_per_bank);
      hot_bank = rng.next_below(geo.banks_per_rank);
    }
    const bool hot = rng.next_bool(0.7);
    plan.push_back(
        {at,
         dec.encode(0, 0, hot ? hot_bank : rng.next_below(geo.banks_per_rank),
                    hot ? hot_row : rng.next_below(geo.rows_per_bank),
                    rng.next_below(geo.lines_per_row())),
         rng.next_bool(0.5) ? OpType::kWrite : OpType::kRead});
  }
  // Quiet read-only tail: long gaps let the idle drain empty the write
  // queue, leaving isolated in-flight reads — the retire-only phase's
  // precondition — so the engine provably fires under every policy (the
  // augmented policy's backgrounded writes veto the burst/drain phases for
  // most of the mixed portion above).
  for (int i = 0; i < 5; ++i) {
    at += 5000;
    plan.push_back({at,
                    dec.encode(0, 0, rng.next_below(geo.banks_per_rank),
                               rng.next_below(geo.rows_per_bank),
                               rng.next_below(geo.lines_per_row())),
                    OpType::kRead});
  }

  const auto ids_of = [](std::vector<mem::MemRequest> v) {
    std::string s;
    for (const mem::MemRequest& r : v) s += std::to_string(r.id) + ",";
    return s;
  };

  std::size_t next = 0;
  Cycle now = 0;      // fast twin's clock (chain/phase boundaries only)
  Cycle ticked = 0;   // eager twin has ticked every cycle < ticked
  std::uint64_t id = 0;
  while (next < plan.size() || !fast->idle()) {
    ASSERT_LT(now, 10'000'000u) << phase_twin_name(c);
    // Eager twin catches up: ticks EVERY cycle up to the boundary. Ticks at
    // the fast twin's skipped cycles are no-ops by the next_event contract.
    while (ticked < now) {
      eager->tick(ticked);
      ++ticked;
    }
    // Boundary comparison: every stat, and the exact completed-read ids.
    ASSERT_EQ(fast->stats().to_string(), eager->stats().to_string())
        << phase_twin_name(c) << " diverged at cycle " << now;
    ASSERT_EQ(ids_of(fast->take_completed()), ids_of(eager->take_completed()))
        << phase_twin_name(c) << " completions diverged at cycle " << now;
    // Deliver due arrivals; acceptance must agree (identical state).
    while (next < plan.size() && plan[next].at <= now) {
      ASSERT_EQ(fast->can_accept(plan[next].op),
                eager->can_accept(plan[next].op))
          << phase_twin_name(c) << " at cycle " << now;
      if (!fast->can_accept(plan[next].op)) break;
      mem::MemRequest r;
      r.id = id++;
      r.op = plan[next].op;
      r.addr = dec.decode(plan[next].addr);
      fast->enqueue(r, now);
      eager->enqueue(r, now);
      ++next;
    }
    // While backpressured, step cycle by cycle (acceptance is retested at
    // every cycle, as the runner's serial schedule would).
    const bool backpressured = next < plan.size() && plan[next].at <= now;
    const Cycle bound =
        backpressured
            ? now + 1
            : (next < plan.size() ? std::max(plan[next].at, now + 1)
                                  : now + 100'000);
    // advance_phase replays events strictly below `bound` and returns the
    // next due cycle (which may lie beyond the bound — it is the resume
    // point, not a replayed cycle). Overshooting an actionable cycle would
    // skip an event the eager twin executes, so it surfaces as a stats or
    // completion divergence at the very next boundary comparison above.
    const Cycle fwd = fast->advance_phase(now, bound);
    ASSERT_GE(fwd, now) << phase_twin_name(c);
    if (fwd == kNeverCycle) {
      // The phase retired everything below the bound and the chain died
      // (channel idle). Let the eager twin tick through the window too.
      now = next < plan.size() ? std::max(plan[next].at, now + 1) : bound;
      continue;
    }
    if (fwd > now) {
      now = fwd;  // phase replayed [now, min(fwd, bound)); eager re-executes
      continue;
    }
    fast->tick(now);
    const Cycle ne = fast->next_event(now);
    Cycle step;
    if (ne == kNeverCycle) {
      if (next >= plan.size()) {
        now = now + 1;  // final boundary: let the eager twin tick `now`
        break;
      }
      step = std::max(plan[next].at, now + 1);
    } else {
      step = std::min(ne, bound);
    }
    now = std::max(step, now + 1);
  }
  while (ticked < now) {
    eager->tick(ticked);
    ++ticked;
  }
  EXPECT_EQ(fast->stats().to_string(), eager->stats().to_string())
      << phase_twin_name(c) << " final stats";
  EXPECT_EQ(ids_of(fast->take_completed()), ids_of(eager->take_completed()));
  EXPECT_TRUE(eager->idle());
  EXPECT_EQ(next, plan.size()) << phase_twin_name(c);
  // The eager twin must never fast-forward, and the FgNVM fast twin must
  // actually exercise the phase engine (DRAM is not pure-timing, so only
  // its retire-only phase may fire — equivalence is the assertion there).
  const PhaseStats& ps = fast->phase_stats();
  const PhaseStats& eps = eager->phase_stats();
  EXPECT_EQ(eps.retire_phases + eps.drain_phases + eps.burst_phases, 0u);
  if (!c.dram) {
    EXPECT_GT(ps.retire_phases + ps.drain_phases + ps.burst_phases, 0u)
        << phase_twin_name(c) << ": phase engine never fired";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Twin, PhaseTwinTest,
    ::testing::Values(PhaseTwinCase{SchedulerPolicy::kFcfs, false, 101},
                      PhaseTwinCase{SchedulerPolicy::kFrfcfs, false, 102},
                      PhaseTwinCase{SchedulerPolicy::kFrfcfsAugmented, false,
                                    103},
                      PhaseTwinCase{SchedulerPolicy::kFcfs, true, 104},
                      PhaseTwinCase{SchedulerPolicy::kFrfcfs, true, 105},
                      PhaseTwinCase{SchedulerPolicy::kFrfcfsAugmented, true,
                                    106}),
    [](const ::testing::TestParamInfo<PhaseTwinCase>& info) {
      return phase_twin_name(info.param);
    });

// ---------------------------------------------------------------------------
// Core fast-forward differential: RobCpu::next_action's classification is
// checked against eager cycle-by-cycle ticking at EVERY memory cycle of a
// full run. The contract (DESIGN.md §10): a kActs prediction for a future
// cycle means nothing externally visible (submission, backpressure stall,
// finish) happens before it — never overshoot — and a kActs/kBackpressured
// prediction for the current cycle means the action happens exactly now —
// never undershoot either, the prediction is exact. kStalled means nothing
// can happen without a completion. Recomputing each cycle makes every
// prediction checkable against the very next tick regardless of when
// completions land.

TEST(CoreFastForwardDifferential, NextActionNeverOvershoots) {
  using Action = cpu::RobCpu::Action;
  using ActionKind = cpu::RobCpu::ActionKind;
  std::uint64_t checked_acts = 0;     // exact kActs firings observed
  std::uint64_t checked_stalled = 0;  // kStalled cycles observed quiet
  std::uint64_t checked_bp = 0;       // kBackpressured stalls observed

  // Tiny queues on the second config force genuine backpressure phases.
  sys::SystemConfig tiny = sys::fgnvm_config(4, 4);
  tiny.controller.read_queue_cap = 4;
  tiny.controller.write_queue_cap = 6;
  tiny.controller.wq_high = 4;
  tiny.controller.wq_low = 1;
  tiny.name += "_tinyq";

  for (const char* prof : {"wrf", "milc", "omnetpp"}) {
    const trace::Trace tr =
        trace::generate_trace(trace::spec2006_profile(prof), 800);
    for (const sys::SystemConfig& cfg :
         {sys::fgnvm_config(4, 4), tiny, sys::dram_config(4)}) {
      sys::MemorySystem mem(cfg);
      mem.set_eager_ticking(true);
      cpu::RobCpu core(tr, {}, mem);
      std::vector<mem::MemRequest> done;
      Cycle t = 0;
      while (!core.finished() || !mem.idle()) {
        ASSERT_LT(t, 5'000'000u) << prof << " / " << cfg.name;
        mem.drain_completed(done);
        core.complete(done);
        const bool fin0 = core.finished();
        Action act;
        if (!fin0) act = core.next_action(t);
        const std::uint64_t subs0 =
            mem.submitted_reads() + mem.submitted_writes();
        const std::uint64_t bp0 = core.mem_backpressure_stalls();
        core.tick_mem_cycle(t);
        if (!fin0) {
          const bool submitted =
              mem.submitted_reads() + mem.submitted_writes() > subs0;
          const bool backpressured = core.mem_backpressure_stalls() > bp0;
          const bool finished_now = core.finished();
          switch (act.kind) {
            case ActionKind::kActs:
              ASSERT_GE(act.cycle, t) << prof << " / " << cfg.name;
              if (act.cycle == t) {
                EXPECT_TRUE(submitted || finished_now)
                    << prof << " / " << cfg.name << " cycle " << t
                    << ": predicted to act now but did not";
                ++checked_acts;
              } else {
                EXPECT_FALSE(submitted || backpressured || finished_now)
                    << prof << " / " << cfg.name << " cycle " << t
                    << ": acted before predicted cycle " << act.cycle;
              }
              break;
            case ActionKind::kBackpressured:
              EXPECT_EQ(act.cycle, t);
              EXPECT_TRUE(backpressured)
                  << prof << " / " << cfg.name << " cycle " << t
                  << ": predicted a refused attempt, none observed";
              EXPECT_FALSE(submitted);
              ++checked_bp;
              break;
            case ActionKind::kStalled:
              EXPECT_FALSE(submitted || backpressured || finished_now)
                  << prof << " / " << cfg.name << " cycle " << t
                  << ": predicted stalled but acted";
              ++checked_stalled;
              break;
          }
        }
        mem.tick(t);
        ++t;
      }
      EXPECT_TRUE(core.finished()) << prof << " / " << cfg.name;
    }
  }
  // Every classification must actually have been exercised.
  EXPECT_GT(checked_acts, 0u);
  EXPECT_GT(checked_stalled, 0u);
  EXPECT_GT(checked_bp, 0u);
}

}  // namespace
}  // namespace fgnvm::sched
