#include "sim/runner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "sim/wake_calendar.hpp"

namespace fgnvm::sim {

double RunResult::energy_per_op_pj() const {
  const std::uint64_t ops = reads + writes;
  return ops == 0 ? 0.0 : energy.total_pj() / static_cast<double>(ops);
}

namespace {

/// Builds a fresh system for one loop run. The paranoid cross-check runs
/// the loop twice, so the loop bodies take a factory instead of a
/// ready-made system; the concrete type (MemorySystem or
/// HybridMemorySystem) is the entry-point overload's choice.
using SystemFactory = std::function<std::unique_ptr<sys::MemorySystem>()>;

RunResult finalize(const std::string& workload, sys::MemorySystem& mem,
                   Cycle mem_cycles) {
  RunResult r;
  r.workload = workload;
  r.config = mem.config().name;
  r.mem_cycles = mem_cycles;
  r.reads = mem.submitted_reads();
  r.writes = mem.submitted_writes();
  r.energy = mem.energy(mem_cycles);
  r.banks = mem.bank_totals();
  r.controller = mem.controller_stats();
  r.avg_read_latency = r.controller.distribution("read_latency").mean();
  const Histogram& hist = r.controller.histogram("read_latency_hist");
  r.p50_read_latency = hist.percentile(0.50);
  r.p95_read_latency = hist.percentile(0.95);
  r.p99_read_latency = hist.percentile(0.99);
  mem.finalize_obs(mem_cycles);
  if (obs::Observer* o = mem.observer()) {
    o->set_run_info(workload, mem.config().name);
    // The instruction source captures loop-local state; the observer itself
    // outlives the run through the shared_ptr below.
    o->set_instruction_source(nullptr);
  }
  r.obs = mem.observer_ptr();
  return r;
}

/// The deadlock guard shared by every loop: names the loop, the workload
/// and config, the cycle, and per channel its next event and queue
/// occupancy, so a run that stops making progress reports where it stalled.
[[noreturn]] void throw_cycle_limit(const char* loop,
                                    const std::string& workload,
                                    const sys::MemorySystem& mem, Cycle t) {
  std::ostringstream os;
  os << loop << ": exceeded max_mem_cycles at cycle " << t << " on "
     << workload << " / " << mem.config().name;
  for (std::uint64_t ch = 0; ch < mem.channels(); ++ch) {
    const sched::ControllerBase& c = mem.channel(ch);
    const Cycle next = c.next_event(t);
    os << "; ch" << ch << " next_event=";
    if (next == kNeverCycle) {
      os << "never";
    } else {
      os << next;
    }
    os << " pending_reads=" << c.pending_reads()
       << " write_queue=" << c.write_queue().size();
    if (c.write_queue().draining()) os << " draining";
  }
  throw std::runtime_error(os.str());
}

/// Workload label of a multiprogrammed run for the deadlock guard.
std::string mix_name(const std::vector<trace::RecordSource*>& sources) {
  if (sources.empty()) return "(no cores)";
  std::string name = sources[0]->name();
  if (sources.size() > 1) {
    name += " + " + std::to_string(sources.size() - 1) + " more";
  }
  return name;
}

bool paranoid_mode() {
  const char* env = std::getenv("FGNVM_PARANOID");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

bool event_skip(LoopMode mode) {
  return mode != LoopMode::kCycleAccurate;
}

/// FGNVM_WAKE_CALENDAR=0 selects the legacy per-iteration min-scan wake
/// schedule in the multiprogrammed skip loop; anything else (including
/// unset) selects the indexed wake calendar. Both are bit-identical; the
/// switch exists for A/B measurement and as a paranoid oracle.
bool wake_calendar_enabled() {
  const char* env = std::getenv("FGNVM_WAKE_CALENDAR");
  return env == nullptr || env[0] == '\0' ||
         !(env[0] == '0' && env[1] == '\0');
}

/// Reusable per-thread arena for the multiprogrammed loops (sized once per
/// run, capacity retained across runs so repeated sweep configs don't churn
/// allocations). SoA layout: each array is indexed by dense core id.
struct RunnerScratch {
  // Completion routing: per-core buckets plus the list of cores whose
  // bucket is non-empty since the last drain (so clearing is O(touched),
  // not O(cores)).
  std::vector<std::vector<mem::MemRequest>> per_core;
  std::vector<std::uint32_t> touched;
  std::vector<mem::MemRequest> done;

  std::vector<Cycle> due;                  // legacy scan / bp probe dues
  std::vector<Cycle> synced;               // first cycle not yet executed
  std::vector<cpu::RobCpu::Action> acts;   // last classified action
  std::vector<std::uint8_t> woken;         // legacy scan wake flags
  std::vector<std::uint8_t> stamp;         // calendar woken-set dedup
  std::vector<std::uint32_t> woken_list;   // calendar woken set (sorted)
  std::vector<std::uint32_t> due_now;      // calendar collect_due output
  std::vector<std::uint32_t> bp_list;      // dense backpressured-core list
  std::vector<std::uint32_t> bp_pos;       // core -> bp_list index or npos
  WakeCalendar calendar;

  static constexpr std::uint32_t kNpos = ~std::uint32_t{0};

  void prepare(std::size_t n, std::size_t bucket_reserve) {
    if (per_core.size() < n) per_core.resize(n);
    for (std::size_t i = 0; i < n; ++i) per_core[i].clear();
    // The old per-call code reserved every bucket at the full drain bound;
    // keep that for small core counts, let growth amortize (and persist
    // across runs) at thousand-core scale where n * bound would dominate.
    if (n <= 64 && bucket_reserve > 0) {
      for (std::size_t i = 0; i < n; ++i) {
        per_core[i].reserve(bucket_reserve);
      }
    }
    touched.clear();
    done.clear();
    due.assign(n, 0);
    synced.assign(n, 0);
    acts.assign(n, cpu::RobCpu::Action{});
    woken.assign(n, 0);
    stamp.assign(n, 0);
    woken_list.clear();
    due_now.clear();
    bp_list.clear();
    bp_pos.assign(n, kNpos);
  }
};

RunnerScratch& runner_scratch() {
  // thread_local: SweepRunner drives these loops from a worker pool.
  thread_local RunnerScratch s;
  return s;
}

[[noreturn]] void throw_mismatch(const std::string& what,
                                 const std::string& diff) {
  throw std::runtime_error("FGNVM_PARANOID: event-skip run of " + what +
                           " diverged from the cycle-accurate loop: " + diff);
}

// ------------------------------------------------------------ diff helpers

class Differ {
 public:
  bool num(const char* name, double a, double b) {
    // Bit-level comparison: the two loops must execute the identical
    // floating-point operations in the identical order.
    if (a == b || (std::isnan(a) && std::isnan(b))) return false;
    record(name, a, b);
    return true;
  }
  bool num(const char* name, std::uint64_t a, std::uint64_t b) {
    if (a == b) return false;
    record(name, a, b);
    return true;
  }

  void stats(const StatSet& a, const StatSet& b) {
    if (!diff_.empty()) return;
    if (a.counters().size() != b.counters().size() ||
        a.distributions().size() != b.distributions().size() ||
        a.histograms().size() != b.histograms().size()) {
      diff_ = "controller stat-set shape differs";
      return;
    }
    for (const auto& [name, value] : a.counters()) {
      if (num(name.c_str(), value, b.counter(name))) return;
    }
    for (const auto& [name, d] : a.distributions()) {
      const Distribution& e = b.distribution(name);
      if (num((name + ".count").c_str(), d.count(), e.count()) ||
          num((name + ".sum").c_str(), d.sum(), e.sum()) ||
          num((name + ".min").c_str(), d.min(), e.min()) ||
          num((name + ".max").c_str(), d.max(), e.max()) ||
          num((name + ".var").c_str(), d.variance(), e.variance())) {
        return;
      }
    }
    for (const auto& [name, h] : a.histograms()) {
      const Histogram& g = b.histogram(name);
      if (num((name + ".total").c_str(), h.total(), g.total()) ||
          num((name + ".overflow").c_str(), h.overflow(), g.overflow())) {
        return;
      }
      for (std::size_t i = 0; i < h.num_buckets(); ++i) {
        if (num((name + ".bucket" + std::to_string(i)).c_str(), h.bucket(i),
                g.bucket(i))) {
          return;
        }
      }
    }
  }

  const std::string& diff() const { return diff_; }

 private:
  template <typename T>
  void record(const char* name, T a, T b) {
    if (!diff_.empty()) return;
    std::ostringstream os;
    os << name << ": " << a << " vs " << b;
    diff_ = os.str();
  }

  std::string diff_;
};

// ------------------------------------------------------------ loop bodies

RunResult run_workload_loop(trace::RecordSource& source,
                            const SystemFactory& make_system,
                            const cpu::CpuParams& cpu_params,
                            Cycle max_mem_cycles, bool skip) {
  const std::unique_ptr<sys::MemorySystem> mem_ptr = make_system();
  sys::MemorySystem& mem = *mem_ptr;
  if (!skip) mem.set_eager_ticking(true);
  source.reset();  // paranoid double-runs replay the same stream
  cpu::RobCpu core(source, cpu_params, mem);
  if (obs::Observer* o = mem.observer()) {
    o->set_instruction_source([&core] { return core.instructions_retired(); });
  }
  const bool windows = skip && mem.lazy_scheduling();
  std::vector<mem::MemRequest> done;

  Cycle t = 0;
  while (!core.finished() || !mem.idle()) {
    if (t >= max_mem_cycles) {
      throw_cycle_limit("run_workload", source.name(), mem, t);
    }
    mem.drain_completed(done);
    core.complete(done);
    core.tick_mem_cycle(t);
    mem.tick(t);
    Cycle next = t + 1;
    // Fast-forward: classify the core's next externally visible action and
    // jump straight to it, bounded by the memory side's own schedule so no
    // completion delivery (which would invalidate the classification) is
    // skipped over. A finished core is inert — treat it as kStalled.
    cpu::RobCpu::Action act;
    if (skip && !core.finished()) act = core.next_action(next);
    if (skip &&
        !(act.kind == cpu::RobCpu::ActionKind::kActs && act.cycle <= next)) {
      bool advanced = false;
      // Windowed advance: run every channel along its own event chain up to
      // the earliest cycle the core could be disturbed — a completion
      // delivery (completion_bound), the blocked channel's next chance to
      // free queue space (accept_event), or the core's own next submission
      // (act.cycle) — instead of returning to this loop at each global
      // event. Requires a valid bound; during pure write drain with the
      // core finished or stalled, fall through to the event path so the
      // final mem_cycles matches the per-event schedule.
      if (windows) {
        Cycle horizon = mem.completion_bound(t);
        if (act.kind == cpu::RobCpu::ActionKind::kBackpressured) {
          horizon = std::min(horizon, mem.accept_event(act.addr));
        } else if (act.kind == cpu::RobCpu::ActionKind::kActs) {
          // completion_bound may be kNeverCycle here (no read in flight and
          // none queued): the core still wakes the loop at act.cycle, so the
          // horizon stays valid and never overshoots the exit cycle.
          horizon = std::min(horizon, act.cycle);
        }
        if (horizon != kNeverCycle &&
            std::min(horizon, max_mem_cycles) > next) {
          next = std::min(horizon, max_mem_cycles);
          mem.advance_channels_to(next);
          if (!core.finished()) core.advance_to(t + 1, next);
          advanced = true;
        }
      }
      if (!advanced) {
        Cycle event = mem.next_event(t);
        if (act.kind == cpu::RobCpu::ActionKind::kActs) {
          event = std::min(event, act.cycle);
        }
        if (event > next && event != kNeverCycle) {
          next = std::min(event, max_mem_cycles);
          if (!core.finished()) core.advance_to(t + 1, next);
        }
      }
    }
    t = next;
  }

  RunResult r = finalize(source.name(), mem, t);
  r.instructions = core.instructions_retired();
  r.cpu_cycles = core.cpu_cycles();
  r.ipc = core.ipc();
  r.fetch_stall_cycles = core.fetch_stall_cycles();
  r.backpressure_stalls = core.mem_backpressure_stalls();
  return r;
}

MultiProgramResult run_multiprogrammed_loop(
    const std::vector<trace::RecordSource*>& sources,
    const SystemFactory& make_system, const cpu::CpuParams& cpu_params,
    Cycle max_mem_cycles, bool skip, bool use_calendar) {
  const std::unique_ptr<sys::MemorySystem> mem_ptr = make_system();
  sys::MemorySystem& mem = *mem_ptr;
  if (!skip) mem.set_eager_ticking(true);
  std::vector<std::unique_ptr<cpu::RobCpu>> cores;
  cores.reserve(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    sources[i]->reset();  // every loop run replays the stream from the top
    cores.push_back(
        std::make_unique<cpu::RobCpu>(*sources[i], cpu_params, mem, i));
  }
  if (obs::Observer* o = mem.observer()) {
    o->set_instruction_source([&cores] {
      std::uint64_t n = 0;
      for (const auto& c : cores) n += c->instructions_retired();
      return n;
    });
  }

  const std::size_t n = cores.size();
  // Per-core runner state lives in a reusable per-thread arena (completion
  // buckets, due/synced/action arrays, the wake calendar), sized once here
  // and recycled across runs.
  RunnerScratch& scratch = runner_scratch();
  scratch.prepare(n, mem.config().controller.read_queue_cap * mem.channels());
  std::vector<mem::MemRequest>& done = scratch.done;
  std::vector<std::vector<mem::MemRequest>>& per_core = scratch.per_core;

  const auto build_result = [&](Cycle mem_cycles) {
    MultiProgramResult r;
    r.mem_cycles = mem_cycles;
    r.energy = mem.energy(mem_cycles);
    r.controller = mem.controller_stats();
    for (std::size_t i = 0; i < cores.size(); ++i) {
      r.workloads.push_back(sources[i]->name());
      r.ipc.push_back(cores[i]->ipc());
      r.cpu_cycles.push_back(cores[i]->cpu_cycles());
    }
    mem.finalize_obs(mem_cycles);
    if (obs::Observer* o = mem.observer()) {
      o->set_run_info("multiprogram", mem.config().name);
      o->set_instruction_source(nullptr);  // captures the loop-local cores
    }
    r.obs = mem.observer_ptr();
    return r;
  };
  // Completions routed by cpu_tag, so each core scans only its own
  // requests instead of every core scanning the full drain. `touched`
  // lists the non-empty buckets, so clearing costs O(touched) rather than
  // O(cores) per drain.
  const auto route_completions = [&]() {
    for (const std::uint32_t i : scratch.touched) per_core[i].clear();
    scratch.touched.clear();
    mem.drain_completed(done);
    if (done.empty()) return false;
    for (const mem::MemRequest& r : done) {
      if (r.is_read() && r.cpu_tag < n) {
        if (per_core[r.cpu_tag].empty()) {
          scratch.touched.push_back(static_cast<std::uint32_t>(r.cpu_tag));
        }
        per_core[r.cpu_tag].push_back(r);
      }
    }
    return true;
  };

  if (!skip) {
    // Cycle-accurate reference: every core ticks every cycle.
    const auto all_finished = [&]() {
      return std::all_of(cores.begin(), cores.end(),
                         [](const auto& c) { return c->finished(); });
    };
    Cycle t = 0;
    while (!all_finished() || !mem.idle()) {
      if (t >= max_mem_cycles) {
        throw_cycle_limit("run_multiprogrammed (cycle-accurate)",
                          mix_name(sources), mem, t);
      }
      if (route_completions()) {
        for (std::size_t i = 0; i < cores.size(); ++i) {
          cores[i]->complete(per_core[i]);
        }
      }
      for (auto& core : cores) {
        core->tick_mem_cycle(t);
      }
      mem.tick(t);
      ++t;
    }
    return build_result(t);
  }

  // Indexed wake schedule: each core carries a due cycle (the memory cycle
  // of its next externally visible action, kNeverCycle while only a read
  // completion can wake it) and a synced watermark (the first memory cycle
  // it has not yet executed). An iteration ticks only the cores that are
  // due or just received a completion; everyone else is fast-forwarded
  // lazily when next woken (`advance_to` is bit-identical to ticking).
  // With an observer attached every unfinished core is woken each
  // iteration, so the instruction source reads exact values at every
  // sampled epoch.
  using ActionKind = cpu::RobCpu::ActionKind;
  const bool windows = mem.lazy_scheduling();
  const bool lazy_cores = mem.observer() == nullptr;
  std::vector<Cycle>& due = scratch.due;
  std::vector<Cycle>& synced = scratch.synced;
  std::vector<cpu::RobCpu::Action>& acts = scratch.acts;
  std::size_t unfinished = n;
  const auto catch_up = [&](std::size_t i, Cycle c) {
    if (synced[i] < c) {
      cores[i]->advance_to(synced[i], c);
      synced[i] = c;
    }
  };

  if (lazy_cores && use_calendar) {
    // Wake-calendar schedule (DESIGN.md §16): cores are partitioned into
    //  * armed   — next action is a known submission cycle; indexed in the
    //    calendar, woken by collect_due(t);
    //  * blocked — backpressured at their next record; kept in a dense
    //    `bp_list` and re-probed every iteration (another core's submission
    //    can pull the blocked channel's tick earlier, so their due cycles
    //    are not stable enough to index);
    //  * stalled — wake only on a read completion; tracked nowhere.
    // An iteration touches O(woken + backpressured) cores instead of
    // O(cores). Bit-identity with the legacy full scan below: the woken
    // set is identical ({completion-touched} ∪ {due <= t}), processed in
    // the same ascending core order (submission order feeds the memory
    // side), with the same re-arm and probe rules.
    WakeCalendar& cal = scratch.calendar;
    cal.reset(n);
    std::vector<std::uint32_t>& woken_list = scratch.woken_list;
    std::vector<std::uint32_t>& due_now = scratch.due_now;
    std::vector<std::uint8_t>& stamp = scratch.stamp;
    std::vector<std::uint32_t>& bp_list = scratch.bp_list;
    std::vector<std::uint32_t>& bp_pos = scratch.bp_pos;
    constexpr std::uint32_t kNpos = RunnerScratch::kNpos;
    const auto bp_remove = [&](std::uint32_t i) {
      const std::uint32_t pos = bp_pos[i];
      if (pos == kNpos) return;
      const std::uint32_t last = bp_list.back();
      bp_list[pos] = last;
      bp_pos[last] = pos;
      bp_list.pop_back();
      bp_pos[i] = kNpos;
    };
    // Everyone starts due at cycle 0 (the legacy loop's due[] = 0 init).
    for (std::uint32_t i = 0; i < n; ++i) cal.schedule(i, 0);

    Cycle t = 0;
    while (unfinished > 0 || !mem.idle()) {
      if (t >= max_mem_cycles) {
        throw_cycle_limit("run_multiprogrammed (wake calendar)",
                          mix_name(sources), mem, t);
      }
      route_completions();
      woken_list.clear();
      for (const std::uint32_t i : scratch.touched) {
        if (!cores[i]->finished() && !stamp[i]) {
          stamp[i] = 1;
          woken_list.push_back(i);
        }
      }
      due_now.clear();
      cal.collect_due(t, due_now);
      for (const std::uint32_t i : due_now) {
        if (!cores[i]->finished() && !stamp[i]) {
          stamp[i] = 1;
          woken_list.push_back(i);
        }
      }
      for (const std::uint32_t i : bp_list) {
        if (due[i] <= t && !stamp[i]) {
          stamp[i] = 1;
          woken_list.push_back(i);
        }
      }
      std::sort(woken_list.begin(), woken_list.end());
      for (const std::uint32_t i : woken_list) {
        stamp[i] = 0;
        // A completion invalidates the cached action (retirement unblocks,
        // so the core may reach its next record sooner); catch up to the
        // present first so the answered flag lands in a state identical to
        // eager.
        if (!per_core[i].empty()) {
          catch_up(i, t);
          cores[i]->complete(per_core[i]);
        }
        catch_up(i, t);
        cores[i]->tick_mem_cycle(t);
        synced[i] = t + 1;
      }
      mem.tick(t);
      for (const std::uint32_t i : woken_list) {
        if (cores[i]->finished()) {
          --unfinished;
          cal.cancel(i);
          bp_remove(i);
          acts[i].kind = ActionKind::kStalled;
          continue;
        }
        acts[i] = cores[i]->next_action(t + 1);
        if (acts[i].kind == ActionKind::kActs) {
          cal.schedule(i, acts[i].cycle);
          bp_remove(i);
        } else if (acts[i].kind == ActionKind::kBackpressured) {
          cal.cancel(i);
          if (bp_pos[i] == kNpos) {
            bp_pos[i] = static_cast<std::uint32_t>(bp_list.size());
            bp_list.push_back(i);
          }
        } else {  // kStalled: only a read completion can wake it
          cal.cancel(i);
          bp_remove(i);
        }
      }
      // Refresh every backpressured core (woken or not): a tick this very
      // cycle may already have freed space — probe can_accept so the wake
      // lands on the first acceptable cycle.
      Cycle bp_min = kNeverCycle;
      for (const std::uint32_t i : bp_list) {
        if (mem.can_accept(acts[i].addr, acts[i].op)) {
          due[i] = t + 1;
        } else if (windows) {
          due[i] = std::max(mem.accept_event(acts[i].addr), t + 1);
        } else {
          due[i] = t + 1;
        }
        bp_min = std::min(bp_min, due[i]);
      }
      const Cycle min_due = std::min(cal.min_due(), bp_min);
      Cycle next = t + 1;
      bool advanced = false;
      if (windows) {
        // Windowed advance: run every channel along its own event chain up
        // to the earliest cycle any core could be disturbed or act. Valid
        // bounds only — during pure write drain with every core stalled or
        // finished, fall through to the event path so the final mem_cycles
        // matches the per-event schedule.
        const Cycle horizon = std::min(mem.completion_bound(t), min_due);
        if (horizon != kNeverCycle &&
            std::min(horizon, max_mem_cycles) > next) {
          next = std::min(horizon, max_mem_cycles);
          mem.advance_channels_to(next);
          advanced = true;
        }
      }
      if (!advanced) {
        const Cycle event = std::min(mem.next_event(t), min_due);
        if (event > next && event != kNeverCycle) {
          next = std::min(event, max_mem_cycles);
        }
      }
      // next <= min_due (both branches bound by it), so the calendar base
      // never jumps past an armed wake.
      cal.advance_to(next);
      t = next;
    }
    return build_result(t);
  }

  // Legacy full-scan schedule: O(cores) due min-reduction and woken sweep
  // per iteration. Retained as the FGNVM_WAKE_CALENDAR=0 A/B variant and
  // the paranoid differential oracle for the calendar above; also the
  // observer-mode path (an observer wakes every core each iteration, so an
  // index buys nothing).
  std::vector<std::uint8_t>& woken = scratch.woken;

  Cycle t = 0;
  while (unfinished > 0 || !mem.idle()) {
    if (t >= max_mem_cycles) {
      throw_cycle_limit("run_multiprogrammed (full scan)", mix_name(sources),
                        mem, t);
    }
    const bool delivered = route_completions();
    for (std::size_t i = 0; i < n; ++i) {
      if (cores[i]->finished()) {
        woken[i] = 0;
        continue;
      }
      // A completion invalidates the cached action (retirement unblocks, so
      // the core may reach its next record sooner); catch up to the present
      // first so the answered flag lands in a state identical to eager.
      if (delivered && !per_core[i].empty()) {
        catch_up(i, t);
        cores[i]->complete(per_core[i]);
        woken[i] = 1;
      } else {
        woken[i] = !lazy_cores || due[i] <= t;
      }
      if (woken[i]) {
        catch_up(i, t);
        cores[i]->tick_mem_cycle(t);
        synced[i] = t + 1;
      }
    }
    mem.tick(t);
    // Re-arm the cores that ran; refresh every backpressured core (woken or
    // not): another core's submission can pull the blocked channel's tick
    // earlier, and a tick this very cycle may already have freed space —
    // probe can_accept so the wake lands on the first acceptable cycle.
    for (std::size_t i = 0; i < n; ++i) {
      if (cores[i]->finished()) {
        if (woken[i]) --unfinished;
        due[i] = kNeverCycle;
        acts[i].kind = ActionKind::kStalled;
        continue;
      }
      if (woken[i]) {
        acts[i] = cores[i]->next_action(t + 1);
        due[i] = acts[i].kind == ActionKind::kActs ? acts[i].cycle
                                                   : kNeverCycle;
      }
      if (acts[i].kind == ActionKind::kBackpressured) {
        if (mem.can_accept(acts[i].addr, acts[i].op)) {
          due[i] = t + 1;
        } else if (windows) {
          due[i] = std::max(mem.accept_event(acts[i].addr), t + 1);
        } else {
          due[i] = t + 1;
        }
      }
    }
    Cycle min_due = kNeverCycle;
    for (const Cycle d : due) min_due = std::min(min_due, d);
    Cycle next = t + 1;
    if (lazy_cores) {
      bool advanced = false;
      if (windows) {
        // Windowed advance: run every channel along its own event chain up
        // to the earliest cycle any core could be disturbed or act. Valid
        // bounds only — during pure write drain with every core stalled or
        // finished, fall through to the event path so the final mem_cycles
        // matches the per-event schedule.
        const Cycle horizon = std::min(mem.completion_bound(t), min_due);
        if (horizon != kNeverCycle &&
            std::min(horizon, max_mem_cycles) > next) {
          next = std::min(horizon, max_mem_cycles);
          mem.advance_channels_to(next);
          advanced = true;
        }
      }
      if (!advanced) {
        const Cycle event = std::min(mem.next_event(t), min_due);
        if (event > next && event != kNeverCycle) {
          next = std::min(event, max_mem_cycles);
        }
      }
    } else {
      // Observer mode: cores tick every iteration, so only skip spans the
      // memory side proves empty (the pre-fast-forward behaviour).
      const Cycle event = std::min(mem.next_event(t), min_due);
      if (event > next && event != kNeverCycle) {
        next = std::min(event, max_mem_cycles);
      }
    }
    t = next;
  }
  return build_result(t);
}

RunResult run_memory_only_loop(trace::RecordSource& source,
                               const SystemFactory& make_system,
                               Cycle max_mem_cycles, bool skip) {
  const std::unique_ptr<sys::MemorySystem> mem_ptr = make_system();
  sys::MemorySystem& mem = *mem_ptr;
  if (!skip) mem.set_eager_ticking(true);
  const bool windows = skip && mem.lazy_scheduling();
  source.reset();
  trace::TraceRecord rec;
  bool pending = source.next(rec);
  std::vector<mem::MemRequest> done;

  Cycle t = 0;
  while (pending || !mem.idle()) {
    if (t >= max_mem_cycles) {
      throw_cycle_limit("run_memory_only", source.name(), mem, t);
    }
    mem.drain_completed(done);
    while (pending && mem.can_accept(rec.addr, rec.op)) {
      mem.submit(rec.addr, rec.op, t);
      pending = source.next(rec);
    }
    mem.tick(t);
    Cycle next = t + 1;
    if (skip) {
      const bool blocked = !pending || !mem.can_accept(rec.addr, rec.op);
      if (blocked) {
        bool advanced = false;
        // Windowed advance: the next record is blocked on its target
        // channel, whose can_accept answer can only change at that channel's
        // own tick cycles. Run the target channel along its event chain
        // (with analytic phase fast-forwarding) until capacity frees, then
        // bring every other channel up to the same resume cycle — while
        // blocked no channel receives submissions, so the chains are
        // independent and the result matches the serial per-event schedule
        // bit for bit. After trace exhaustion, stick to the event path so
        // the final drain-out cycle (and hence mem_cycles) matches the
        // per-event schedule.
        if (windows && pending) {
          const Cycle resume =
              mem.advance_until_accept(rec.addr, rec.op, max_mem_cycles);
          if (std::min(resume, max_mem_cycles) > next) {
            next = std::min(resume, max_mem_cycles);
            mem.advance_channels_to(next);
            advanced = true;
          }
        }
        if (!advanced) {
          const Cycle event = mem.next_event(t);
          if (event > next && event != kNeverCycle) {
            next = std::min(event, max_mem_cycles);
          }
        }
      }
    }
    t = next;
  }
  return finalize(source.name(), mem, t);
}

}  // namespace

// ------------------------------------------------------------ diffs

std::string diff_results(const RunResult& a, const RunResult& b) {
  Differ d;
  if (d.num("instructions", a.instructions, b.instructions) ||
      d.num("cpu_cycles", a.cpu_cycles, b.cpu_cycles) ||
      d.num("mem_cycles", a.mem_cycles, b.mem_cycles) ||
      d.num("reads", a.reads, b.reads) ||
      d.num("writes", a.writes, b.writes) || d.num("ipc", a.ipc, b.ipc) ||
      d.num("avg_read_latency", a.avg_read_latency, b.avg_read_latency) ||
      d.num("p50_read_latency", a.p50_read_latency, b.p50_read_latency) ||
      d.num("p95_read_latency", a.p95_read_latency, b.p95_read_latency) ||
      d.num("p99_read_latency", a.p99_read_latency, b.p99_read_latency) ||
      d.num("fetch_stall_cycles", a.fetch_stall_cycles,
            b.fetch_stall_cycles) ||
      d.num("backpressure_stalls", a.backpressure_stalls,
            b.backpressure_stalls) ||
      d.num("energy.sense_pj", a.energy.sense_pj, b.energy.sense_pj) ||
      d.num("energy.write_pj", a.energy.write_pj, b.energy.write_pj) ||
      d.num("energy.background_pj", a.energy.background_pj,
            b.energy.background_pj) ||
      d.num("banks.acts_for_read", a.banks.acts_for_read,
            b.banks.acts_for_read) ||
      d.num("banks.acts_for_write", a.banks.acts_for_write,
            b.banks.acts_for_write) ||
      d.num("banks.underfetch_acts", a.banks.underfetch_acts,
            b.banks.underfetch_acts) ||
      d.num("banks.reads", a.banks.reads, b.banks.reads) ||
      d.num("banks.writes", a.banks.writes, b.banks.writes) ||
      d.num("banks.bits_sensed", a.banks.bits_sensed, b.banks.bits_sensed) ||
      d.num("banks.bits_written", a.banks.bits_written,
            b.banks.bits_written)) {
    return d.diff();
  }
  d.stats(a.controller, b.controller);
  return d.diff();
}

std::string diff_results(const MultiProgramResult& a,
                         const MultiProgramResult& b) {
  if (a.workloads != b.workloads) return "workload lists differ";
  Differ d;
  if (d.num("mem_cycles", a.mem_cycles, b.mem_cycles) ||
      d.num("energy.sense_pj", a.energy.sense_pj, b.energy.sense_pj) ||
      d.num("energy.write_pj", a.energy.write_pj, b.energy.write_pj) ||
      d.num("energy.background_pj", a.energy.background_pj,
            b.energy.background_pj)) {
    return d.diff();
  }
  for (std::size_t i = 0; i < a.ipc.size(); ++i) {
    if (d.num(("ipc[" + std::to_string(i) + "]").c_str(), a.ipc[i],
              b.ipc[i]) ||
        d.num(("cpu_cycles[" + std::to_string(i) + "]").c_str(),
              a.cpu_cycles[i], b.cpu_cycles[i])) {
      return d.diff();
    }
  }
  d.stats(a.controller, b.controller);
  return d.diff();
}

// ------------------------------------------------------------ entry points

namespace {

SystemFactory plain_factory(const sys::SystemConfig& sys_cfg) {
  return [&sys_cfg] { return std::make_unique<sys::MemorySystem>(sys_cfg); };
}

SystemFactory hybrid_factory(const sys::HybridSystemConfig& sys_cfg) {
  return [&sys_cfg] {
    return std::make_unique<sys::HybridMemorySystem>(sys_cfg);
  };
}

RunResult run_workload_impl(trace::RecordSource& source,
                            const SystemFactory& make_system,
                            const std::string& label,
                            const cpu::CpuParams& cpu_params,
                            Cycle max_mem_cycles, LoopMode mode) {
  RunResult r = run_workload_loop(source, make_system, cpu_params,
                                  max_mem_cycles, event_skip(mode));
  if (mode == LoopMode::kAuto && paranoid_mode()) {
    const RunResult ref = run_workload_loop(source, make_system, cpu_params,
                                            max_mem_cycles, /*skip=*/false);
    const std::string diff = diff_results(ref, r);
    if (!diff.empty()) {
      throw_mismatch(source.name() + " / " + label, diff);
    }
  }
  return r;
}

}  // namespace

RunResult run_workload(const trace::Trace& trace,
                       const sys::SystemConfig& sys_cfg,
                       const cpu::CpuParams& cpu_params, Cycle max_mem_cycles,
                       LoopMode mode) {
  trace::TraceSource source(trace);
  return run_workload_impl(source, plain_factory(sys_cfg), sys_cfg.name,
                           cpu_params, max_mem_cycles, mode);
}

RunResult run_workload(const trace::Trace& trace,
                       const sys::HybridSystemConfig& sys_cfg,
                       const cpu::CpuParams& cpu_params, Cycle max_mem_cycles,
                       LoopMode mode) {
  trace::TraceSource source(trace);
  return run_workload_impl(source, hybrid_factory(sys_cfg), sys_cfg.nvm.name,
                           cpu_params, max_mem_cycles, mode);
}

RunResult run_workload(trace::RecordSource& source,
                       const sys::SystemConfig& sys_cfg,
                       const cpu::CpuParams& cpu_params, Cycle max_mem_cycles,
                       LoopMode mode) {
  return run_workload_impl(source, plain_factory(sys_cfg), sys_cfg.name,
                           cpu_params, max_mem_cycles, mode);
}

RunResult run_workload(trace::RecordSource& source,
                       const sys::HybridSystemConfig& sys_cfg,
                       const cpu::CpuParams& cpu_params, Cycle max_mem_cycles,
                       LoopMode mode) {
  return run_workload_impl(source, hybrid_factory(sys_cfg), sys_cfg.nvm.name,
                           cpu_params, max_mem_cycles, mode);
}

double MultiProgramResult::weighted_speedup(
    const std::vector<double>& alone) const {
  if (alone.size() != ipc.size()) {
    throw std::invalid_argument("weighted_speedup: arity mismatch");
  }
  double ws = 0.0;
  for (std::size_t i = 0; i < ipc.size(); ++i) {
    if (alone[i] > 0) ws += ipc[i] / alone[i];
  }
  return ws;
}

std::vector<double> MultiProgramResult::slowdowns(
    const std::vector<double>& alone) const {
  if (alone.size() != ipc.size()) {
    throw std::invalid_argument("slowdowns: arity mismatch");
  }
  std::vector<double> s(ipc.size(), 0.0);
  for (std::size_t i = 0; i < ipc.size(); ++i) {
    if (alone[i] > 0 && ipc[i] > 0) s[i] = alone[i] / ipc[i];
  }
  return s;
}

double MultiProgramResult::max_slowdown(
    const std::vector<double>& alone) const {
  double m = 0.0;
  for (const double s : slowdowns(alone)) m = std::max(m, s);
  return m;
}

double MultiProgramResult::fairness(const std::vector<double>& alone) const {
  double lo = 0.0, hi = 0.0;
  bool first = true;
  for (const double s : slowdowns(alone)) {
    if (s <= 0) continue;
    lo = first ? s : std::min(lo, s);
    hi = first ? s : std::max(hi, s);
    first = false;
  }
  return hi > 0 ? lo / hi : 0.0;
}

double MultiProgramResult::harmonic_speedup(
    const std::vector<double>& alone) const {
  double sum = 0.0;
  std::size_t counted = 0;
  for (const double s : slowdowns(alone)) {
    if (s <= 0) continue;
    sum += s;
    ++counted;
  }
  return sum > 0 ? static_cast<double>(counted) / sum : 0.0;
}

namespace {

MultiProgramResult run_multiprogrammed_impl(
    const std::vector<trace::RecordSource*>& sources,
    const SystemFactory& make_system, const std::string& label,
    const cpu::CpuParams& cpu_params, Cycle max_mem_cycles, LoopMode mode) {
  if (sources.empty()) {
    throw std::invalid_argument("run_multiprogrammed: no traces");
  }
  const bool use_calendar = wake_calendar_enabled();
  MultiProgramResult r =
      run_multiprogrammed_loop(sources, make_system, cpu_params,
                               max_mem_cycles, event_skip(mode), use_calendar);
  if (mode == LoopMode::kAuto && paranoid_mode()) {
    // Tri-oracle: the primary skip run must match both the cycle-accurate
    // reference and the other wake-schedule variant (calendar vs. legacy
    // scan), so the calendar is differentially checked on every paranoid
    // run regardless of FGNVM_WAKE_CALENDAR.
    const MultiProgramResult ref =
        run_multiprogrammed_loop(sources, make_system, cpu_params,
                                 max_mem_cycles, /*skip=*/false, use_calendar);
    const std::string diff = diff_results(ref, r);
    if (!diff.empty()) {
      throw_mismatch("multiprogram / " + label, diff);
    }
    const MultiProgramResult alt = run_multiprogrammed_loop(
        sources, make_system, cpu_params, max_mem_cycles, /*skip=*/true,
        !use_calendar);
    const std::string wake_diff = diff_results(alt, r);
    if (!wake_diff.empty()) {
      throw std::runtime_error(
          "FGNVM_PARANOID: wake-calendar and legacy-scan runs of "
          "multiprogram / " +
          label + " diverged: " + wake_diff);
    }
  }
  return r;
}

MultiProgramResult run_multiprogrammed_traces_impl(
    const std::vector<trace::Trace>& traces, const SystemFactory& make_system,
    const std::string& label, const cpu::CpuParams& cpu_params,
    Cycle max_mem_cycles, LoopMode mode) {
  std::vector<trace::TraceSource> cursors;
  cursors.reserve(traces.size());
  for (const trace::Trace& t : traces) cursors.emplace_back(t);
  std::vector<trace::RecordSource*> sources;
  sources.reserve(cursors.size());
  for (trace::TraceSource& c : cursors) sources.push_back(&c);
  return run_multiprogrammed_impl(sources, make_system, label, cpu_params,
                                  max_mem_cycles, mode);
}

RunResult run_memory_only_impl(trace::RecordSource& source,
                               const SystemFactory& make_system,
                               const std::string& label, Cycle max_mem_cycles,
                               LoopMode mode) {
  RunResult r = run_memory_only_loop(source, make_system, max_mem_cycles,
                                     event_skip(mode));
  if (mode == LoopMode::kAuto && paranoid_mode()) {
    const RunResult ref = run_memory_only_loop(source, make_system,
                                               max_mem_cycles, /*skip=*/false);
    const std::string diff = diff_results(ref, r);
    if (!diff.empty()) {
      throw_mismatch(source.name() + " / " + label + " (memory-only)", diff);
    }
  }
  return r;
}

}  // namespace

MultiProgramResult run_multiprogrammed(const std::vector<trace::Trace>& traces,
                                       const sys::SystemConfig& sys_cfg,
                                       const cpu::CpuParams& cpu_params,
                                       Cycle max_mem_cycles, LoopMode mode) {
  return run_multiprogrammed_traces_impl(traces, plain_factory(sys_cfg),
                                         sys_cfg.name, cpu_params,
                                         max_mem_cycles, mode);
}

MultiProgramResult run_multiprogrammed(const std::vector<trace::Trace>& traces,
                                       const sys::HybridSystemConfig& sys_cfg,
                                       const cpu::CpuParams& cpu_params,
                                       Cycle max_mem_cycles, LoopMode mode) {
  return run_multiprogrammed_traces_impl(traces, hybrid_factory(sys_cfg),
                                         sys_cfg.nvm.name, cpu_params,
                                         max_mem_cycles, mode);
}

MultiProgramResult run_multiprogrammed(
    const std::vector<trace::RecordSource*>& sources,
    const sys::SystemConfig& sys_cfg, const cpu::CpuParams& cpu_params,
    Cycle max_mem_cycles, LoopMode mode) {
  return run_multiprogrammed_impl(sources, plain_factory(sys_cfg),
                                  sys_cfg.name, cpu_params, max_mem_cycles,
                                  mode);
}

MultiProgramResult run_multiprogrammed(
    const std::vector<trace::RecordSource*>& sources,
    const sys::HybridSystemConfig& sys_cfg, const cpu::CpuParams& cpu_params,
    Cycle max_mem_cycles, LoopMode mode) {
  return run_multiprogrammed_impl(sources, hybrid_factory(sys_cfg),
                                  sys_cfg.nvm.name, cpu_params,
                                  max_mem_cycles, mode);
}

RunResult run_memory_only(const trace::Trace& trace,
                          const sys::SystemConfig& sys_cfg,
                          Cycle max_mem_cycles, LoopMode mode) {
  trace::TraceSource source(trace);
  return run_memory_only_impl(source, plain_factory(sys_cfg), sys_cfg.name,
                              max_mem_cycles, mode);
}

RunResult run_memory_only(const trace::Trace& trace,
                          const sys::HybridSystemConfig& sys_cfg,
                          Cycle max_mem_cycles, LoopMode mode) {
  trace::TraceSource source(trace);
  return run_memory_only_impl(source, hybrid_factory(sys_cfg),
                              sys_cfg.nvm.name, max_mem_cycles, mode);
}

RunResult run_memory_only(trace::RecordSource& source,
                          const sys::SystemConfig& sys_cfg,
                          Cycle max_mem_cycles, LoopMode mode) {
  return run_memory_only_impl(source, plain_factory(sys_cfg), sys_cfg.name,
                              max_mem_cycles, mode);
}

RunResult run_memory_only(trace::RecordSource& source,
                          const sys::HybridSystemConfig& sys_cfg,
                          Cycle max_mem_cycles, LoopMode mode) {
  return run_memory_only_impl(source, hybrid_factory(sys_cfg),
                              sys_cfg.nvm.name, max_mem_cycles, mode);
}

}  // namespace fgnvm::sim
