#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>

#include "sim/wake_calendar.hpp"

namespace fgbench {

using namespace fgnvm;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Forwards every ControllerBase call to the channel's real controller,
/// timing the ones a MemorySystem makes while simulating.
class TimedController final : public sched::ControllerBase {
 public:
  TimedController(std::unique_ptr<sched::ControllerBase> inner, Tracer& t)
      : in_(std::move(inner)), t_(t) {}

  bool can_accept(OpType op) const override {
    Span s(t_, kSched);
    return in_->can_accept(op);
  }
  void enqueue(mem::MemRequest req, Cycle now) override {
    Span s(t_, kSched);
    in_->enqueue(req, now);
  }
  void tick(Cycle now) override {
    Span s(t_, kSched);
    ++t_.counts.sched_tick;
    in_->tick(now);
  }
  std::vector<mem::MemRequest> take_completed() override {
    Span s(t_, kSched);
    return in_->take_completed();
  }
  void drain_completed(std::vector<mem::MemRequest>& out) override {
    Span s(t_, kSched);
    in_->drain_completed(out);
  }
  Cycle next_event(Cycle now) const override {
    Span s(t_, kSched);
    ++t_.counts.sched_next_event;
    return in_->next_event(now);
  }
  Cycle advance_to(Cycle due, Cycle horizon) override {
    Span s(t_, kSched);
    ++t_.counts.sched_advance;
    return in_->advance_to(due, horizon);
  }
  Cycle advance_until_accept(Cycle due, OpType op, Cycle horizon) override {
    Span s(t_, kSched);
    ++t_.counts.sched_advance;
    return in_->advance_until_accept(due, op, horizon);
  }
  Cycle advance_phase(Cycle now, Cycle bound) override {
    Span s(t_, kSched);
    return in_->advance_phase(now, bound);
  }
  const sched::PhaseStats& phase_stats() const override {
    return in_->phase_stats();
  }
  void set_phase_engine(bool on) override { in_->set_phase_engine(on); }
  void set_phase_hold(bool held) override { in_->set_phase_hold(held); }
  Cycle completion_bound(Cycle now) const override {
    Span s(t_, kSched);
    return in_->completion_bound(now);
  }
  bool idle() const override {
    Span s(t_, kSched);
    return in_->idle();
  }
  const std::vector<std::unique_ptr<nvm::Bank>>& banks() const override {
    return in_->banks();
  }
  const mem::DataBus& bus() const override { return in_->bus(); }
  const sched::WriteQueue& write_queue() const override {
    return in_->write_queue();
  }
  const StatSet& stats() const override { return in_->stats(); }
  std::uint64_t pending_reads() const override { return in_->pending_reads(); }
  void set_cross_check(bool on) override { in_->set_cross_check(on); }
  bool cross_check() const override { return in_->cross_check(); }
  void set_collector(obs::ChannelCollector* c) override {
    in_->set_collector(c);
  }
  void sample_obs(Cycle now, obs::ChannelSample& s) const override {
    in_->sample_obs(now, s);
  }

 private:
  std::unique_ptr<sched::ControllerBase> in_;
  Tracer& t_;
};

/// The fields sim::RunResult gets from the memory system at the end of a
/// run — the same as runner.cpp's finalize().
sim::RunResult finalize(const std::string& workload, sys::MemorySystem& mem,
                        Cycle mem_cycles) {
  sim::RunResult r;
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
  return r;
}

constexpr Cycle kMaxMemCycles = 500'000'000;

void check_end(Cycle t, Cycle end) {
  if (t > end) {
    throw FidelityError("traced loop reached cycle " + std::to_string(t) +
                        ", past the untraced run's end at " +
                        std::to_string(end));
  }
}

}  // namespace

void Tracer::begin(Layer layer) {
  if (depth_ == static_cast<int>(stack_.size())) {
    throw std::logic_error("Tracer: span stack overflow");
  }
  stack_[depth_++] = Frame{layer, now_ns()};
}

void Tracer::end() {
  const Frame f = stack_[--depth_];
  const std::int64_t d = now_ns() - f.start;
  self_ns[f.layer] += d;
  if (depth_ > 0) self_ns[stack_[depth_ - 1].layer] -= d;
}

bool TimedSource::next(trace::TraceRecord& out) {
  Span s(t_, kTrace);
  ++t_.counts.trace_next;
  return inner_.next(out);
}

TimedMemorySystem::TimedMemorySystem(const sys::SystemConfig& cfg, Tracer& t)
    : sys::MemorySystem(cfg), t_(t) {
  for (auto& ch : channels_) {
    ch = std::make_unique<TimedController>(std::move(ch), t_);
  }
}

bool TimedMemorySystem::can_accept(Addr addr, OpType op) const {
  Span s(t_, kSys);
  const bool ok = MemorySystem::can_accept(addr, op);
  if (!ok) ++t_.counts.sys_accept_rejects;
  return ok;
}

RequestId TimedMemorySystem::submit(Addr addr, OpType op, Cycle now,
                                    std::uint64_t cpu_tag) {
  Span s(t_, kSys);
  return MemorySystem::submit(addr, op, now, cpu_tag);
}

void TimedMemorySystem::tick(Cycle now) {
  Span s(t_, kSys);
  ++t_.counts.sys_tick;
  MemorySystem::tick(now);
}

void TimedMemorySystem::drain_completed(std::vector<mem::MemRequest>& out) {
  Span s(t_, kSys);
  MemorySystem::drain_completed(out);
}

Cycle TimedMemorySystem::next_event(Cycle now) const {
  Span s(t_, kSys);
  ++t_.counts.sys_next_event;
  return MemorySystem::next_event(now);
}

Cycle TimedMemorySystem::completion_bound(Cycle now) const {
  Span s(t_, kSys);
  return MemorySystem::completion_bound(now);
}

Cycle TimedMemorySystem::accept_event(Addr addr) const {
  Span s(t_, kSys);
  return MemorySystem::accept_event(addr);
}

Cycle TimedMemorySystem::advance_until_accept(Addr addr, OpType op,
                                              Cycle limit) {
  Span s(t_, kSys);
  ++t_.counts.sys_advance;
  return MemorySystem::advance_until_accept(addr, op, limit);
}

bool TimedMemorySystem::idle() const {
  Span s(t_, kSys);
  return MemorySystem::idle();
}

void TimedMemorySystem::advance_channels_to(Cycle horizon) {
  Span s(t_, kSys);
  ++t_.counts.sys_advance;
  MemorySystem::advance_channels_to(horizon);
}

void TimedMemorySystem::collect_channel_counts() const {
  for (const auto& ch : channels_) {
    const sched::PhaseStats& p = ch->phase_stats();
    t_.counts.phase_entries += p.retire_phases + p.drain_phases + p.burst_phases;
    t_.counts.phase_ops += p.drain_writes + p.burst_reads;
    t_.counts.issued_ops +=
        ch->stats().counter("cmd.read") + ch->stats().counter("cmd.write");
  }
}

// ------------------------------------------------------------ loop copies
//
// Each body below is runner.cpp's loop with spans added; keep them in step
// with it. The fidelity diff in workloads.cpp fails the traced run when
// they drift apart.

sim::RunResult traced_run_workload(const trace::Trace& trace,
                                   const sys::SystemConfig& cfg, Cycle end,
                                   Tracer& tr) {
  Span root(tr, kSim);
  trace::TraceSource cursor(trace);
  TimedSource source(cursor, tr);
  std::unique_ptr<TimedMemorySystem> mem_ptr;
  {
    Span s(tr, kSys);
    mem_ptr = std::make_unique<TimedMemorySystem>(cfg, tr);
  }
  TimedMemorySystem& mem = *mem_ptr;
  source.reset();
  std::unique_ptr<cpu::RobCpu> core_ptr;
  {
    Span s(tr, kCpu);
    core_ptr = std::make_unique<cpu::RobCpu>(source, cpu::CpuParams{}, mem);
  }
  cpu::RobCpu& core = *core_ptr;
  const bool windows = mem.lazy_scheduling();
  std::vector<mem::MemRequest> done;
  const auto cpu_advance = [&](Cycle from, Cycle to) {
    Span s(tr, kCpu);
    ++tr.counts.cpu_advance_to;
    tr.counts.cpu_jump_cycles += to - from;
    core.advance_to(from, to);
  };

  Cycle t = 0;
  while (!core.finished() || !mem.idle()) {
    if (t >= kMaxMemCycles) {
      throw std::runtime_error("traced run_workload: exceeded max_mem_cycles");
    }
    check_end(t, end);
    ++tr.counts.loop_iters;
    mem.drain_completed(done);
    {
      Span s(tr, kCpu);
      ++tr.counts.cpu_tick;
      core.complete(done);
      core.tick_mem_cycle(t);
    }
    mem.tick(t);
    Cycle next = t + 1;
    cpu::RobCpu::Action act;
    if (!core.finished()) {
      Span s(tr, kCpu);
      ++tr.counts.cpu_next_action;
      act = core.next_action(next);
    }
    if (!(act.kind == cpu::RobCpu::ActionKind::kActs && act.cycle <= next)) {
      bool advanced = false;
      if (windows) {
        Cycle horizon = mem.completion_bound(t);
        if (act.kind == cpu::RobCpu::ActionKind::kBackpressured) {
          horizon = std::min(horizon, mem.accept_event(act.addr));
        } else if (act.kind == cpu::RobCpu::ActionKind::kActs) {
          horizon = std::min(horizon, act.cycle);
        }
        if (horizon != kNeverCycle &&
            std::min(horizon, kMaxMemCycles) > next) {
          next = std::min(horizon, kMaxMemCycles);
          mem.advance_channels_to(next);
          if (!core.finished()) cpu_advance(t + 1, next);
          advanced = true;
        }
      }
      if (!advanced) {
        Cycle event = mem.next_event(t);
        if (act.kind == cpu::RobCpu::ActionKind::kActs) {
          event = std::min(event, act.cycle);
        }
        if (event > next && event != kNeverCycle) {
          next = std::min(event, kMaxMemCycles);
          if (!core.finished()) cpu_advance(t + 1, next);
        }
      }
    }
    t = next;
  }

  sim::RunResult r = finalize(trace.name, mem, t);
  r.instructions = core.instructions_retired();
  r.cpu_cycles = core.cpu_cycles();
  r.ipc = core.ipc();
  r.fetch_stall_cycles = core.fetch_stall_cycles();
  r.backpressure_stalls = core.mem_backpressure_stalls();
  mem.collect_channel_counts();
  tr.counts.ops += r.reads + r.writes;
  return r;
}

sim::RunResult traced_run_memory_only(const trace::Trace& trace,
                                      const sys::SystemConfig& cfg, Cycle end,
                                      Tracer& tr) {
  Span root(tr, kSim);
  trace::TraceSource cursor(trace);
  TimedSource source(cursor, tr);
  std::unique_ptr<TimedMemorySystem> mem_ptr;
  {
    Span s(tr, kSys);
    mem_ptr = std::make_unique<TimedMemorySystem>(cfg, tr);
  }
  TimedMemorySystem& mem = *mem_ptr;
  const bool windows = mem.lazy_scheduling();
  source.reset();
  trace::TraceRecord rec;
  bool pending = source.next(rec);
  std::vector<mem::MemRequest> done;

  Cycle t = 0;
  while (pending || !mem.idle()) {
    if (t >= kMaxMemCycles) {
      throw std::runtime_error(
          "traced run_memory_only: exceeded max_mem_cycles");
    }
    check_end(t, end);
    ++tr.counts.loop_iters;
    mem.drain_completed(done);
    while (pending && mem.can_accept(rec.addr, rec.op)) {
      mem.submit(rec.addr, rec.op, t);
      pending = source.next(rec);
    }
    mem.tick(t);
    Cycle next = t + 1;
    const bool blocked = !pending || !mem.can_accept(rec.addr, rec.op);
    if (blocked) {
      bool advanced = false;
      if (windows && pending) {
        const Cycle resume =
            mem.advance_until_accept(rec.addr, rec.op, kMaxMemCycles);
        if (std::min(resume, kMaxMemCycles) > next) {
          next = std::min(resume, kMaxMemCycles);
          mem.advance_channels_to(next);
          advanced = true;
        }
      }
      if (!advanced) {
        const Cycle event = mem.next_event(t);
        if (event > next && event != kNeverCycle) {
          next = std::min(event, kMaxMemCycles);
        }
      }
    }
    t = next;
  }
  sim::RunResult r = finalize(trace.name, mem, t);
  mem.collect_channel_counts();
  tr.counts.ops += r.reads + r.writes;
  return r;
}

sim::MultiProgramResult traced_run_multiprogrammed(
    const std::vector<trace::RecordSource*>& sources,
    const sys::SystemConfig& cfg, Cycle end, Tracer& tr) {
  using ActionKind = cpu::RobCpu::ActionKind;
  Span root(tr, kSim);
  const std::size_t n = sources.size();
  std::vector<std::unique_ptr<TimedSource>> timed;
  timed.reserve(n);
  for (trace::RecordSource* s : sources) {
    timed.push_back(std::make_unique<TimedSource>(*s, tr));
  }
  std::unique_ptr<TimedMemorySystem> mem_ptr;
  {
    Span s(tr, kSys);
    mem_ptr = std::make_unique<TimedMemorySystem>(cfg, tr);
  }
  TimedMemorySystem& mem = *mem_ptr;
  if (mem.observer() != nullptr) {
    throw std::logic_error("traced run_multiprogrammed: observer unsupported");
  }
  std::vector<std::unique_ptr<cpu::RobCpu>> cores;
  cores.reserve(n);
  {
    Span s(tr, kCpu);
    for (std::size_t i = 0; i < n; ++i) {
      timed[i]->reset();
      cores.push_back(
          std::make_unique<cpu::RobCpu>(*timed[i], cpu::CpuParams{}, mem, i));
    }
  }

  constexpr std::uint32_t kNpos = ~std::uint32_t{0};
  std::vector<std::vector<mem::MemRequest>> per_core(n);
  std::vector<std::uint32_t> touched;
  std::vector<mem::MemRequest> done;
  std::vector<Cycle> due(n, 0);
  std::vector<Cycle> synced(n, 0);
  std::vector<cpu::RobCpu::Action> acts(n);
  std::vector<std::uint8_t> stamp(n, 0);
  std::vector<std::uint32_t> woken_list;
  std::vector<std::uint32_t> due_now;
  std::vector<std::uint32_t> bp_list;
  std::vector<std::uint32_t> bp_pos(n, kNpos);
  sim::WakeCalendar cal;
  cal.reset(n);

  const auto route_completions = [&]() {
    for (const std::uint32_t i : touched) per_core[i].clear();
    touched.clear();
    mem.drain_completed(done);
    for (const mem::MemRequest& r : done) {
      if (r.is_read() && r.cpu_tag < n) {
        if (per_core[r.cpu_tag].empty()) {
          touched.push_back(static_cast<std::uint32_t>(r.cpu_tag));
        }
        per_core[r.cpu_tag].push_back(r);
      }
    }
  };
  const auto catch_up = [&](std::size_t i, Cycle c) {
    if (synced[i] < c) {
      Span s(tr, kCpu);
      ++tr.counts.cpu_advance_to;
      tr.counts.cpu_jump_cycles += c - synced[i];
      cores[i]->advance_to(synced[i], c);
      synced[i] = c;
    }
  };
  const auto bp_remove = [&](std::uint32_t i) {
    const std::uint32_t pos = bp_pos[i];
    if (pos == kNpos) return;
    const std::uint32_t last = bp_list.back();
    bp_list[pos] = last;
    bp_pos[last] = pos;
    bp_list.pop_back();
    bp_pos[i] = kNpos;
  };
  for (std::uint32_t i = 0; i < n; ++i) cal.schedule(i, 0);

  const bool windows = mem.lazy_scheduling();
  std::size_t unfinished = n;
  Cycle t = 0;
  while (unfinished > 0 || !mem.idle()) {
    if (t >= kMaxMemCycles) {
      throw std::runtime_error(
          "traced run_multiprogrammed: exceeded max_mem_cycles");
    }
    check_end(t, end);
    ++tr.counts.loop_iters;
    route_completions();
    woken_list.clear();
    for (const std::uint32_t i : touched) {
      if (!cores[i]->finished() && !stamp[i]) {
        stamp[i] = 1;
        woken_list.push_back(i);
      }
    }
    due_now.clear();
    cal.collect_due(t, due_now);
    tr.counts.wake_due += due_now.size();
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
      if (!per_core[i].empty()) {
        catch_up(i, t);
        Span s(tr, kCpu);
        cores[i]->complete(per_core[i]);
      }
      catch_up(i, t);
      {
        Span s(tr, kCpu);
        ++tr.counts.cpu_tick;
        cores[i]->tick_mem_cycle(t);
      }
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
      {
        Span s(tr, kCpu);
        ++tr.counts.cpu_next_action;
        acts[i] = cores[i]->next_action(t + 1);
      }
      if (acts[i].kind == ActionKind::kActs) {
        cal.schedule(i, acts[i].cycle);
        bp_remove(i);
      } else if (acts[i].kind == ActionKind::kBackpressured) {
        cal.cancel(i);
        if (bp_pos[i] == kNpos) {
          bp_pos[i] = static_cast<std::uint32_t>(bp_list.size());
          bp_list.push_back(i);
        }
      } else {
        cal.cancel(i);
        bp_remove(i);
      }
    }
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
      const Cycle horizon = std::min(mem.completion_bound(t), min_due);
      if (horizon != kNeverCycle && std::min(horizon, kMaxMemCycles) > next) {
        next = std::min(horizon, kMaxMemCycles);
        mem.advance_channels_to(next);
        advanced = true;
      }
    }
    if (!advanced) {
      const Cycle event = std::min(mem.next_event(t), min_due);
      if (event > next && event != kNeverCycle) {
        next = std::min(event, kMaxMemCycles);
      }
    }
    cal.advance_to(next);
    t = next;
  }

  sim::MultiProgramResult r;
  r.mem_cycles = t;
  r.energy = mem.energy(t);
  r.controller = mem.controller_stats();
  for (std::size_t i = 0; i < n; ++i) {
    r.workloads.push_back(sources[i]->name());
    r.ipc.push_back(cores[i]->ipc());
    r.cpu_cycles.push_back(cores[i]->cpu_cycles());
  }
  mem.collect_channel_counts();
  tr.counts.ops += mem.submitted_reads() + mem.submitted_writes();
  return r;
}

// ------------------------------------------------------------ metrics

std::vector<LayerMetric> layer_metrics(const Tracer& t) {
  const LayerCounts& c = t.counts;
  const double ops = c.ops == 0 ? 1.0 : static_cast<double>(c.ops);
  const auto per_op = [&](std::uint64_t v) {
    return static_cast<double>(v) / ops;
  };
  const auto ratio = [](double num, std::uint64_t den) {
    return den == 0 ? 0.0 : num / static_cast<double>(den);
  };
  const auto self = [&](Layer l) {
    return static_cast<double>(t.self_ns[l]) / ops;
  };
  return {
      {"trace.next.calls_per_op", per_op(c.trace_next)},
      {"trace.next.ns_per_call",
       ratio(static_cast<double>(t.self_ns[kTrace]), c.trace_next)},
      {"cpu.tick.calls_per_op", per_op(c.cpu_tick)},
      {"cpu.next_action.calls_per_op", per_op(c.cpu_next_action)},
      {"cpu.advance_to.calls_per_op", per_op(c.cpu_advance_to)},
      {"cpu.cycles_per_jump",
       ratio(static_cast<double>(c.cpu_jump_cycles), c.cpu_advance_to)},
      {"cpu.self_ns_per_op", self(kCpu)},
      {"sim.loop_iters_per_op", per_op(c.loop_iters)},
      {"sim.wake.due_per_iter",
       ratio(static_cast<double>(c.wake_due), c.loop_iters)},
      {"sim.self_ns_per_op", self(kSim)},
      {"sys.tick.calls_per_op", per_op(c.sys_tick)},
      {"sys.next_event.calls_per_op", per_op(c.sys_next_event)},
      {"sys.advance.calls_per_op", per_op(c.sys_advance)},
      {"sys.accept_rejects_per_op", per_op(c.sys_accept_rejects)},
      {"sys.self_ns_per_op", self(kSys)},
      {"sched.tick.calls_per_op", per_op(c.sched_tick)},
      {"sched.next_event.calls_per_op", per_op(c.sched_next_event)},
      {"sched.advance.calls_per_op", per_op(c.sched_advance)},
      {"sched.self_ns_per_op", self(kSched)},
      {"sched.phase.entries_per_op", per_op(c.phase_entries)},
      {"sched.phase.ops_frac",
       ratio(static_cast<double>(c.phase_ops), c.issued_ops)},
  };
}

}  // namespace fgbench
