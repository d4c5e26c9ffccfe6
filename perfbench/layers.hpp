// Per-layer measurement from outside the simulator.
//
// Nothing here reaches into src/: every number comes from timing and
// counting calls into a layer's public functions.
//  * TimedSource decorates a trace::RecordSource (layer `trace`).
//  * TimedMemorySystem is a sys::MemorySystem subclass that overrides the
//    virtual driver entry points (layer `sys`) and swaps a TimedController
//    forwarder into each of its protected channels_ (layer `sched`), so
//    controller time is split out of MemorySystem time.
//  * The traced_* functions are copies of the runner loops in
//    src/sim/runner.cpp (run_workload_loop, run_memory_only_loop and the
//    wake-calendar path of run_multiprogrammed_loop), built from public
//    calls only, with spans around each call into `cpu` and `sys`. The
//    loop's own code is layer `sim`.
// A layer's self time is its spans' time minus the time of the spans nested
// in them. Each traced run must reproduce the untraced run's simulated
// result exactly (the caller diffs them); otherwise it measures a different
// program.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "cpu/rob_cpu.hpp"
#include "sim/runner.hpp"
#include "sys/memory_system.hpp"
#include "trace/stream.hpp"

namespace fgbench {

enum Layer : int { kSim = 0, kCpu, kTrace, kSys, kSched, kNumLayers };

/// Work counts of one traced run. All are deterministic for a given input:
/// two traced runs of the same seed must produce equal counts.
struct LayerCounts {
  std::uint64_t ops = 0;  ///< memory ops the run submitted
  std::uint64_t trace_next = 0;
  std::uint64_t cpu_tick = 0;
  std::uint64_t cpu_next_action = 0;
  std::uint64_t cpu_advance_to = 0;
  std::uint64_t cpu_jump_cycles = 0;  ///< memory cycles skipped by advance_to
  std::uint64_t loop_iters = 0;
  std::uint64_t wake_due = 0;  ///< cores the wake calendar reported due
  std::uint64_t sys_tick = 0;
  std::uint64_t sys_next_event = 0;
  std::uint64_t sys_advance = 0;  ///< advance_channels_to + advance_until_accept
  std::uint64_t sys_accept_rejects = 0;  ///< can_accept() == false
  std::uint64_t sched_tick = 0;
  std::uint64_t sched_next_event = 0;
  std::uint64_t sched_advance = 0;  ///< advance_to + advance_until_accept
  std::uint64_t phase_entries = 0;  ///< analytic phases entered
  std::uint64_t phase_ops = 0;      ///< commands issued inside phases
  std::uint64_t issued_ops = 0;     ///< read + write column commands

  friend bool operator==(const LayerCounts&, const LayerCounts&) = default;
};

/// Span accounting for one traced run (single-threaded).
class Tracer {
 public:
  void begin(Layer layer);
  void end();

  /// Self time per layer, in ns.
  std::array<std::int64_t, kNumLayers> self_ns{};
  LayerCounts counts;

 private:
  struct Frame {
    Layer layer;
    std::int64_t start;
  };
  std::array<Frame, 16> stack_{};
  int depth_ = 0;
};

class Span {
 public:
  Span(Tracer& t, Layer layer) : t_(t) { t_.begin(layer); }
  ~Span() { t_.end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
};

/// Times every next() of the wrapped source.
class TimedSource final : public fgnvm::trace::RecordSource {
 public:
  TimedSource(fgnvm::trace::RecordSource& inner, Tracer& t)
      : inner_(inner), t_(t) {}
  const std::string& name() const override { return inner_.name(); }
  std::uint64_t memory_ops() const override { return inner_.memory_ops(); }
  std::uint64_t tail_icount() const override { return inner_.tail_icount(); }
  std::uint64_t total_instructions() const override {
    return inner_.total_instructions();
  }
  bool next(fgnvm::trace::TraceRecord& out) override;
  void reset() override { inner_.reset(); }

 private:
  fgnvm::trace::RecordSource& inner_;
  Tracer& t_;
};

/// MemorySystem whose driver entry points and channel controllers are
/// timed. advance_channels_to is not virtual in the base; this class hides
/// it, which is enough because the traced loops call it through this type.
class TimedMemorySystem final : public fgnvm::sys::MemorySystem {
 public:
  TimedMemorySystem(const fgnvm::sys::SystemConfig& cfg, Tracer& t);

  bool can_accept(fgnvm::Addr addr, fgnvm::OpType op) const override;
  fgnvm::RequestId submit(fgnvm::Addr addr, fgnvm::OpType op, fgnvm::Cycle now,
                          std::uint64_t cpu_tag = 0) override;
  void tick(fgnvm::Cycle now) override;
  void drain_completed(std::vector<fgnvm::mem::MemRequest>& out) override;
  fgnvm::Cycle next_event(fgnvm::Cycle now) const override;
  fgnvm::Cycle completion_bound(fgnvm::Cycle now) const override;
  fgnvm::Cycle accept_event(fgnvm::Addr addr) const override;
  fgnvm::Cycle advance_until_accept(fgnvm::Addr addr, fgnvm::OpType op,
                                    fgnvm::Cycle limit) override;
  bool idle() const override;
  void advance_channels_to(fgnvm::Cycle horizon);

  /// Adds the channels' phase-engine and issue counts to t.counts.
  void collect_channel_counts() const;

 private:
  Tracer& t_;
};

/// Thrown when a traced copy does not reproduce the untraced run.
struct FidelityError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// The traced copies below take `end`, the mem_cycles of the untraced run of
// the same input: a faithful copy never runs past it, so one that does has
// diverged and throws FidelityError instead of running on.

/// Traced copy of run_workload_loop (skip mode).
fgnvm::sim::RunResult traced_run_workload(
    const fgnvm::trace::Trace& trace, const fgnvm::sys::SystemConfig& cfg,
    fgnvm::Cycle end, Tracer& t);

/// Traced copy of run_memory_only_loop (skip mode).
fgnvm::sim::RunResult traced_run_memory_only(
    const fgnvm::trace::Trace& trace, const fgnvm::sys::SystemConfig& cfg,
    fgnvm::Cycle end, Tracer& t);

/// Traced copy of the wake-calendar path of run_multiprogrammed_loop.
fgnvm::sim::MultiProgramResult traced_run_multiprogrammed(
    const std::vector<fgnvm::trace::RecordSource*>& sources,
    const fgnvm::sys::SystemConfig& cfg, fgnvm::Cycle end, Tracer& t);

/// Per-op / per-call ratios of one traced run, keyed by the metric names
/// the benchmark publishes (see BENCHMARK.json).
struct LayerMetric {
  const char* name;
  double value;
};
std::vector<LayerMetric> layer_metrics(const Tracer& t);

}  // namespace fgbench
