#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "common/stats.hpp"
#include "sim/runner.hpp"
#include "sys/presets.hpp"
#include "trace/generator.hpp"
#include "trace/spec_profiles.hpp"

namespace fgbench {

using namespace fgnvm;

namespace {

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr Cycle kMaxMemCycles = 500'000'000;

/// Makes the output check fail: any stat the diff compares will do.
void corrupt(sim::RunResult& r) { r.mem_cycles += 1; }

/// Diffs `got` against `want` and records a failure of `ops` ops.
void check(const std::string& what, const std::string& diff,
           std::uint64_t ops, Rep& rep) {
  if (diff.empty()) return;
  rep.failed += ops;
  rep.errors.push_back(what + ": " + diff);
}

// ------------------------------------------------------------------ fig4

/// The paper's Fig. 4 experiment: 12 profiles, one core, one channel, each
/// on the baseline and on FgNVM 4x4.
class Fig4 final : public Workload {
 public:
  explicit Fig4(const Options& opt)
      : opt_(opt), ops_(scaled(kOps, opt.scale)) {}

  void setup() override {
    traces_.clear();
    for (trace::WorkloadProfile p : trace::spec2006_profiles()) {
      p.seed = reseed(p.seed, opt_.seed);
      traces_.push_back(trace::generate_trace(p, ops_));
    }
    configs_ = {sys::baseline_config(), sys::fgnvm_config(4, 4)};
    for (const sys::SystemConfig& c : configs_) (void)sys::MemorySystem(c);
  }

  void reference(bool corrupt_ref) override {
    ref_ = run_all(sim::LoopMode::kCycleAccurate);
    if (corrupt_ref) {
      for (sim::RunResult& r : ref_) corrupt(r);
    }
  }

  Rep run() override {
    Rep rep;
    const auto t0 = Clock::now();
    std::vector<sim::RunResult> got = run_all(sim::LoopMode::kEventSkip);
    rep.secs = secs_since(t0);
    for (std::size_t i = 0; i < got.size(); ++i) {
      const std::uint64_t ops = got[i].reads + got[i].writes;
      rep.ops += ops;
      rep.insts += got[i].instructions;
      check(label(i), sim::diff_results(got[i], ref_[i]), ops, rep);
    }
    untraced_ = std::move(got);
    return rep;
  }

  TracedRep traced() override {
    Tracer t;
    const auto t0 = Clock::now();
    std::vector<sim::RunResult> got;
    for (const trace::Trace& tr : traces_) {
      for (const sys::SystemConfig& c : configs_) {
        got.push_back(traced_run_workload(
            tr, c, untraced_[got.size()].mem_cycles, t));
      }
    }
    TracedRep out;
    out.secs = secs_since(t0);
    for (std::size_t i = 0; i < got.size(); ++i) {
      const std::string diff = sim::diff_results(got[i], untraced_[i]);
      if (!diff.empty()) {
        throw FidelityError("traced run_workload of " + label(i) +
                            " diverged from sim::run_workload: " + diff);
      }
    }
    out.metrics = layer_metrics(t);
    out.counts = t.counts;
    return out;
  }

  std::vector<Metric> sim_metrics() const override {
    std::vector<double> speedup, energy;
    for (std::size_t i = 0; i + 1 < ref_.size(); i += 2) {
      const sim::RunResult& base = ref_[i];
      const sim::RunResult& fg = ref_[i + 1];
      speedup.push_back(fg.ipc / base.ipc);
      energy.push_back(fg.energy_per_op_pj() / base.energy_per_op_pj());
    }
    const double s = arithmetic_mean(speedup);
    return {{"sim_ipc_speedup", s, "ratio"},
            {"sim_ipc_speedup_err", std::fabs(s - kPaperSpeedup), "ratio"},
            {"sim_energy_ratio", arithmetic_mean(energy), "ratio"}};
  }

  std::string describe() const override {
    return std::to_string(traces_.size()) + " profiles x " +
           std::to_string(ops_) + " ops, baseline + fgnvm 4x4, 1 channel, " +
           "sim::run_workload";
  }

 private:
  static constexpr std::uint64_t kOps = 3000;
  /// Fig. 4 headline: FgNVM averages a 56.5% IPC improvement.
  static constexpr double kPaperSpeedup = 1.565;

  std::vector<sim::RunResult> run_all(sim::LoopMode mode) const {
    std::vector<sim::RunResult> out;
    out.reserve(traces_.size() * configs_.size());
    for (const trace::Trace& tr : traces_) {
      for (const sys::SystemConfig& c : configs_) {
        out.push_back(sim::run_workload(tr, c, {}, kMaxMemCycles, mode));
      }
    }
    return out;
  }
  std::string label(std::size_t i) const {
    return traces_[i / configs_.size()].name + " / " +
           configs_[i % configs_.size()].name;
  }

  Options opt_;
  std::uint64_t ops_;
  std::vector<trace::Trace> traces_;
  std::vector<sys::SystemConfig> configs_;
  std::vector<sim::RunResult> ref_;
  std::vector<sim::RunResult> untraced_;
};

// --------------------------------------------------------------- tenants

/// 256 low-duty wrf tenants on 4-channel FgNVM 4x4 through per-core
/// TraceSource cursors (perf_smoke's multicore_256 mix).
class Tenants final : public Workload {
 public:
  explicit Tenants(const Options& opt)
      : opt_(opt), ops_(scaled(kOpsPerTenant, opt.scale)) {}

  void setup() override {
    traces_.clear();
    const trace::WorkloadProfile wrf = trace::spec2006_profile("wrf");
    for (std::uint64_t v = 0; v < kDistinct; ++v) {
      trace::WorkloadProfile p = wrf;
      p.name = "tenant" + std::to_string(v);
      p.mpki = 25.6 / static_cast<double>(kTenants);
      p.seed = reseed(211 + v, opt_.seed);
      traces_.push_back(trace::generate_trace(p, ops_));
    }
    cursors_.clear();
    cursors_.reserve(kTenants);
    sources_.clear();
    for (std::uint64_t i = 0; i < kTenants; ++i) {
      cursors_.emplace_back(traces_[i % kDistinct]);
      sources_.push_back(&cursors_.back());
    }
    cfg_ = sys::fgnvm_config(4, 4);
    cfg_.geometry.channels = 4;
    cfg_.geometry.validate();
    (void)sys::MemorySystem(cfg_);
  }

  void reference(bool corrupt_ref) override {
    ref_ = sim::run_multiprogrammed(sources_, cfg_, {}, kMaxMemCycles,
                                    sim::LoopMode::kCycleAccurate);
    if (corrupt_ref) ref_.mem_cycles += 1;
  }

  Rep run() override {
    Rep rep;
    const auto t0 = Clock::now();
    sim::MultiProgramResult got = sim::run_multiprogrammed(
        sources_, cfg_, {}, kMaxMemCycles, sim::LoopMode::kEventSkip);
    rep.secs = secs_since(t0);
    for (const trace::RecordSource* s : sources_) {
      rep.ops += s->memory_ops();
      rep.insts += s->total_instructions();
    }
    check("tenants", sim::diff_results(got, ref_), rep.ops, rep);
    untraced_ = std::move(got);
    return rep;
  }

  TracedRep traced() override {
    Tracer t;
    const auto t0 = Clock::now();
    const sim::MultiProgramResult got =
        traced_run_multiprogrammed(sources_, cfg_, untraced_.mem_cycles, t);
    TracedRep out;
    out.secs = secs_since(t0);
    const std::string diff = sim::diff_results(got, untraced_);
    if (!diff.empty()) {
      throw FidelityError(
          "traced run_multiprogrammed diverged from sim::run_multiprogrammed: " +
          diff);
    }
    out.metrics = layer_metrics(t);
    out.counts = t.counts;
    return out;
  }

  std::vector<Metric> sim_metrics() const override { return {}; }

  std::string describe() const override {
    return std::to_string(kTenants) + " tenants (" +
           std::to_string(kDistinct) + " wrf seeds rotated, MPKI 0.1) x " +
           std::to_string(ops_) +
           " ops, fgnvm 4x4, 4 channels, sim::run_multiprogrammed";
  }

 private:
  static constexpr std::uint64_t kTenants = 256;
  static constexpr std::uint64_t kDistinct = 16;
  static constexpr std::uint64_t kOpsPerTenant = 160;

  Options opt_;
  std::uint64_t ops_;
  std::vector<trace::Trace> traces_;
  std::vector<trace::TraceSource> cursors_;
  std::vector<trace::RecordSource*> sources_;
  sys::SystemConfig cfg_;
  sim::MultiProgramResult ref_;
  sim::MultiProgramResult untraced_;
};

// ----------------------------------------------------------------- drain

/// Memory-only, write-heavy mcf on a deep-queue 8x8 FgNVM with 4 channels.
class Drain final : public Workload {
 public:
  explicit Drain(const Options& opt)
      : opt_(opt), ops_(scaled(kOps, opt.scale)) {}

  void setup() override {
    trace::WorkloadProfile p = trace::spec2006_profile("mcf");
    p.name = "write_drain";
    p.write_fraction = 0.8;
    p.seed = reseed(p.seed, opt_.seed);
    trace_ = trace::generate_trace(p, ops_);
    cfg_ = sys::fgnvm_config(8, 8);
    cfg_.geometry.channels = 4;
    cfg_.geometry.validate();
    cfg_.controller.read_queue_cap = 64;
    cfg_.controller.write_queue_cap = 128;
    cfg_.controller.wq_high = 64;
    cfg_.controller.wq_low = 16;
    (void)sys::MemorySystem(cfg_);
  }

  void reference(bool corrupt_ref) override {
    ref_ = sim::run_memory_only(trace_, cfg_, kMaxMemCycles,
                                sim::LoopMode::kCycleAccurate);
    if (corrupt_ref) corrupt(ref_);
  }

  Rep run() override {
    Rep rep;
    const auto t0 = Clock::now();
    sim::RunResult got = sim::run_memory_only(trace_, cfg_, kMaxMemCycles,
                                              sim::LoopMode::kEventSkip);
    rep.secs = secs_since(t0);
    rep.ops = got.reads + got.writes;
    check("drain", sim::diff_results(got, ref_), rep.ops, rep);
    untraced_ = std::move(got);
    return rep;
  }

  TracedRep traced() override {
    Tracer t;
    const auto t0 = Clock::now();
    const sim::RunResult got =
        traced_run_memory_only(trace_, cfg_, untraced_.mem_cycles, t);
    TracedRep out;
    out.secs = secs_since(t0);
    const std::string diff = sim::diff_results(got, untraced_);
    if (!diff.empty()) {
      throw FidelityError(
          "traced run_memory_only diverged from sim::run_memory_only: " + diff);
    }
    out.metrics = layer_metrics(t);
    out.counts = t.counts;
    return out;
  }

  std::vector<Metric> sim_metrics() const override {
    return {{"sim_read_latency_p99_cycles", ref_.p99_read_latency, "cycles"}};
  }

  std::string describe() const override {
    return "mcf at 80% writes x " + std::to_string(ops_) +
           " ops, fgnvm 8x8, 4 channels, queues 64/128, watermarks 64/16, "
           "sim::run_memory_only";
  }

 private:
  static constexpr std::uint64_t kOps = 20000;

  Options opt_;
  std::uint64_t ops_;
  trace::Trace trace_;
  sys::SystemConfig cfg_;
  sim::RunResult ref_;
  sim::RunResult untraced_;
};

}  // namespace

std::uint64_t scaled(std::uint64_t ops, double scale) {
  return std::max<std::uint64_t>(
      16, static_cast<std::uint64_t>(static_cast<double>(ops) * scale));
}

std::uint64_t reseed(std::uint64_t profile_seed, std::uint64_t workload_seed) {
  return profile_seed + (workload_seed - 1) * 0x9E3779B97F4A7C15ULL;
}

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "fig4") return std::make_unique<Fig4>(opt);
  if (opt.workload == "tenants") return std::make_unique<Tenants>(opt);
  if (opt.workload == "drain") return std::make_unique<Drain>(opt);
  if (opt.workload == "serve") return make_serve_workload(opt);
  throw std::invalid_argument("unknown workload '" + opt.workload +
                              "' (fig4, tenants, drain, serve)");
}

}  // namespace fgbench
