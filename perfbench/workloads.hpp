// The benchmark's four workloads behind one interface. RATIONALE.md says
// why each was chosen and which layer metrics it should move.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "layers.hpp"

namespace fgbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Perturbs every reference result, so the output check must fail.
  bool corrupt_reference = false;
  /// Multiplies every op count (the benchmark's own tests use small ones).
  double scale = 1.0;
  std::string commit = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One timed repetition of a workload's work, already checked.
struct Rep {
  double secs = 0.0;
  std::uint64_t ops = 0;    ///< memory ops (serve: R/W request frames)
  std::uint64_t insts = 0;  ///< simulated instructions retired (0: no core)
  std::uint64_t failed = 0; ///< ops counted as failed by the output check
  std::vector<std::string> errors;
  /// serve only: per-frame host latencies of this repetition, in us.
  std::vector<double> latency_us;
};

/// One traced repetition.
struct TracedRep {
  double secs = 0.0;
  std::vector<LayerMetric> metrics;
  /// Work counts that must repeat exactly between traced repetitions.
  LayerCounts counts;
  bool counts_repeat = true;  ///< false where counts depend on thread timing
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs from the seed and builds the simulated systems
  /// once. The benchmark times several calls; the last one's inputs are used.
  virtual void setup() = 0;
  /// Computes the output-check reference (untimed, once per invocation).
  virtual void reference(bool corrupt) = 0;
  /// One timed repetition, checked against the reference after timing.
  virtual Rep run() = 0;
  /// One traced repetition, diffed against the result of the last run(),
  /// which must have been called before.
  virtual TracedRep traced() = 0;
  /// Deterministic simulated metrics, from the reference run.
  virtual std::vector<Metric> sim_metrics() const = 0;
  /// One line describing the workload's inputs for the report.
  virtual std::string describe() const = 0;
};

std::unique_ptr<Workload> make_workload(const Options& opt);

// Shared with serve.cpp.
/// The workload seed mapped onto a profile's own seed. Seed 1 keeps the
/// repo's profile seeds.
std::uint64_t reseed(std::uint64_t profile_seed, std::uint64_t workload_seed);
/// `ops` times Options::scale, at least 16.
std::uint64_t scaled(std::uint64_t ops, double scale);

std::unique_ptr<Workload> make_serve_workload(const Options& opt);

}  // namespace fgbench
