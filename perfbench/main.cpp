// fgbench: the repo benchmark program. run.py builds it and passes its own
// command line through; RATIONALE.md explains the workloads and the metrics.
//
//   fgbench --workload fig4|tenants|drain|serve [--seed N] [--seconds S]
//           [--trace 0|1] [--scale X] [--commit ID] [--corrupt-reference]
//
// --trace 0 times the workload untraced and prints the end-to-end metrics;
// --trace 1 alternates untraced and traced repetitions and prints the
// per-layer metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every output check passed.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "workloads.hpp"

extern char** environ;

namespace {

using namespace fgbench;
using Clock = std::chrono::steady_clock;

/// The end-to-end metrics of BENCHMARK.json: meaningful and non-zero on
/// every workload. The workload-specific ones are printed in the report.
const std::string kGatedEndToEnd[] = {"ops_per_s", "setup_s", "peak_rss_mib"};

/// The per-layer metrics of BENCHMARK.json, in report order. A layer a
/// workload does not exercise reports 0.
struct NamedUnit {
  const char* name;
  const char* unit;
};
const NamedUnit kLayerMetrics[] = {
    {"trace.next.calls_per_op", "count"},
    {"trace.next.ns_per_call", "ns"},
    {"cpu.tick.calls_per_op", "count"},
    {"cpu.next_action.calls_per_op", "count"},
    {"cpu.advance_to.calls_per_op", "count"},
    {"cpu.cycles_per_jump", "cycles"},
    {"cpu.self_ns_per_op", "ns"},
    {"sim.loop_iters_per_op", "count"},
    {"sim.wake.due_per_iter", "count"},
    {"sim.self_ns_per_op", "ns"},
    {"sys.tick.calls_per_op", "count"},
    {"sys.next_event.calls_per_op", "count"},
    {"sys.advance.calls_per_op", "count"},
    {"sys.accept_rejects_per_op", "count"},
    {"sys.self_ns_per_op", "ns"},
    {"sched.tick.calls_per_op", "count"},
    {"sched.next_event.calls_per_op", "count"},
    {"sched.advance.calls_per_op", "count"},
    {"sched.self_ns_per_op", "ns"},
    {"sched.phase.entries_per_op", "count"},
    {"sched.phase.ops_frac", "fraction"},
    {"tile.worker_cpu_ns_per_op", "ns"},
    {"tile.ingress_empty_frac", "fraction"},
    {"tile.egress_stalls_per_op", "count"},
    {"tile.idle_spins_per_op", "count"},
    {"tile.advance_calls_per_op", "count"},
    {"front.cpu_ns_per_frame", "ns"},
    {"front.busy_frames_per_op", "count"},
    {"front.parks_per_op", "count"},
    {"front.park_ns_per_op", "ns"},
    {"trace_overhead_frac", "fraction"},
};

constexpr int kMinReps = 5;
constexpr double kRatePercentile = 0.95;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "fgbench: " << why << "\n"
            << "usage: fgbench --workload fig4|tenants|drain|serve "
               "[--seed N] [--seconds S] [--trace 0|1] [--scale X] "
               "[--commit ID] [--corrupt-reference]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        const std::string v = value();
        if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
          usage("--seed must be a non-negative integer");
        }
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
        if (!(o.seconds > 0.0 && o.seconds <= 600.0)) usage("bad --seconds");
      } else if (a == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace must be 0 or 1");
        o.trace = v == "1";
      } else if (a == "--scale") {
        o.scale = std::stod(value());
        if (!(o.scale > 0.0 && o.scale <= 100.0)) usage("bad --scale");
      } else if (a == "--commit") {
        o.commit = value();
      } else if (a == "--corrupt-reference") {
        o.corrupt_reference = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

/// The FGNVM_* switches (paranoid double runs, A/B fallbacks, thread
/// counts) change what a run does; the benchmark measures the defaults.
void clear_simulator_env() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("FGNVM_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& n : names) ::unsetenv(n.c_str());
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0 && line.find(": ") != std::string::npos) {
      return line.substr(line.find(": ") + 2);
    }
  }
  return "unknown";
}

std::string load_average() {
  std::ifstream in("/proc/loadavg");
  std::string l1, l5, l15;
  if (!(in >> l1 >> l5 >> l15)) return "unknown";
  return l1 + " " + l5 + " " + l15;
}

std::string host_line(const Options& o) {
  std::ostringstream os;
  os << "# host: nproc=" << std::thread::hardware_concurrency() << " cpu=\""
     << cpu_model() << "\" loadavg=\"" << load_average()
     << "\" build=" << FGBENCH_BUILD_TYPE << " commit=" << o.commit;
  return os.str();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// VmHWM of this process image. getrusage's ru_maxrss is not used: Linux
/// carries the pre-exec high-water mark over into it, which would report
/// the launching Python's footprint.
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the line is in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_line(const std::string& workload, const Metric& m,
                const std::string& note) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-8s %-30s %16.6g %-9s", workload.c_str(),
                m.name.c_str(), m.value, m.unit.c_str());
  std::cout << buf << (note.empty() ? "" : "  " + note) << "\n";
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  void add(const Rep& r) {
    attempted += r.ops;
    failed += r.failed;
    for (const std::string& e : r.errors) {
      if (errors.size() < 8) errors.push_back(e);
    }
  }
};

int run(const Options& opt) {
  std::cout << "# fgbench: workload=" << opt.workload << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << (opt.trace ? 1 : 0)
            << (opt.corrupt_reference ? " corrupt-reference" : "") << "\n"
            << host_line(opt) << "\n";
  const std::unique_ptr<Workload> w = make_workload(opt);

  // Set-up is timed once here and again before every timed run after the
  // first (at least kMinReps times), so its median samples the whole run
  // rather than one moment of a shared host.
  std::vector<double> setups;
  const auto timed_setup = [&] {
    const auto t0 = Clock::now();
    w->setup();
    setups.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  };
  timed_setup();
  std::cout << "# input: " << w->describe() << "\n";
  w->reference(opt.corrupt_reference);

  Tally tally;
  std::vector<std::pair<Metric, std::string>> report;  // metric, note
  const auto put = [&](const Metric& m, const std::string& note) {
    report.emplace_back(m, note);
  };
  const auto deadline = Clock::now() + std::chrono::duration_cast<
      Clock::duration>(std::chrono::duration<double>(opt.seconds));

  if (!opt.trace) {
    std::vector<Rep> reps;
    double rss = 0.0;
    // Once a run has failed the result is known; stop rather than repeat it.
    while ((reps.size() < kMinReps || Clock::now() < deadline) &&
           tally.failed == 0) {
      if (!reps.empty()) timed_setup();
      reps.push_back(w->run());
      tally.add(reps.back());
      // The workload's own peak: the repeated set-ups that follow only
      // churn the allocator.
      if (reps.size() == 1) rss = peak_rss_mib();
    }
    std::vector<double> ops_rate, inst_rate, p50, p99;
    std::size_t samples = 0;
    for (const Rep& r : reps) {
      ops_rate.push_back(static_cast<double>(r.ops) / r.secs);
      inst_rate.push_back(static_cast<double>(r.insts) / r.secs);
      if (!r.latency_us.empty()) {
        p50.push_back(percentile(r.latency_us, 0.50));
        p99.push_back(percentile(r.latency_us, 0.99));
        samples += r.latency_us.size();
      }
    }
    const std::string nreps = std::to_string(reps.size());
    put({"setup_s", median(setups), "s"},
        "median of " + std::to_string(setups.size()) + " set-ups");
    // A shared host's neighbours only ever slow a run, for seconds at a
    // time; the 95th percentile over many short runs is the rate the host
    // delivers when left alone, and stays put between invocations where the
    // median does not (RATIONALE.md, Estimator).
    const std::string rate_note = "95th percentile of " + nreps + " timed runs";
    put({"ops_per_s", percentile(ops_rate, kRatePercentile), "1/s"},
        rate_note);
    if (reps.front().insts != 0) {
      put({"sim_inst_per_s", percentile(inst_rate, kRatePercentile), "1/s"},
          rate_note);
    }
    if (!p50.empty()) {
      const std::string note = "median over " + nreps + " sessions of " +
                               std::to_string(samples / reps.size()) +
                               " frames; " + std::to_string(samples) +
                               " samples";
      put({"latency_us_p50", median(p50), "us"}, note);
      put({"latency_us_p99", median(p99), "us"}, note);
    }
    put({"peak_rss_mib", rss, "MiB"},
        "VmHWM after set-up, reference and one timed run");
    put({"fail_frac",
         static_cast<double>(tally.failed) /
             static_cast<double>(std::max<std::uint64_t>(tally.attempted, 1)),
         "fraction"},
        std::to_string(tally.failed) + " of " +
            std::to_string(tally.attempted) + " ops");
    for (const Metric& m : w->sim_metrics()) {
      put(m, "deterministic, from the reference run");
    }
  } else {
    std::vector<double> plain_secs, traced_secs;
    std::map<std::string, std::vector<double>> layer_values;
    LayerCounts first_counts;
    std::size_t traced_reps = 0;
    std::string fidelity = "traced copies reproduce the untraced results";
    while ((traced_reps < 2 || Clock::now() < deadline) && tally.failed == 0) {
      const Rep r = w->run();
      tally.add(r);
      plain_secs.push_back(r.secs);
      TracedRep t;
      try {
        t = w->traced();
      } catch (const FidelityError& e) {
        tally.attempted += r.ops;
        tally.failed += r.ops;
        tally.errors.push_back(e.what());
        fidelity = "traced run aborted";
        break;
      }
      tally.attempted += r.ops;
      if (traced_reps == 0) {
        first_counts = t.counts;
      } else if (t.counts_repeat && !(t.counts == first_counts)) {
        tally.failed += r.ops;
        tally.errors.push_back("traced work counts differ between two "
                               "traced runs of one seed");
        fidelity = "work counts do not repeat";
        break;
      }
      ++traced_reps;
      traced_secs.push_back(t.secs);
      for (const LayerMetric& m : t.metrics) {
        layer_values[m.name].push_back(m.value);
      }
    }
    const std::string note = "median of " + std::to_string(traced_reps) +
                             " traced runs";
    for (const NamedUnit& m : kLayerMetrics) {
      const auto it = layer_values.find(m.name);
      if (it != layer_values.end()) {
        put({m.name, median(it->second), m.unit}, note);
      } else if (std::strcmp(m.name, "trace_overhead_frac") == 0) {
        put({m.name,
             traced_secs.empty()
                 ? 0.0
                 : median(traced_secs) / median(plain_secs) - 1.0,
             m.unit},
            note);
      } else {
        put({m.name, 0.0, m.unit}, "layer not exercised by this workload");
      }
    }
    std::cout << "# fidelity: " << fidelity << "\n";
  }

  for (const auto& [m, note] : report) print_line(opt.workload, m, note);
  for (const std::string& e : tally.errors) {
    std::cout << "# output check failed: " << e << "\n";
  }

  const bool correct = tally.failed == 0;
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << tally.attempted
     << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [m, note] : report) {
    const bool listed =
        opt.trace || std::find(std::begin(kGatedEndToEnd),
                               std::end(kGatedEndToEnd),
                               m.name) != std::end(kGatedEndToEnd);
    if (!listed) continue;
    js << (first ? "" : ", ") << json_string(m.name) << ": {\"value\": "
       << json_number(m.value) << ", \"unit\": " << json_string(m.unit)
       << "}";
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  clear_simulator_env();
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "fgbench: " << e.what() << "\n";
    return 1;
  }
}
