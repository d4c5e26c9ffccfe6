// Top-level memory system: address decoder + one controller per channel.
//
// This is the public simulation API: submit(addr, op) -> completion events,
// tick() once per memory cycle, energy() for the Section-6 accounting.
//
// Channels never interact below this layer, so MemorySystem schedules them
// lazily (DESIGN.md §9): it caches each channel's next-event ("due") cycle
// and a pending-completion flag, ticks only channels whose due has arrived,
// answers next_event() from the cached minimum, and drains completions only
// from flagged channels — idle channels are never touched. On top of the
// lazy clocks, advance_channels_to() runs due channels to a caller-supplied
// horizon.
//
// The driver-facing methods are virtual so HybridMemorySystem (DESIGN.md
// §13) can interpose routing and its migration engine behind the same API;
// the cost is one virtual call per loop-level operation, the per-candidate
// hot paths below stay statically dispatched.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/geometry.hpp"
#include "mem/timing.hpp"
#include "nvm/energy.hpp"
#include "obs/observer.hpp"
#include "sched/controller.hpp"

namespace fgnvm::sys {

/// Which bank model backs the system.
enum class BankKind : std::uint8_t {
  kFgNvm,  ///< PCM bank with 2-D subdivision (the paper's subject)
  kDram,   ///< DRAM bank with optional SALP (comparison substrate)
};

/// Complete description of one simulated memory system.
struct SystemConfig {
  std::string name = "fgnvm";
  BankKind bank_kind = BankKind::kFgNvm;
  mem::AddressMapping mapping = mem::AddressMapping::kRowInterleaved;
  mem::MemGeometry geometry;
  mem::TimingParams timing;
  nvm::AccessModes modes;
  sched::ControllerConfig controller;
  nvm::EnergyParams energy;
  obs::ObsConfig obs;

  /// Builds from a flat Config; see individual from_config methods for keys.
  /// Access-mode keys: partial_activation, multi_activation,
  /// background_writes (booleans, default on).
  static SystemConfig from_config(const Config& cfg);
};

/// Builds the statically-dispatched controller for one channel: each bank
/// kind gets the ControllerT instantiation whose candidate probes inline the
/// concrete bank type. This is the exact construction MemorySystem performs
/// per channel; exposed so the tile runtime (src/tile/) can own channels
/// directly, with behavior identical to a MemorySystem-owned channel.
std::unique_ptr<sched::ControllerBase> make_channel_controller(
    BankKind kind, const mem::MemGeometry& geometry,
    const mem::TimingParams& timing, const sched::ControllerConfig& controller,
    const nvm::AccessModes& modes);

class MemorySystem {
 public:
  explicit MemorySystem(const SystemConfig& cfg);
  virtual ~MemorySystem() = default;
  MemorySystem(const MemorySystem&) = delete;
  MemorySystem& operator=(const MemorySystem&) = delete;

  const SystemConfig& config() const { return cfg_; }
  const mem::AddressDecoder& decoder() const { return decoder_; }
  std::uint64_t channels() const { return channels_.size(); }
  /// Read-only view of one channel's controller, for diagnostics.
  const sched::ControllerBase& channel(std::uint64_t ch) const {
    return *channels_[ch];
  }

  /// Backpressure check for the channel that `addr` maps to.
  virtual bool can_accept(Addr addr, OpType op) const;

  /// Submits a request; returns its id. Precondition: can_accept().
  virtual RequestId submit(Addr addr, OpType op, Cycle now,
                           std::uint64_t cpu_tag = 0);

  /// Advances the system one memory cycle: with lazy scheduling, only the
  /// channels whose cached due cycle has arrived; otherwise all channels.
  virtual void tick(Cycle now);

  /// Completed read requests (and forwarded reads) since the last call.
  std::vector<mem::MemRequest> take_completed();

  /// Allocation-free variant: clears `out`, then fills it with the completed
  /// requests since the last call (always in channel order). The simulation
  /// loops reuse one buffer.
  virtual void drain_completed(std::vector<mem::MemRequest>& out);

  /// Earliest cycle > now at which any channel's tick() could change state,
  /// absent new arrivals; kNeverCycle when fully idle. Never overshoots an
  /// actionable cycle (see Controller::next_event). O(1) under lazy
  /// scheduling (reads the cached minimum).
  virtual Cycle next_event(Cycle now) const;

  /// True when the per-channel due caches drive tick/next_event/drain. Off
  /// with an observer attached or after set_eager_ticking(true); the
  /// windowed advance paths below require it.
  bool lazy_scheduling() const { return lazy_; }

  /// Forces every tick() to visit every channel (the pre-§9 behaviour).
  /// The cycle-accurate reference loops run eager so the FGNVM_PARANOID
  /// oracle is independent of the due-cache machinery.
  void set_eager_ticking(bool eager);

  /// Lower bound over all channels on the first cycle > now a completion
  /// could be handed to the caller (see Controller::completion_bound);
  /// kNeverCycle when no queued or in-flight read exists anywhere.
  virtual Cycle completion_bound(Cycle now) const;

  /// Cached due cycle of the channel `addr` maps to — the earliest cycle at
  /// which that channel's state (in particular its can_accept answer) could
  /// change. Requires lazy_scheduling().
  virtual Cycle accept_event(Addr addr) const;

  /// Runs every channel with due < horizon along its own event chain up to
  /// the horizon (Controller::advance_to). Completions buffer per channel
  /// and drain in channel order afterwards. The caller must guarantee no
  /// submissions or drains are needed before the horizon (see
  /// completion_bound / accept_event). Requires lazy_scheduling().
  void advance_channels_to(Cycle horizon);

  /// Runs the channel `addr` maps to along its event chain (with analytic
  /// phase fast-forwarding — Controller::advance_until_accept) until it can
  /// accept `op` or its chain reaches `limit`. Returns the cycle at which
  /// the driver should resume (submit/drain): the cycle after the
  /// capacity-freeing tick, or the first chain cycle >= limit (kNeverCycle
  /// if the chain dies). Other channels are NOT advanced — follow up with
  /// advance_channels_to(min(resume, limit)) before resuming the loop.
  /// Requires lazy_scheduling().
  virtual Cycle advance_until_accept(Addr addr, OpType op, Cycle limit);

  virtual bool idle() const;

  /// Section-6 energy accounting over `elapsed` memory cycles.
  virtual nvm::EnergyBreakdown energy(Cycle elapsed) const;

  /// Aggregated bank activity across the whole system.
  nvm::BankStats bank_totals() const;

  /// Merged controller stats (counters summed across channels).
  virtual StatSet controller_stats() const;

  /// End-of-run observability hook: the runner calls it once with the final
  /// cycle before detaching the observer. The base system does nothing (the
  /// epoch sampler already covered the run); HybridMemorySystem records one
  /// trailing sample so the migration/DRAM-hit channels reconcile exactly
  /// with the final counters.
  virtual void finalize_obs(Cycle end);

  std::uint64_t submitted_reads() const { return submitted_reads_; }
  std::uint64_t submitted_writes() const { return submitted_writes_; }

  /// Null unless SystemConfig::obs.enabled. Shared so sim::RunResult can
  /// keep the collected traces alive past the MemorySystem itself.
  const obs::Observer* observer() const { return obs_.get(); }
  obs::Observer* observer() { return obs_.get(); }
  std::shared_ptr<const obs::Observer> observer_ptr() const { return obs_; }

 protected:
  /// One heterogeneous channel appended after the cfg.geometry.channels
  /// primary channels. HybridMemorySystem uses this for its DRAM partition:
  /// the extra channel plugs into the same due/drain/advance machinery (the
  /// observer and due caches are sized to the full channel count at
  /// construction), but carries its own single-channel geometry,
  /// timing and controller configuration.
  struct ExtraChannel {
    BankKind kind = BankKind::kDram;
    mem::MemGeometry geometry;  // channels field ignored (always 1 channel)
    mem::TimingParams timing;
    sched::ControllerConfig controller;
    nvm::AccessModes modes;  // used by kFgNvm extra channels only
  };
  MemorySystem(const SystemConfig& cfg,
               const std::vector<ExtraChannel>& extra);

  /// Shared enqueue path: routes an already-decoded request to
  /// `d.channel`, arming that channel's due cache so the tick at
  /// `arm` (>= now) visits it. Does NOT bump the submitted_reads_/writes_
  /// demand counters — the public submit() does, the hybrid migration
  /// engine deliberately does not. `arm` is `now` for requests injected
  /// before the cycle's tick and `now + 1` for requests injected from
  /// inside tick() (the channel already ticked at `now`; eager mode would
  /// first see the request at now + 1).
  RequestId submit_decoded(const mem::DecodedAddr& d, OpType op, Cycle now,
                           std::uint64_t cpu_tag, Cycle arm);

  /// Fills one epoch sample from the current channel state (the eager tick
  /// calls this when a sample is due, finalize_obs overrides may reuse it).
  obs::TimeSeriesSample build_sample(Cycle now) const;

  /// Subclass hook: extends an epoch sample with system-specific channels
  /// (hybrid migration count / DRAM hit rate). Called from build_sample.
  virtual void augment_sample(obs::TimeSeriesSample& /*s*/) const {}

  void update_lazy() { lazy_ = !eager_ && obs_ == nullptr; }
  void recompute_min_due() {
    Cycle m = kNeverCycle;
    for (const Cycle d : due_) m = std::min(m, d);
    min_due_ = m;
  }

  SystemConfig cfg_;
  mem::AddressDecoder decoder_;
  std::vector<std::unique_ptr<sched::ControllerBase>> channels_;
  nvm::EnergyModel energy_model_;
  std::shared_ptr<obs::Observer> obs_;  // null = tracing disabled
  RequestId next_id_ = 1;
  std::uint64_t submitted_reads_ = 0;
  std::uint64_t submitted_writes_ = 0;

  // Lazy per-channel scheduling state (DESIGN.md §9). due_[ch] never
  // overshoots channel ch's next actionable cycle; min_due_ is the fold of
  // due_; maybe_completed_[ch] is set whenever ch might have buffered a
  // completion since the last drain (every tick of ch, and every submit to
  // ch — store-to-load forwarding completes inside enqueue).
  std::vector<Cycle> due_;
  std::vector<std::uint8_t> maybe_completed_;
  Cycle min_due_ = 0;
  bool eager_ = false;
  bool lazy_ = true;
};

}  // namespace fgnvm::sys
