#include "sys/memory_system.hpp"

#include <algorithm>

#include "dram/dram_bank.hpp"
#include "nvm/fgnvm_bank.hpp"

namespace fgnvm::sys {

SystemConfig SystemConfig::from_config(const Config& cfg) {
  SystemConfig sc;
  sc.name = cfg.get_string("name", sc.name);
  const std::string kind = cfg.get_string("bank_kind", "fgnvm");
  if (kind == "fgnvm") {
    sc.bank_kind = BankKind::kFgNvm;
  } else if (kind == "dram") {
    sc.bank_kind = BankKind::kDram;
  } else {
    throw std::runtime_error("SystemConfig: unknown bank_kind '" + kind + "'");
  }
  sc.mapping = mem::address_mapping_from_string(
      cfg.get_string("address_mapping", mem::to_string(sc.mapping)));
  sc.geometry = mem::MemGeometry::from_config(cfg);
  sc.timing = mem::TimingParams::from_config(cfg);
  sc.controller = sched::ControllerConfig::from_config(cfg);
  sc.energy = nvm::EnergyParams::from_config(cfg);
  sc.modes.partial_activation =
      cfg.get_bool("partial_activation", sc.modes.partial_activation);
  sc.modes.multi_activation =
      cfg.get_bool("multi_activation", sc.modes.multi_activation);
  sc.modes.background_writes =
      cfg.get_bool("background_writes", sc.modes.background_writes);
  sc.obs = obs::ObsConfig::from_config(cfg);
  return sc;
}

std::unique_ptr<sched::ControllerBase> make_channel_controller(
    BankKind kind, const mem::MemGeometry& geometry,
    const mem::TimingParams& timing, const sched::ControllerConfig& controller,
    const nvm::AccessModes& modes) {
  if (kind == BankKind::kDram) {
    const auto make_bank = [&]() -> std::unique_ptr<nvm::Bank> {
      return std::make_unique<dram::DramBank>(geometry, timing);
    };
    return std::make_unique<sched::ControllerT<dram::DramBank>>(
        geometry, timing, controller, make_bank);
  }
  const auto make_bank = [&]() -> std::unique_ptr<nvm::Bank> {
    return std::make_unique<nvm::FgNvmBank>(geometry, timing, modes);
  };
  return std::make_unique<sched::ControllerT<nvm::FgNvmBank>>(
      geometry, timing, controller, make_bank);
}

MemorySystem::MemorySystem(const SystemConfig& cfg) : MemorySystem(cfg, {}) {}

MemorySystem::MemorySystem(const SystemConfig& cfg,
                           const std::vector<ExtraChannel>& extra)
    : cfg_(cfg),
      decoder_(cfg.geometry, cfg.mapping),
      energy_model_(cfg.energy) {
  for (std::uint64_t ch = 0; ch < cfg_.geometry.channels; ++ch) {
    channels_.push_back(make_channel_controller(cfg_.bank_kind, cfg_.geometry,
                                                cfg_.timing, cfg_.controller,
                                                cfg_.modes));
  }
  for (const ExtraChannel& ex : extra) {
    channels_.push_back(
        make_channel_controller(ex.kind, ex.geometry, ex.timing, ex.controller,
                                ex.modes));
  }
  if (cfg_.obs.enabled) {
    obs_ = std::make_shared<obs::Observer>(cfg_.obs, channels_.size());
    for (std::uint64_t ch = 0; ch < channels_.size(); ++ch) {
      // A channel can hold at most its queue capacities in open requests.
      const sched::ControllerConfig& cc =
          ch < cfg_.geometry.channels
              ? cfg_.controller
              : extra[ch - cfg_.geometry.channels].controller;
      obs_->channel(ch)->reserve_open(cc.read_queue_cap + cc.write_queue_cap);
      channels_[ch]->set_collector(obs_->channel(ch));
    }
  }
  // Due cycle 0 makes the first tick visit (and re-arm) every channel.
  due_.assign(channels_.size(), 0);
  maybe_completed_.assign(channels_.size(), 0);
  min_due_ = 0;
  update_lazy();
}

void MemorySystem::set_eager_ticking(bool eager) {
  eager_ = eager;
  update_lazy();
  // Entering lazy mode with stale caches: force a full visit on the next
  // tick and a conservative drain.
  due_.assign(channels_.size(), 0);
  min_due_ = 0;
  maybe_completed_.assign(channels_.size(), 1);
}

bool MemorySystem::can_accept(Addr addr, OpType op) const {
  const auto d = decoder_.decode(addr);
  return channels_[d.channel]->can_accept(op);
}

RequestId MemorySystem::submit(Addr addr, OpType op, Cycle now,
                               std::uint64_t cpu_tag) {
  (op == OpType::kRead ? submitted_reads_ : submitted_writes_) += 1;
  return submit_decoded(decoder_.decode(addr), op, now, cpu_tag, now);
}

RequestId MemorySystem::submit_decoded(const mem::DecodedAddr& d, OpType op,
                                       Cycle now, std::uint64_t cpu_tag,
                                       Cycle arm) {
  mem::MemRequest req;
  req.id = next_id_++;
  req.op = op;
  req.addr = d;
  req.cpu_tag = cpu_tag;
  const std::uint64_t ch = req.addr.channel;
  channels_[ch]->enqueue(req, now);
  // The channel must be visited by the tick at `arm` (`now` for requests
  // submitted before the cycle's tick; now + 1 for requests injected from
  // inside tick, after the channel already ticked at now), and a forwarded
  // read completes inside enqueue — flag the drain unconditionally.
  due_[ch] = std::min(due_[ch], arm);
  min_due_ = std::min(min_due_, arm);
  maybe_completed_[ch] = 1;
  return req.id;
}

void MemorySystem::tick(Cycle now) {
  if (lazy_) {
    const std::uint64_t n = channels_.size();
    if (min_due_ <= now) {
      for (std::uint64_t ch = 0; ch < n; ++ch) {
        if (due_[ch] <= now) {
          channels_[ch]->tick(now);
          maybe_completed_[ch] = 1;
          due_[ch] = channels_[ch]->next_event(now);
        }
      }
      recompute_min_due();
    }
    return;
  }
  for (auto& ch : channels_) ch->tick(now);
  if (obs_ && obs_->sample_due(now)) {
    obs_->record_sample(build_sample(now));
  }
}

obs::TimeSeriesSample MemorySystem::build_sample(Cycle now) const {
  obs::ChannelSample cs;
  for (const auto& ch : channels_) ch->sample_obs(now, cs);
  obs::TimeSeriesSample s;
  s.cycle = now;
  s.read_q = cs.read_q;
  s.write_q = cs.write_q;
  s.inflight = cs.inflight;
  s.mean_bank_q = cs.banks != 0 ? static_cast<double>(cs.read_q) /
                                      static_cast<double>(cs.banks)
                                : 0.0;
  s.max_bank_q = cs.max_bank_q;
  s.open_acts = cs.open_acts;
  s.busy_tiles = cs.busy_tiles;
  s.tile_util = cs.tile_groups != 0 ? static_cast<double>(cs.busy_tiles) /
                                          static_cast<double>(cs.tile_groups)
                                    : 0.0;
  augment_sample(s);
  return s;
}

void MemorySystem::finalize_obs(Cycle /*end*/) {}

std::vector<mem::MemRequest> MemorySystem::take_completed() {
  std::vector<mem::MemRequest> all;
  drain_completed(all);
  return all;
}

void MemorySystem::drain_completed(std::vector<mem::MemRequest>& out) {
  out.clear();
  if (lazy_) {
    const std::uint64_t n = channels_.size();
    for (std::uint64_t ch = 0; ch < n; ++ch) {
      if (maybe_completed_[ch]) {
        channels_[ch]->drain_completed(out);
        maybe_completed_[ch] = 0;
      }
    }
    return;
  }
  for (auto& ch : channels_) ch->drain_completed(out);
}

Cycle MemorySystem::next_event(Cycle now) const {
  if (lazy_) {
    // due_ entries never overshoot their channel's next actionable cycle,
    // so the cached minimum is a valid (possibly early) wake. Entries at or
    // before `now` only occur transiently around submit; clamp to keep the
    // "> now" contract.
    if (min_due_ == kNeverCycle) return kNeverCycle;
    return std::max(min_due_, now + 1);
  }
  Cycle next = kNeverCycle;
  for (const auto& ch : channels_) next = std::min(next, ch->next_event(now));
  return next;
}

Cycle MemorySystem::completion_bound(Cycle now) const {
  Cycle bound = kNeverCycle;
  for (const auto& ch : channels_) {
    bound = std::min(bound, ch->completion_bound(now));
  }
  return bound;
}

Cycle MemorySystem::accept_event(Addr addr) const {
  return due_[decoder_.decode(addr).channel];
}

void MemorySystem::advance_channels_to(Cycle horizon) {
  // Channels share no mutable state (per-channel banks, bus, stats; the
  // observer is off under lazy scheduling), so each advances its own event
  // chain independently and buffers its completions for the next drain.
  const std::uint64_t n = channels_.size();
  for (std::uint64_t ch = 0; ch < n; ++ch) {
    if (due_[ch] < horizon) {
      due_[ch] = channels_[ch]->advance_to(due_[ch], horizon);
      maybe_completed_[ch] = 1;
    }
  }
  recompute_min_due();
}

Cycle MemorySystem::advance_until_accept(Addr addr, OpType op, Cycle limit) {
  const std::uint64_t ch = decoder_.decode(addr).channel;
  // The returned resume cycle never overshoots the channel's next
  // actionable cycle (freeing-tick + 1 at most undershoots, which a due
  // cache is allowed to do), so it re-arms due_ directly.
  const Cycle resume = channels_[ch]->advance_until_accept(due_[ch], op, limit);
  due_[ch] = resume;
  maybe_completed_[ch] = 1;
  recompute_min_due();
  return resume;
}

bool MemorySystem::idle() const {
  return std::all_of(channels_.begin(), channels_.end(),
                     [](const auto& ch) { return ch->idle(); });
}

nvm::EnergyBreakdown MemorySystem::energy(Cycle elapsed) const {
  nvm::EnergyBreakdown sum;
  for (const auto& ch : channels_) {
    const auto e = energy_model_.total_energy(ch->banks(), elapsed);
    sum.sense_pj += e.sense_pj;
    sum.write_pj += e.write_pj;
    sum.background_pj += e.background_pj;
  }
  return sum;
}

nvm::BankStats MemorySystem::bank_totals() const {
  nvm::BankStats total;
  for (const auto& ch : channels_) {
    for (const auto& bank : ch->banks()) {
      const nvm::BankStats& s = bank->stats();
      total.acts_for_read += s.acts_for_read;
      total.acts_for_write += s.acts_for_write;
      total.underfetch_acts += s.underfetch_acts;
      total.reads += s.reads;
      total.writes += s.writes;
      total.bits_sensed += s.bits_sensed;
      total.bits_written += s.bits_written;
    }
  }
  return total;
}

StatSet MemorySystem::controller_stats() const {
  StatSet merged;
  for (const auto& ch : channels_) merged.merge(ch->stats());
  return merged;
}

}  // namespace fgnvm::sys
