#include "campaign/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "net/message.hpp"

namespace coeff::campaign {

namespace {

// Per-component salts: each aspect of a cell draws from its own stream,
// so adding draws to one component never perturbs another.
constexpr std::uint64_t kStaticsSalt = 0xC0FFEE0000000001ULL;
constexpr std::uint64_t kDynamicsSalt = 0xC0FFEE0000000002ULL;
constexpr std::uint64_t kStructuralSalt = 0xC0FFEE0000000003ULL;
constexpr std::uint64_t kCriticalitySalt = 0xC0FFEE0000000004ULL;

/// The cell's repro seed: stateless in (campaign_seed, cell) so any
/// shard can materialize any cell in any order.
std::uint64_t derive_cell_seed(std::uint64_t campaign_seed,
                               std::int64_t cell) {
  sim::SplitMix64 mix(campaign_seed ^
                      (0x9E3779B97F4A7C15ULL *
                       (static_cast<std::uint64_t>(cell) + 1)));
  return mix.next();
}

sim::Time draw_window_time(sim::Rng& rng, std::int64_t window_ms,
                           double lo_frac, double hi_frac) {
  const double frac = rng.uniform(lo_frac, hi_frac);
  const auto ms = static_cast<std::int64_t>(
      frac * static_cast<double>(window_ms));
  return sim::millis(std::max<std::int64_t>(1, ms));
}

}  // namespace

const char* to_string(StructuralKind k) {
  switch (k) {
    case StructuralKind::kNone:
      return "none";
    case StructuralKind::kCrash:
      return "crash";
    case StructuralKind::kBlackout:
      return "blackout";
    case StructuralKind::kBabble:
      return "babble";
    case StructuralKind::kDrift:
      return "drift";
  }
  return "?";
}

std::optional<StructuralKind> parse_structural_tag(std::string_view name) {
  if (name == "none") return StructuralKind::kNone;
  if (name == "crash") return StructuralKind::kCrash;
  if (name == "blackout") return StructuralKind::kBlackout;
  if (name == "babble") return StructuralKind::kBabble;
  if (name == "drift") return StructuralKind::kDrift;
  return std::nullopt;
}

const char* scheme_tag(core::SchemeKind scheme) {
  switch (scheme) {
    case core::SchemeKind::kCoEfficient:
      return "coefficient";
    case core::SchemeKind::kFspec:
      return "fspec";
    case core::SchemeKind::kHosa:
      return "hosa";
  }
  return "?";
}

std::optional<core::SchemeKind> parse_scheme_tag(std::string_view name) {
  if (name == "coefficient") return core::SchemeKind::kCoEfficient;
  if (name == "fspec") return core::SchemeKind::kFspec;
  if (name == "hosa") return core::SchemeKind::kHosa;
  return std::nullopt;
}

void ScenarioDistribution::validate() const {
  auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("campaign: ") + what);
  };
  require(min_nodes >= 1 && min_nodes <= max_nodes && max_nodes <= 1024,
          "node range must satisfy 1 <= min <= max <= 1024");
  require(min_statics >= 1 && min_statics <= max_statics,
          "static-count range must satisfy 1 <= min <= max");
  require(max_statics <= 80, "static count cannot exceed the 80 static slots");
  require(max_dynamics >= 0 && max_dynamics <= 60,
          "dynamic count must be in [0, 60]");
  require(min_util > 0.0 && min_util <= max_util && max_util <= 1.0,
          "utilization range must satisfy 0 < min <= max <= 1");
  require(min_log10_ber <= max_log10_ber && max_log10_ber <= -2.0,
          "log10 BER range must be ordered and <= -2");
  require(!schemes.empty(), "scheme mix must name at least one scheme");
  require(window_ms > 0, "window must be positive");
}

std::vector<double> uunifast(int n, double total, sim::Rng& rng) {
  std::vector<double> utils;
  if (n <= 0) return utils;
  utils.reserve(static_cast<std::size_t>(n));
  double sum = total;
  for (int i = 1; i < n; ++i) {
    const double next =
        sum * std::pow(rng.uniform01(), 1.0 / static_cast<double>(n - i));
    utils.push_back(sum - next);
    sum = next;
  }
  utils.push_back(sum);
  return utils;
}

ScenarioGenerator::ScenarioGenerator(std::uint64_t campaign_seed,
                                     ScenarioDistribution dist)
    : campaign_seed_(campaign_seed), dist_(std::move(dist)) {
  dist_.validate();
}

ScenarioSpec ScenarioGenerator::spec(std::int64_t cell) const {
  ScenarioSpec spec;
  spec.cell = cell;
  spec.seed = derive_cell_seed(campaign_seed_, cell);
  spec.window_ms = dist_.window_ms;
  sim::Rng rng(spec.seed);

  spec.scheme = dist_.schemes[static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(dist_.schemes.size()) - 1))];
  spec.nodes =
      static_cast<int>(rng.uniform_int(dist_.min_nodes, dist_.max_nodes));
  spec.num_statics =
      static_cast<int>(rng.uniform_int(dist_.min_statics, dist_.max_statics));
  spec.num_dynamics =
      static_cast<int>(rng.uniform_int(0, dist_.max_dynamics));
  static constexpr std::int64_t kMinislotChoices[] = {25, 50, 75, 100};
  spec.minislots = kMinislotChoices[rng.uniform_int(0, 3)];
  spec.utilization = rng.uniform(dist_.min_util, dist_.max_util);

  const double ber =
      std::pow(10.0, rng.uniform(dist_.min_log10_ber, dist_.max_log10_ber));
  static constexpr fault::FaultModelKind kFaultKinds[] = {
      fault::FaultModelKind::kIid, fault::FaultModelKind::kGilbertElliott,
      fault::FaultModelKind::kCommonMode};
  spec.fault_model.kind = kFaultKinds[rng.uniform_int(0, 2)];
  spec.fault_model.ber = ber;
  spec.fault_model.gilbert_elliott.p_good_to_bad =
      std::pow(10.0, rng.uniform(-4.0, -2.0));
  spec.fault_model.gilbert_elliott.p_bad_to_good = rng.uniform(0.05, 0.3);
  spec.fault_model.gilbert_elliott.ber_good = ber;
  spec.fault_model.gilbert_elliott.ber_bad = std::min(1e-2, ber * 1e3);
  spec.fault_model.common_fraction = rng.uniform(0.1, 0.5);

  static constexpr StructuralKind kStructKinds[] = {
      StructuralKind::kNone, StructuralKind::kCrash, StructuralKind::kBlackout,
      StructuralKind::kBabble, StructuralKind::kDrift};
  spec.structural = kStructKinds[rng.uniform_int(0, 4)];
  return spec;
}

core::ExperimentConfig ScenarioGenerator::config(
    const ScenarioSpec& spec) const {
  core::ExperimentConfig config;
  config.cluster = core::paper_cluster_dynamic_suite(spec.minislots);
  config.cluster.num_nodes = spec.nodes;
  config.cluster.validate();

  const sim::Time cycle = config.cluster.cycle_duration();  // 5 ms
  const std::int64_t slot_bits = config.cluster.static_slot_capacity_bits();
  const std::int64_t max_bits =
      std::min(slot_bits, config.cluster.max_payload_bits);
  // Utilization target is relative to one channel's static-segment
  // share of the wire.
  const double segment_bps =
      static_cast<double>(config.cluster.bus_bit_rate) *
      config.cluster.static_segment_duration().as_seconds() /
      cycle.as_seconds();

  // --- Static message set (UUniFast split) -----------------------------
  {
    sim::Rng rng(spec.seed ^ kStaticsSalt);
    const std::vector<double> utils =
        uunifast(spec.num_statics, spec.utilization, rng);
    net::MessageSet statics;
    for (int i = 0; i < spec.num_statics; ++i) {
      net::Message m;
      m.id = 1 + i;
      m.name = "camp_s" + std::to_string(m.id);
      m.node = i % spec.nodes;
      m.kind = net::MessageKind::kStatic;
      m.period = cycle * rng.uniform_int(1, 10);  // 5..50 ms
      const std::int64_t period_ms = m.period.ns() / 1'000'000;
      m.deadline = sim::millis(rng.uniform_int(5, period_ms));
      m.offset = sim::micros(rng.uniform_int(0, 999));
      const double want_bits = utils[static_cast<std::size_t>(i)] *
                               m.period.as_seconds() * segment_bps;
      m.size_bits = std::clamp<std::int64_t>(
          static_cast<std::int64_t>(want_bits), 64, max_bits);
      statics.add(std::move(m));
    }
    statics.validate();
    config.statics = std::move(statics);
  }

  // --- Dynamic message set (SAE-style class mix) -----------------------
  if (spec.num_dynamics > 0) {
    sim::Rng rng(spec.seed ^ kDynamicsSalt);
    struct SaeClass {
      std::int64_t period_ms;
      std::int64_t max_bits;
    };
    static constexpr SaeClass kClasses[] = {
        {10, 128}, {20, 256}, {50, 512}, {100, 512}};
    net::MessageSet dynamics;
    for (int i = 0; i < spec.num_dynamics; ++i) {
      const SaeClass& cls = kClasses[rng.uniform_int(0, 3)];
      net::Message m;
      m.id = 1000 + i;
      m.name = "camp_d" + std::to_string(i + 1);
      m.node = i % spec.nodes;
      m.kind = net::MessageKind::kDynamic;
      m.period = sim::millis(cls.period_ms);
      m.deadline = m.period;
      m.offset = sim::micros(rng.uniform_int(0, cls.period_ms * 1000 - 1));
      m.size_bits = rng.uniform_int(64, cls.max_bits);
      m.frame_id =
          static_cast<int>(config.cluster.g_number_of_static_slots) + 1 + i;
      dynamics.add(std::move(m));
    }
    dynamics.validate();
    config.dynamics = std::move(dynamics);
  }

  // --- Channel fault physics -------------------------------------------
  config.ber = spec.fault_model.ber;
  config.fault_model = spec.fault_model;

  // --- Structural fault axis -------------------------------------------
  if (spec.structural != StructuralKind::kNone) {
    sim::Rng rng(spec.seed ^ kStructuralSalt);
    const std::int64_t w = spec.window_ms;
    const sim::Time at = draw_window_time(rng, w, 0.2, 0.5);
    switch (spec.structural) {
      case StructuralKind::kCrash: {
        fault::NodeCrashWindow crash;
        crash.node = units::NodeId{
            static_cast<int>(rng.uniform_int(0, spec.nodes - 1))};
        crash.at = at;
        crash.restart = at + draw_window_time(rng, w, 0.05, 0.30);
        config.structural.crashes.push_back(crash);
        break;
      }
      case StructuralKind::kBlackout: {
        fault::ChannelBlackoutWindow out;
        out.channel = rng.bernoulli(0.5) ? flexray::ChannelId::kA
                                         : flexray::ChannelId::kB;
        out.at = at;
        out.until = at + draw_window_time(rng, w, 0.02, 0.15);
        config.structural.blackouts.push_back(out);
        break;
      }
      case StructuralKind::kBabble: {
        fault::BabbleWindow babble;
        babble.babbler = units::NodeId{
            static_cast<int>(rng.uniform_int(0, spec.nodes - 1))};
        babble.slot = units::SlotId{
            static_cast<int>(rng.uniform_int(1, spec.num_statics))};
        babble.at = at;
        babble.until = at + draw_window_time(rng, w, 0.10, 0.40);
        if (rng.bernoulli(0.5)) {
          babble.channel = rng.bernoulli(0.5) ? flexray::ChannelId::kA
                                              : flexray::ChannelId::kB;
        }
        config.structural.babbles.push_back(babble);
        break;
      }
      case StructuralKind::kDrift: {
        fault::DriftWindow drift;
        drift.node = units::NodeId{
            static_cast<int>(rng.uniform_int(0, spec.nodes - 1))};
        drift.at = at;
        drift.until = at + draw_window_time(rng, w, 0.05, 0.30);
        drift.excess_ppm = rng.uniform(200.0, 2000.0);
        config.structural.drifts.push_back(drift);
        break;
      }
      case StructuralKind::kNone:
        break;
    }
    config.structural.validate();
  }

  // --- Mixed-criticality / energy axis (DESIGN.md §16) -----------------
  if (dist_.criticality) {
    sim::Rng rng(spec.seed ^ kCriticalitySalt);
    config.mode_policy = *sched::parse_mode_policy(
        rng.bernoulli(0.5) ? "aggressive" : "conservative");
    sched::CriticalitySpec crit;
    crit.static_default = net::Criticality::kHigh;
    crit.dynamic_default = net::Criticality::kLow;
    // A quarter of the dynamics are promoted to medium so DEGRADED-L1
    // sheds a strict subset of what DEGRADED-L2 sheds.
    for (const auto& m : config.dynamics.messages()) {
      if (rng.bernoulli(0.25)) {
        crit.overrides.emplace_back(m.id, net::Criticality::kMedium);
      }
    }
    config.statics = sched::with_criticality(config.statics, crit);
    config.dynamics = sched::with_criticality(config.dynamics, crit);
    config.power.enabled = true;
    // The mode machine feeds on the monitor's drift ratio; half the
    // cells get a BER burst (step up, step back down) so the campaign
    // exercises the degrade -> match-up trajectory, not just NORMAL.
    config.enable_monitor = true;
    config.monitor.window_cycles = 50;
    config.monitor.min_window_frames = 200;
    config.monitor.cooldown_cycles = 1000000;  // mode machine, not re-plan
    if (rng.bernoulli(0.5)) {
      const std::int64_t w = spec.window_ms;
      config.ber_step_at = draw_window_time(rng, w, 0.2, 0.4);
      config.ber_step = config.ber * rng.uniform(20.0, 200.0);
      config.ber_step2_at =
          config.ber_step_at + draw_window_time(rng, w, 0.2, 0.35);
      config.ber_step2 = config.ber;
    }
  }

  config.seed = spec.seed;
  config.batch_window = sim::millis(spec.window_ms);
  config.engine = flexray::EngineMode::kCompiled;
  return config;
}

}  // namespace coeff::campaign
