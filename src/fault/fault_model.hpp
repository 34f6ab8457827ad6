// Fault-model hierarchy: pluggable channel-corruption processes.
//
// The paper's Theorem-1 analysis (§III-E) assumes independent bit
// errors at a known, stationary BER. Real automotive EMI is neither:
// errors arrive in bursts and can couple into both channels of a
// dual-channel bus at once. Every model here implements the same
// verdict contract as the original i.i.d. injector (deterministic
// under a fixed seed, independent verdict stream per channel unless
// the model explicitly correlates them), so schedulers and experiments
// can swap the channel physics without touching planning code:
//
//  * FaultInjector (injector.hpp) — the i.i.d. reference model.
//  * GilbertElliottModel — per-channel two-state Markov chain
//    (good/bad) with a BER per state; bursts are visits to the bad
//    state.
//  * CommonModeModel — i.i.d. base BER, but a configurable fraction of
//    fault events is drawn from a slot-keyed common stream shared by
//    both channels, breaking the dual-channel independence assumption.
//
// All models support a scheduled BER step (environment drift at a known
// simulated time) so step-response experiments can measure how fast the
// ReliabilityMonitor reacts.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/ber.hpp"
#include "flexray/bus.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace coeff::fault {

enum class FaultModelKind : std::uint8_t {
  kIid,
  kGilbertElliott,
  kCommonMode,
  kIidCounter,
};

[[nodiscard]] const char* to_string(FaultModelKind k);
/// Accepts the CLI spellings "iid", "gilbert-elliott", "common-mode"
/// and "iid-counter".
[[nodiscard]] std::optional<FaultModelKind> parse_fault_model_kind(
    std::string_view name);

/// Base class: verdict accounting, the CorruptionFn adapter, and the
/// scheduled BER step. Subclasses implement draw_verdict (the physics)
/// and apply_ber_step (what "the environment got worse" means to them).
class FaultModel {
 public:
  virtual ~FaultModel() = default;

  /// Verdict for one transmission (the flexray::CorruptionFn contract).
  bool corrupted(const flexray::TxRequest& req, flexray::ChannelId channel,
                 sim::Time start);

  /// Adapter usable directly as a Cluster corruption hook. The model
  /// must outlive the returned callable.
  [[nodiscard]] flexray::CorruptionFn as_corruption_fn();

  /// Batched verdicts for the compiled cycle engine: one verdict per
  /// query, written to `out`. Implemented as a sequential walk over
  /// corrupted() in query order, so as long as the caller passes the
  /// queries in exact wire order the resulting verdict stream is
  /// *identical* to per-frame corrupted() calls — for every model,
  /// including the stateful Gilbert–Elliott chains. Counters and the
  /// scheduled BER step advance exactly as in the sequential path.
  void draw_batch(const flexray::VerdictQuery* queries, std::size_t n,
                  bool* out);

  /// Adapter usable as a Cluster batch-corruption hook. The model must
  /// outlive the returned callable.
  [[nodiscard]] flexray::BatchCorruptionFn as_batch_fn();

  /// One-line human-readable description (printed in run headers).
  [[nodiscard]] virtual std::string describe() const = 0;

  /// Schedule an environment drift: every verdict with start >= `at`
  /// sees the model re-targeted to `ber` (interpretation is per model).
  /// May be called more than once to build a piecewise-constant drift
  /// profile (e.g. a burst: up at t0, back down at t1); steps are
  /// applied in time order regardless of scheduling order.
  void schedule_ber_step(sim::Time at, double ber);

  [[nodiscard]] std::int64_t verdicts() const { return verdicts_; }
  [[nodiscard]] std::int64_t faults() const { return faults_; }
  [[nodiscard]] std::int64_t channel_verdicts(flexray::ChannelId ch) const {
    return ch_verdicts_[static_cast<std::size_t>(ch)];
  }
  [[nodiscard]] std::int64_t channel_faults(flexray::ChannelId ch) const {
    return ch_faults_[static_cast<std::size_t>(ch)];
  }

 protected:
  [[nodiscard]] virtual bool draw_verdict(const flexray::TxRequest& req,
                                          flexray::ChannelId channel,
                                          sim::Time start) = 0;
  virtual void apply_ber_step(double ber) = 0;

 private:
  struct BerStep {
    sim::Time at;
    double ber;
  };
  /// Pending steps sorted by `at`, earliest at the back (applied and
  /// popped as simulated time passes them).
  std::vector<BerStep> pending_steps_;
  std::int64_t verdicts_ = 0;
  std::int64_t faults_ = 0;
  std::array<std::int64_t, flexray::kNumChannels> ch_verdicts_{};
  std::array<std::int64_t, flexray::kNumChannels> ch_faults_{};
};

/// Gilbert–Elliott channel parameters. Each channel runs its own chain
/// (independent streams); the chain advances one transition per verdict
/// on that channel, then draws the fault at the current state's BER.
struct GilbertElliottParams {
  double p_good_to_bad = 1e-3;  ///< burst-entry probability per verdict
  double p_bad_to_good = 0.1;   ///< burst-exit probability per verdict
  double ber_good = 1e-7;
  double ber_bad = 1e-4;
};

class GilbertElliottModel : public FaultModel {
 public:
  GilbertElliottModel(const GilbertElliottParams& params, std::uint64_t seed);

  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] const GilbertElliottParams& params() const { return params_; }
  [[nodiscard]] bool in_bad_state(flexray::ChannelId ch) const {
    return chains_[static_cast<std::size_t>(ch)].bad;
  }

 protected:
  bool draw_verdict(const flexray::TxRequest& req, flexray::ChannelId channel,
                    sim::Time start) override;
  /// A step raises the good-state BER to `ber` (and the bad-state BER
  /// too if it would otherwise fall below the good one).
  void apply_ber_step(double ber) override;

 private:
  GilbertElliottParams params_;
  BerCache good_p_;  ///< failure-probability memo at ber_good
  BerCache bad_p_;   ///< failure-probability memo at ber_bad
  struct Chain {
    sim::Rng rng;
    bool bad = false;
  };
  std::array<Chain, flexray::kNumChannels> chains_;
};

/// Common-mode model: fault events are i.i.d. at `ber`, but a fraction
/// `common_fraction` of them is decided by a slot-keyed stream shared
/// across channels — when such an event fires, it corrupts the copies
/// on *both* channels of that slot.
class CommonModeModel : public FaultModel {
 public:
  CommonModeModel(double ber, double common_fraction, std::uint64_t seed);

  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] double ber() const { return ber_.ber(); }
  [[nodiscard]] double common_fraction() const { return common_fraction_; }

 protected:
  bool draw_verdict(const flexray::TxRequest& req, flexray::ChannelId channel,
                    sim::Time start) override;
  void apply_ber_step(double ber) override;

 private:
  BerCache ber_;  ///< per-size failure probability memo
  double common_fraction_;
  std::uint64_t seed_;
  std::array<sim::Rng, flexray::kNumChannels> rngs_;
};

/// Counter-based i.i.d. model: same physics as FaultInjector, but every
/// verdict is a pure function of (seed, transmission start, frame id,
/// channel) through Philox4x32 — no sequential stream to replay. The
/// start time encodes cycle and slot, so the key space matches the
/// "seed/cycle/slot/channel" contract of the compiled engine and any
/// subset of verdicts can be drawn in any order (or in parallel)
/// without perturbing the rest. Statistically equivalent to the iid
/// model, not stream-identical to it (different generator).
class CounterIidModel : public FaultModel {
 public:
  CounterIidModel(double ber, std::uint64_t seed);

  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] double ber() const { return ber_.ber(); }

 protected:
  bool draw_verdict(const flexray::TxRequest& req, flexray::ChannelId channel,
                    sim::Time start) override;
  void apply_ber_step(double ber) override;

 private:
  BerCache ber_;  ///< per-size failure probability memo
  sim::Philox4x32 philox_;
};

/// Declarative model selection (experiment configs, CLI flags).
struct FaultModelConfig {
  FaultModelKind kind = FaultModelKind::kIid;
  /// BER of the iid model / base BER of the common-mode model. The
  /// Gilbert–Elliott model uses its own per-state BERs instead.
  double ber = 1e-7;
  GilbertElliottParams gilbert_elliott;
  double common_fraction = 0.2;  ///< common-mode only
};

[[nodiscard]] std::string describe(const FaultModelConfig& config);
[[nodiscard]] std::unique_ptr<FaultModel> make_fault_model(
    const FaultModelConfig& config, std::uint64_t seed);

/// Analytic (stationary, seed-free) failure-probability queries for a
/// fault-model configuration — the design-time mirror of the sampled
/// verdict streams above, consumed by analysis::ProbWcrt. Every query
/// is a closed form over the model parameters, memoized per frame size
/// through BerCache:
///
///  * iid / iid-counter: attempts are independent at p = 1-(1-BER)^W.
///  * gilbert-elliott: the per-channel chain is treated at its
///    stationary distribution pi = (p_bg, p_gb) / (p_gb + p_bg);
///    consecutive_* chains attempts through the exact two-state Markov
///    recursion (adjacent transitions — the maximally-bursty, i.e.
///    pessimistic, spacing of a message's retransmissions).
///  * common-mode: the marginal per-copy failure is p regardless of the
///    branch taken; a mirrored pair fails with f*p + (1-f)*p^2.
///
/// Methods are non-const only because BerCache memoizes lazily.
class AnalyticFailure {
 public:
  explicit AnalyticFailure(const FaultModelConfig& config);

  /// Marginal failure probability of a single attempt of `bits` bits.
  [[nodiscard]] double attempt(std::int64_t bits);

  /// Both channels of one mirrored slot occurrence fail.
  [[nodiscard]] double mirrored_pair(std::int64_t bits);

  /// `n` consecutive single-channel attempts all fail (exact Markov
  /// chaining for Gilbert–Elliott; p^n for the memoryless models).
  [[nodiscard]] double consecutive_failures(std::int64_t bits, int n);

  /// `n` consecutive mirrored rounds all fail (per-channel chains are
  /// independent under Gilbert–Elliott, correlated under common-mode).
  [[nodiscard]] double consecutive_pair_failures(std::int64_t bits, int n);

  /// Optimistic (independence) counterparts: attempt()^n and
  /// mirrored_pair()^n — the lower edge of the analytic envelope.
  [[nodiscard]] double independent_failures(std::int64_t bits, int n);
  [[nodiscard]] double independent_pair_failures(std::int64_t bits, int n);

  [[nodiscard]] const FaultModelConfig& config() const { return config_; }

 private:
  FaultModelConfig config_;
  BerCache base_;  ///< iid / iid-counter / common-mode at config.ber
  BerCache good_;  ///< Gilbert–Elliott good-state memo
  BerCache bad_;   ///< Gilbert–Elliott bad-state memo
  double pi_bad_ = 0.0;
};

}  // namespace coeff::fault
