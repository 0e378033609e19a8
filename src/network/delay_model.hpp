#pragma once
// Pluggable message-delay models for the discrete-event network engine.
//
// A DelayModel maps one message (sender, receiver, round) to a simulated
// link latency; the event engine adds it to the sender's round-entry time
// to obtain the delivery time.  Models are deterministic: the engine hands
// each sample a message-keyed Rng stream, so a given (seed, sender,
// receiver, round) always yields the same latency no matter in which order
// the event queue asks.  A negative sample means the link ate the message
// (hard partition drop); independent random loss is the engine's
// drop_probability instead, so every model composes with it.
//
// The textual grammar (the `net=` scenario dimension) round-trips through
// NetConfig:
//
//   net=sync
//   net=async:delay=exp,mean=5,drop=0.01,timeout=50
//   net=async:delay=mmpp,mean=1,mean2=20,p01=0.1,p10=0.3
//   net=async:delay=partition,mean=1,penalty=40,until=8
//
// The MMPP model is the bursty two-state arrival process of the related
// MMPP literature (squared coefficient of variation > 1): a calm and a
// congested state with exponential service in each, switching per round.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace bcl {

/// Parsed form of the `net=` scenario dimension (see file comment for the
/// grammar).  Plain data; `parse` and `to_string` round-trip so scenario
/// artifacts can replay any network configuration byte for byte.
struct NetConfig {
  /// false = the lockstep full-synchrony model (every other field ignored).
  bool async = false;
  /// Delay family: zero | const | uniform | exp | mmpp | partition.
  std::string delay = "zero";
  /// Mean latency (const value, exp mean, mmpp calm mean, partition base).
  double mean = 1.0;
  /// Uniform support [min, max].
  double min = 0.0;
  double max = 1.0;
  /// MMPP congested-state mean and per-round switching probabilities
  /// (calm -> congested, congested -> calm).
  double mean2 = 10.0;
  double p01 = 0.1;
  double p10 = 0.5;
  /// Independent per-message loss probability on honest links.
  double drop = 0.0;
  /// Link bandwidth in bytes per simulated second: delivery delay becomes
  /// propagation + wire_bytes / bw, so compressed payloads measurably
  /// shorten rounds.  0 = infinite (transmission free — the pre-wire-cost
  /// semantics, under which compression changes bytes but not time).
  double bw = 0.0;
  /// Partial-synchrony round timeout Delta: a node stuck below quorum
  /// advances once Delta simulated time passed since it entered the round.
  /// 0 = no timeout (wait for quorum).
  double timeout = 0.0;
  /// Bound on the adversary's targeted extra delay per message
  /// (Adversary::scheduling_delay is clamped to [0, adv]).
  double adv = 0.0;
  /// Link partition: messages crossing the id boundary (ids < boundary vs
  /// the rest) before round `until` pay `penalty` extra latency; boundary
  /// 0 = n/2.
  double penalty = 10.0;
  std::size_t until = 0;
  std::size_t boundary = 0;
  /// Root seed of the delay/drop randomness.  Not part of the grammar —
  /// the scenario seed (mixed per learning round) drives it.
  std::uint64_t seed = 0;

  /// Parses "sync" or "async:key=value,...".  Throws std::invalid_argument
  /// on unknown modes, delay families, or keys (valid lists attached).
  static NetConfig parse(const std::string& text);

  /// Canonical textual form; parse(to_string()) round-trips (the seed is
  /// intentionally excluded — it is scenario state, not grammar).
  std::string to_string() const;

  bool operator==(const NetConfig& other) const = default;
};

/// The valid `net=` parameter keys (shared by parse errors and the docs).
const std::vector<std::string>& net_config_keys();

/// The valid delay-family names (shared by parse errors and the bcl_run
/// --list menu, so the menu cannot go stale against make_delay_model).
const std::vector<std::string>& delay_family_names();

/// Deterministic per-message Rng stream keyed by (seed, sender, receiver,
/// round): the engine's drop draw and the model's latency draw both come
/// from this stream, in that order, so a message's fate never depends on
/// event-queue processing order.
Rng message_stream(std::uint64_t seed, std::size_t sender,
                   std::size_t receiver, std::size_t round);

/// One link-latency distribution (see file comment).  Instances are
/// per-run.  The sharded event engine fans a sender's broadcast out to
/// worker threads, so sampling follows a two-phase contract: the engine
/// calls prepare(sender, round) serially for every sender it is about to
/// schedule, then sample() concurrently from the workers — after its
/// prepare(), a model's sample() must not mutate shared state (stateless
/// models satisfy this trivially; MMPP advances its per-sender state
/// chain in prepare() so the samples only read it).
class DelayModel {
 public:
  virtual ~DelayModel() = default;
  virtual std::string name() const = 0;
  /// Serial warm-up hook before the engine fans `sender`'s round-`round`
  /// broadcast out to worker threads (see the class comment).  Default:
  /// nothing — most models keep no per-sender state.
  virtual void prepare(std::size_t sender, std::size_t round) {
    (void)sender;
    (void)round;
  }
  /// Latency of the message sender -> receiver broadcast in `round`.
  /// `rng` is a stream keyed to this exact message by the engine; models
  /// draw from it so samples are order-independent.  Negative = dropped.
  /// May be called from worker threads after prepare() (class comment).
  virtual double sample(std::size_t sender, std::size_t receiver,
                        std::size_t round, Rng& rng) = 0;
};

/// Every message takes exactly 0 time: the event engine degenerates to the
/// lockstep synchronous round model (its default configuration's
/// semantics).
class ZeroDelayModel final : public DelayModel {
 public:
  std::string name() const override { return "zero"; }
  double sample(std::size_t, std::size_t, std::size_t, Rng&) override {
    return 0.0;
  }
};

/// Every message takes exactly `value` time (homogeneous links).
class ConstantDelayModel final : public DelayModel {
 public:
  explicit ConstantDelayModel(double value);
  std::string name() const override { return "const"; }
  double sample(std::size_t, std::size_t, std::size_t, Rng&) override {
    return value_;
  }

 private:
  double value_;
};

/// Uniform latency in [min, max].
class UniformDelayModel final : public DelayModel {
 public:
  UniformDelayModel(double min, double max);
  std::string name() const override { return "uniform"; }
  double sample(std::size_t, std::size_t, std::size_t, Rng& rng) override;

 private:
  double min_, max_;
};

/// Exponential latency with the given mean (memoryless heterogeneity).
class ExponentialDelayModel final : public DelayModel {
 public:
  explicit ExponentialDelayModel(double mean);
  std::string name() const override { return "exp"; }
  double sample(std::size_t, std::size_t, std::size_t, Rng& rng) override;

 private:
  double mean_;
};

/// Bursty two-state Markov-modulated latency: each sender carries a hidden
/// calm/congested state evolving once per round (calm -> congested with
/// p01, back with p10); latency is exponential with the state's mean.  The
/// state chain is a pure function of (seed, sender, round), so samples
/// stay deterministic under any event order.
class MmppDelayModel final : public DelayModel {
 public:
  MmppDelayModel(double calm_mean, double burst_mean, double p01, double p10,
                 std::uint64_t seed);
  std::string name() const override { return "mmpp"; }
  /// Advances `sender`'s state chain to `round` on the driving thread, so
  /// the concurrent sample() calls that follow only read it.
  void prepare(std::size_t sender, std::size_t round) override;
  double sample(std::size_t sender, std::size_t receiver, std::size_t round,
                Rng& rng) override;
  /// The hidden state of `sender` at `round` (true = congested); exposed
  /// for tests.
  bool congested(std::size_t sender, std::size_t round);

 private:
  struct Chain {
    std::size_t round = 0;
    bool congested = false;
  };
  double calm_mean_, burst_mean_, p01_, p10_;
  std::uint64_t seed_;
  std::vector<Chain> chains_;  // cached per-sender state, advanced forward
};

/// Link partition: ids < boundary and ids >= boundary form two camps;
/// until round `until`, cross-camp messages pay `penalty` extra latency on
/// top of the exponential base mean (penalty < 0 drops them outright).
/// From round `until` on the partition heals and only the base remains.
class PartitionDelayModel final : public DelayModel {
 public:
  PartitionDelayModel(double base_mean, double penalty, std::size_t until,
                      std::size_t boundary);
  std::string name() const override { return "partition"; }
  double sample(std::size_t sender, std::size_t receiver, std::size_t round,
                Rng& rng) override;

 private:
  double base_mean_, penalty_;
  std::size_t until_, boundary_;
};

/// Materializes the delay family of `config` for an n-node run (`n` fixes
/// the default partition boundary).  Throws std::invalid_argument for an
/// unknown family — parse() already rejects those, so reaching it via a
/// parsed config is a bug.
std::unique_ptr<DelayModel> make_delay_model(const NetConfig& config,
                                             std::size_t n);

/// Per-message wire sizes of one centralized (star-topology) round, for
/// the bandwidth term of star_round_latency: `uplink_bytes[i]` is client
/// i's upload as the trainer priced it — EF-encoded for honest clients,
/// codec-serialized (or dense without a codec) for Byzantine submissions,
/// 0 for a silent round — and `downlink_bytes` the server's broadcast
/// payload.  Empty/zero = free transmission (the pre-wire-cost
/// semantics).
struct StarWire {
  std::vector<std::size_t> uplink_bytes;
  std::size_t downlink_bytes = 0;
};

/// Which of one star round's messages actually arrived (filled by
/// star_round_latency when requested): `uplink[i]` for client i's upload,
/// `downlink[i]` for honest client i's copy of the broadcast.  Lets the
/// trainer count delivered bytes consistently with the event engine's
/// NetworkStats, which also excludes dropped messages.
struct StarDelivery {
  std::vector<bool> uplink;
  std::vector<bool> downlink;
};

/// Simulated latency of one centralized (star-topology) learning round:
/// every client uploads its gradient to the server over a sampled uplink,
/// the server waits for the `quorum`-th arrival (Byzantine clients rush:
/// their propagation is 0, but with `config.bw` set every upload still
/// pays its transmission time wire_bytes / bw), bounded by the timeout
/// when one is configured, then broadcasts the model back and the round
/// ends at the slowest honest downlink (propagation + downlink
/// transmission).  Dropped uplinks never arrive; if fewer than `quorum`
/// make it the server stalls until the timeout (or the last arrival
/// without one).
double star_round_latency(DelayModel& model, const NetConfig& config,
                          std::size_t n, std::size_t f, std::size_t quorum,
                          std::size_t round, const StarWire& wire = {},
                          StarDelivery* delivery = nullptr);

}  // namespace bcl
