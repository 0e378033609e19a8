#pragma once
// Byzantine adversary model of the synchronous simulator.
//
// The communication model (Section 2.3): n nodes exchange vectors in
// synchronous rounds over reliable broadcast.  Reliable broadcast prevents
// equivocation — a sender's value in a round is unique — which the
// simulator enforces structurally: the adversary supplies one value per
// Byzantine node per round.  The adversary may still *selectively omit*
// deliveries of its own messages ("receive up to n messages"), crash, and
// choose its values omnisciently after seeing every honest value of the
// round.  Honest-to-honest delivery is never interfered with (synchrony).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "linalg/vector_ops.hpp"

namespace bcl {

/// Strategy interface.  One instance drives all Byzantine nodes of a run,
/// so coordinated (colluding) behaviour is expressible.
class Adversary {
 public:
  virtual ~Adversary() = default;

  /// True if node `node` is Byzantine.  Must be constant over a run.
  virtual bool is_byzantine(std::size_t node) const = 0;

  /// The unique value Byzantine node `node` reliably broadcasts in `round`,
  /// or nullopt to stay silent (crash/omission of the whole broadcast).
  /// `honest_values[i]` holds the value honest node i broadcasts this round
  /// (nullopt at Byzantine indices) — the omniscient-adversary convention
  /// of the Byzantine-ML literature.
  virtual std::optional<Vector> byzantine_value(
      std::size_t node, std::size_t round,
      const std::vector<std::optional<Vector>>& honest_values) = 0;

  /// Whether the (already fixed) value of Byzantine `sender` reaches
  /// `receiver` this round.  Selective omission hook; defaults to full
  /// delivery.
  virtual bool delivers(std::size_t sender, std::size_t receiver,
                        std::size_t round) {
    (void)sender;
    (void)receiver;
    (void)round;
    return true;
  }

  /// Whether the adversary *requests* to delay the honest message
  /// sender -> receiver this round ("receive up to n messages": in the
  /// asynchronous-flavoured model the scheduler may withhold some honest
  /// messages, but every honest node is still guaranteed at least n - t).
  /// The network honors requests only while the receiver's inbox stays at
  /// n - t or more; defaults to no delays (fully synchronous).
  virtual bool delays_honest(std::size_t sender, std::size_t receiver,
                             std::size_t round) {
    (void)sender;
    (void)receiver;
    (void)round;
    return false;
  }

  /// Extra simulated latency the adversary injects on the message
  /// sender -> receiver in `round` (scheduling power under partial
  /// synchrony: targeted slow-downs of honest links, or holding back its
  /// own messages instead of rushing them).  The discrete-event engine
  /// clamps the request to [0, adversary_delay_bound] and never consults
  /// the hook when the bound is 0 — in particular the default synchronous
  /// configuration never calls it.  Defaults to no extra delay.
  ///
  /// Decision hooks (delivers, delays_honest, scheduling_delay) must be
  /// pure functions of their arguments: the engine may consult them a
  /// different number of times per link per round, and its sharded event
  /// core consults them concurrently from worker threads (one per
  /// receiver), so they must not mutate adversary state.  Value fixing
  /// (byzantine_value) stays strictly serial on the driving thread.
  virtual double scheduling_delay(std::size_t sender, std::size_t receiver,
                                  std::size_t round) {
    (void)sender;
    (void)receiver;
    (void)round;
    return 0.0;
  }

  /// Number of Byzantine nodes among ids [0, n).
  std::size_t count_byzantine(std::size_t n) const;
};

/// No faults at all (f = 0 baseline).
class NoAdversary final : public Adversary {
 public:
  bool is_byzantine(std::size_t) const override { return false; }
  std::optional<Vector> byzantine_value(
      std::size_t, std::size_t,
      const std::vector<std::optional<Vector>>&) override {
    return std::nullopt;
  }
};

/// Crash faults: the listed nodes broadcast nothing from `crash_round` on
/// (before it they behave honestly by echoing `pre_crash_value`... they have
/// no honest state, so they send the supplied initial vector).
class CrashAdversary final : public Adversary {
 public:
  CrashAdversary(std::vector<std::size_t> byzantine_ids,
                 std::size_t crash_round, VectorList pre_crash_values);
  bool is_byzantine(std::size_t node) const override;
  std::optional<Vector> byzantine_value(
      std::size_t node, std::size_t round,
      const std::vector<std::optional<Vector>>& honest_values) override;

 private:
  std::vector<std::size_t> ids_;
  std::size_t crash_round_;
  VectorList pre_crash_values_;
};

/// Each Byzantine node broadcasts a fixed vector every round.
class FixedVectorAdversary final : public Adversary {
 public:
  FixedVectorAdversary(std::vector<std::size_t> byzantine_ids, Vector value);
  bool is_byzantine(std::size_t node) const override;
  std::optional<Vector> byzantine_value(
      std::size_t node, std::size_t round,
      const std::vector<std::optional<Vector>>& honest_values) override;

 private:
  std::vector<std::size_t> ids_;
  Vector value_;
};

/// Sign-flip in agreement space: every Byzantine node broadcasts
/// -scale * mean(honest values of the round), the gradient-inversion attack
/// of the evaluation section lifted to the agreement subroutine.
class SignFlipAdversary final : public Adversary {
 public:
  SignFlipAdversary(std::vector<std::size_t> byzantine_ids, double scale = 1.0);
  bool is_byzantine(std::size_t node) const override;
  std::optional<Vector> byzantine_value(
      std::size_t node, std::size_t round,
      const std::vector<std::optional<Vector>>& honest_values) override;

 private:
  std::vector<std::size_t> ids_;
  double scale_;
};

/// Decorates another adversary with random honest-message delays drawn
/// from a seeded stream: each honest link is independently requested to be
/// delayed with probability `drop_probability` per round.  The network
/// still guarantees n - t deliveries per honest receiver, so this models
/// the "up to n messages" slack of the communication model.
class DelayingAdversary final : public Adversary {
 public:
  /// `inner` provides the Byzantine behaviour (may be NoAdversary).
  /// Does not take ownership; `inner` must outlive this object.
  DelayingAdversary(Adversary& inner, double drop_probability,
                    std::uint64_t seed);
  bool is_byzantine(std::size_t node) const override;
  std::optional<Vector> byzantine_value(
      std::size_t node, std::size_t round,
      const std::vector<std::optional<Vector>>& honest_values) override;
  bool delivers(std::size_t sender, std::size_t receiver,
                std::size_t round) override;
  bool delays_honest(std::size_t sender, std::size_t receiver,
                     std::size_t round) override;

 private:
  Adversary& inner_;
  double drop_probability_;
  std::uint64_t seed_;
};

/// Each Byzantine node broadcasts its own fixed value every round; nullopt
/// entries stay silent (crashed).  This is how learning-round gradient
/// attacks are embedded into the agreement sub-rounds: the attacker fixes
/// its corrupted gradient once per learning round and repeats it.
class PerNodeFixedAdversary final : public Adversary {
 public:
  /// `values[i]` is the broadcast of node i when Byzantine; only entries at
  /// ids listed in `byzantine_ids` are used.
  PerNodeFixedAdversary(std::vector<std::size_t> byzantine_ids,
                        std::vector<std::optional<Vector>> values);
  bool is_byzantine(std::size_t node) const override;
  std::optional<Vector> byzantine_value(
      std::size_t node, std::size_t round,
      const std::vector<std::optional<Vector>>& honest_values) override;

 private:
  std::vector<std::size_t> ids_;
  std::vector<std::optional<Vector>> values_;
};

/// The Lemma 4.2 construction.  Honest nodes are split into two camps
/// (U1 holding v1, U2 holding v2).  Byzantine nodes also split: the first
/// half broadcasts the camp-1 value and delivers it *only to U1*; the
/// second half broadcasts the camp-2 value only to U2.  Against MD-GEOM
/// with adversary-favourable tie-breaking this reproduces the initial
/// configuration forever.
class SplitWorldAdversary final : public Adversary {
 public:
  /// `camp1` / `camp2`: honest node ids of each camp.  `byz_camp1` /
  /// `byz_camp2`: Byzantine ids supporting each camp.
  SplitWorldAdversary(std::vector<std::size_t> camp1,
                      std::vector<std::size_t> camp2,
                      std::vector<std::size_t> byz_camp1,
                      std::vector<std::size_t> byz_camp2);
  bool is_byzantine(std::size_t node) const override;
  std::optional<Vector> byzantine_value(
      std::size_t node, std::size_t round,
      const std::vector<std::optional<Vector>>& honest_values) override;
  bool delivers(std::size_t sender, std::size_t receiver,
                std::size_t round) override;

 private:
  bool in(const std::vector<std::size_t>& ids, std::size_t node) const;
  std::vector<std::size_t> camp1_, camp2_, byz1_, byz2_;
};

}  // namespace bcl
