#pragma once
// Byzantine client behaviours for collaborative learning (Section 5.1).
//
// Threat model.  A gradient attack decides what a Byzantine client submits
// in a learning round.  Per the standard omniscient threat model, the
// attacker sees (a) the gradient the client would have submitted if honest
// (computed on its real local shard) and (b) every honest submission of the
// round, before the aggregation rule runs.  The honest submissions arrive
// as the round's GradientBatch rows — typically a borrowed view over the
// trainer's gradient block (GradientBatch::view), so no per-round copy is
// made for an attack that never reads them.  Byzantine clients may collude:
// in both trainers every Byzantine client shares one GradientAttack
// instance, so "all attackers submit the same crafted vector" is the
// default collusion mode.  Attacks must not mutate shared state in
// corrupt() — the trainers may call it from multiple Byzantine ids in one
// round, and determinism is owed to the caller-provided Rng alone.
//
// The paper's principal attack is the sign flip: compute the local
// gradient, invert its sign, submit it.  Crash failures, the classic
// baseline attacks from the surveyed literature (random, scale, zero,
// opposite-mean, ALIE) and the stealth/collusion family (IPM, mimic,
// min-max, label-flip) are included for the ablation scenarios.
//
// Name-based construction lives in attacks/registry.hpp (`make_attack`),
// mirroring the aggregation-rule registry.

#include <cstddef>
#include <memory>
#include <optional>
#include <string>

#include "linalg/gradient_batch.hpp"
#include "linalg/vector_ops.hpp"
#include "ml/dataset.hpp"
#include "util/rng.hpp"

namespace bcl {

/// Interface of one Byzantine behaviour.  Implementations are immutable
/// after construction (all round-to-round variation flows through the
/// corrupt() arguments), so one shared_ptr<const GradientAttack> can serve
/// every Byzantine client of a run concurrently.
class GradientAttack {
 public:
  virtual ~GradientAttack() = default;

  /// Canonical family name as registered with make_attack ("sign-flip",
  /// "mimic", ...).  Parameterized instances report the family, not the
  /// parameters: make_attack("sign-flip:scale=2")->name() == "sign-flip".
  virtual std::string name() const = 0;

  /// The vector the Byzantine client submits this round; nullopt = silent
  /// (crash / omitted broadcast).  `own_gradient` is the gradient the
  /// client would have submitted if honest; the rows of `honest` are the
  /// actual honest submissions of the round, in client-id order (may be
  /// empty when the caller has no honest view, e.g. unit tests — attacks
  /// must degrade gracefully to a function of own_gradient).  `honest` may
  /// be a borrowed view whose rows are valid only for the duration of the
  /// call: read it through rows()/row()/row_copy()/mean()/to_vectors() and
  /// never keep it.  Must be deterministic given (arguments, rng state);
  /// an owned batch and a view over the same rows give bitwise-equal
  /// results.
  virtual std::optional<Vector> corrupt(const Vector& own_gradient,
                                        const GradientBatch& honest,
                                        std::size_t round, Rng& rng) const = 0;

  /// True if this behaviour corrupts the Byzantine clients' *data* rather
  /// than (or in addition to) their submitted vectors.  The trainers check
  /// this once at setup and apply flip_labels_in_place to a copy of the
  /// Byzantine shards, so the "own gradient" passed to corrupt() is already
  /// computed on poisoned data.  Default: false.
  virtual bool poisons_labels() const { return false; }

  /// Staleness the attacker claims for the upload it starts in `round`
  /// under a bounded-staleness server with acceptance bound `tau` (the
  /// stale= dimension): the submission arrives that many versions late,
  /// disguised as an honest straggler.  The caller clamps to tau.  Most
  /// attacks rush (0, the default); StaleStrikeAttack returns tau so its
  /// poison lands in the thinnest accepted cohort.  Pure function of its
  /// arguments, like corrupt().
  virtual std::size_t submit_staleness(std::size_t round,
                                       std::size_t tau) const {
    (void)round;
    (void)tau;
    return 0;
  }
};

using GradientAttackPtr = std::shared_ptr<const GradientAttack>;

/// Sign flip (the evaluation's main attack): submit -scale * own_gradient.
/// scale defaults to 1; scale=10 is the amplified El-Mhamdi et al. variant.
class SignFlipAttack final : public GradientAttack {
 public:
  explicit SignFlipAttack(double attack_scale = 1.0) : scale_(attack_scale) {}
  std::string name() const override { return "sign-flip"; }
  std::optional<Vector> corrupt(const Vector& own_gradient,
                                const GradientBatch& honest,
                                std::size_t round, Rng& rng) const override;

 private:
  double scale_;
};

/// Crash from a given round on (silent before contributing anything when
/// from_round == 0); honest until then.
class CrashAttack final : public GradientAttack {
 public:
  explicit CrashAttack(std::size_t from_round = 0) : from_round_(from_round) {}
  std::string name() const override { return "crash"; }
  std::optional<Vector> corrupt(const Vector& own_gradient,
                                const GradientBatch& honest,
                                std::size_t round, Rng& rng) const override;

 private:
  std::size_t from_round_;
};

/// Gaussian noise of the given sigma, ignoring the data entirely (the
/// "random parameter modification" attack class).
class RandomGradientAttack final : public GradientAttack {
 public:
  explicit RandomGradientAttack(double sigma = 1.0) : sigma_(sigma) {}
  std::string name() const override { return "random"; }
  std::optional<Vector> corrupt(const Vector& own_gradient,
                                const GradientBatch& honest,
                                std::size_t round, Rng& rng) const override;

 private:
  double sigma_;
};

/// Scales the honest gradient by a large factor (magnitude attack).
class ScaleAttack final : public GradientAttack {
 public:
  explicit ScaleAttack(double factor = 100.0) : factor_(factor) {}
  std::string name() const override { return "scale"; }
  std::optional<Vector> corrupt(const Vector& own_gradient,
                                const GradientBatch& honest,
                                std::size_t round, Rng& rng) const override;

 private:
  double factor_;
};

/// Always submits the zero vector (lazy freerider).
class ZeroAttack final : public GradientAttack {
 public:
  std::string name() const override { return "zero"; }
  std::optional<Vector> corrupt(const Vector& own_gradient,
                                const GradientBatch& honest,
                                std::size_t round, Rng& rng) const override;
};

/// Blanchard et al.'s omniscient attack: submit the negated mean of the
/// honest gradients, cancelling linear aggregation.  Base of
/// InnerProductAttack, which is the same map in a different scale regime.
class OppositeMeanAttack : public GradientAttack {
 public:
  explicit OppositeMeanAttack(double attack_scale = 1.0)
      : scale_(attack_scale) {}
  std::string name() const override { return "opposite-mean"; }
  std::optional<Vector> corrupt(const Vector& own_gradient,
                                const GradientBatch& honest,
                                std::size_t round, Rng& rng) const override;

 private:
  double scale_;
};

/// Staleness-exploiting strike (the stale= dimension's adversary): delays
/// every submission to land at exactly the maximal accepted staleness
/// (submit_staleness returns tau), then submits -scale * mean of the honest
/// gradients that arrived alongside it.  Late rounds are where the cohort
/// is thinnest — stragglers rejected, crashed clients absent — so the same
/// opposite-mean poison meets the least honest mass that can outvote it;
/// `cohort` > 0 additionally holds fire (honest pass-through) whenever more
/// than that many honest gradients landed in the round.
class StaleStrikeAttack final : public GradientAttack {
 public:
  explicit StaleStrikeAttack(double attack_scale = 1.0,
                             std::size_t cohort = 0)
      : scale_(attack_scale), cohort_(cohort) {}
  std::string name() const override { return "stale-strike"; }
  std::optional<Vector> corrupt(const Vector& own_gradient,
                                const GradientBatch& honest,
                                std::size_t round, Rng& rng) const override;
  std::size_t submit_staleness(std::size_t round,
                               std::size_t tau) const override {
    (void)round;
    return tau;
  }

 private:
  double scale_;
  std::size_t cohort_;
};

/// "A Little Is Enough" (Baruch et al.): submits mean(honest) +
/// z * std(honest) per coordinate — a stealth attack that stays inside the
/// honest spread, designed to defeat trimming-style defences slowly.
class ALittleIsEnoughAttack final : public GradientAttack {
 public:
  explicit ALittleIsEnoughAttack(double z = 1.5) : z_(z) {}
  std::string name() const override { return "alie"; }
  std::optional<Vector> corrupt(const Vector& own_gradient,
                                const GradientBatch& honest,
                                std::size_t round, Rng& rng) const override;

 private:
  double z_;
};

/// Inner-product manipulation (Xie et al., "Fall of Empires"): every
/// attacker submits -epsilon * mean(honest) with a *small* epsilon, so the
/// crafted vector sits close to the honest cluster (surviving
/// distance-based filters) while pushing the aggregate's inner product
/// with the true descent direction toward/below zero.  The map is
/// opposite-mean's; only the name and the default (stealth-regime epsilon
/// instead of full cancellation) differ, so it shares the implementation.
class InnerProductAttack final : public OppositeMeanAttack {
 public:
  explicit InnerProductAttack(double epsilon = 0.1)
      : OppositeMeanAttack(epsilon) {}
  std::string name() const override { return "ipm"; }
};

/// Colluding mimic (Karimireddy et al.): all attackers copy the submission
/// of one fixed honest client, over-weighting its (heterogeneous) data
/// distribution without ever leaving the honest set — no filter can reject
/// a vector an honest client actually sent.  `target` indexes into the
/// honest submissions (clamped to the honest count).
class MimicAttack final : public GradientAttack {
 public:
  explicit MimicAttack(std::size_t target = 0) : target_(target) {}
  std::string name() const override { return "mimic"; }
  std::optional<Vector> corrupt(const Vector& own_gradient,
                                const GradientBatch& honest,
                                std::size_t round, Rng& rng) const override;

 private:
  std::size_t target_;
};

/// Optimal variance attack (Shejwalkar & Houmansadr's AGR-agnostic
/// "min-max"): submit mu + gamma * p with p = -mu/||mu|| and the largest
/// gamma such that the crafted vector's distance to every honest gradient
/// stays within the honest diameter.  The submission is provably
/// indistinguishable from an honest straggler by any pairwise-distance
/// criterion, yet maximally displaced against the descent direction.
class MinMaxAttack final : public GradientAttack {
 public:
  std::string name() const override { return "min-max"; }
  std::optional<Vector> corrupt(const Vector& own_gradient,
                                const GradientBatch& honest,
                                std::size_t round, Rng& rng) const override;
};

/// Static label-flip data poisoning: the Byzantine clients train honestly,
/// but on shards whose labels were remapped y -> num_classes - 1 - y at
/// setup (poisons_labels() == true; the trainers apply
/// flip_labels_in_place to a copy of the Byzantine shards).  corrupt()
/// passes the — already poisoned — own gradient through unchanged.
class LabelFlipAttack final : public GradientAttack {
 public:
  std::string name() const override { return "label-flip"; }
  bool poisons_labels() const override { return true; }
  std::optional<Vector> corrupt(const Vector& own_gradient,
                                const GradientBatch& honest,
                                std::size_t round, Rng& rng) const override;
};

/// Honest behaviour (control arm of the benches).
class NoAttack final : public GradientAttack {
 public:
  std::string name() const override { return "none"; }
  std::optional<Vector> corrupt(const Vector& own_gradient,
                                const GradientBatch& honest,
                                std::size_t round, Rng& rng) const override;
};

/// Label-flip poisoning primitive: remaps every label y of the given shard
/// indices to (num_classes - 1 - y), in place.  Applied by the trainers to
/// a *copy* of the training set at setup time (never to the caller's
/// dataset), once, before any gradients are computed.
void flip_labels_in_place(ml::Dataset& dataset,
                          const std::vector<std::size_t>& shard);

/// Trainer-setup hook for data-poisoning attacks: when `attack` poisons
/// labels and there are Byzantine clients, fills `poisoned_storage` with a
/// copy of `train` whose last `num_byzantine` shards are label-flipped and
/// returns &poisoned_storage; otherwise returns &train untouched.
/// Byzantine clients must read from the returned dataset, honest clients
/// from `train`; the caller keeps `poisoned_storage` alive as long as
/// those clients.
const ml::Dataset* poison_byzantine_shards(
    const GradientAttack& attack, const ml::Dataset& train,
    const std::vector<std::vector<std::size_t>>& shards,
    std::size_t num_byzantine, ml::Dataset& poisoned_storage);

}  // namespace bcl
