#pragma once
// Krum and Multi-Krum (Blanchard et al. 2017), as defined in Section 2.2 of
// the paper (Equations 3 and 4).
//
// Krum selects the received vector whose summed distance to its n - t - 1
// closest neighbours is smallest; Multi-Krum averages the q best-scoring
// vectors.  Theorem 4.3 shows both have unbounded approximation ratio with
// respect to the geometric median; they are implemented here as the
// comparison baselines of the centralized evaluation (Figures 1 and 2).

#include "aggregation/rule.hpp"

namespace bcl {

/// Distance flavour for the Krum score.  The paper's Equation 3 sums plain
/// Euclidean distances; Blanchard et al.'s original formulation sums
/// squared distances.  Both are provided; the ranking can differ.
enum class KrumScore { Euclidean, Squared };

/// Krum scores from a precomputed pairwise distance matrix: score[i] = sum
/// of the (squared) distances from point i to its `closest` nearest other
/// points, added in ascending order.  Throws unless closest < m.
std::vector<double> krum_scores(const DistanceMatrix& dist,
                                std::size_t closest, KrumScore flavour);

class KrumRule final : public AggregationRule {
 public:
  explicit KrumRule(KrumScore flavour = KrumScore::Euclidean)
      : flavour_(flavour) {}
  std::string name() const override { return "KRUM"; }

 protected:
  Vector do_aggregate(const GradientBatch& batch,
                      AggregationWorkspace& workspace,
                      const AggregationContext& ctx) const override;

 private:
  KrumScore flavour_;
};

class MultiKrumRule final : public AggregationRule {
 public:
  /// `q` is the number of best-scoring vectors averaged (the paper's
  /// evaluation uses q = 3).
  explicit MultiKrumRule(std::size_t q,
                         KrumScore flavour = KrumScore::Euclidean)
      : q_(q), flavour_(flavour) {}
  std::string name() const override {
    return "MULTIKRUM-" + std::to_string(q_);
  }

 protected:
  Vector do_aggregate(const GradientBatch& batch,
                      AggregationWorkspace& workspace,
                      const AggregationContext& ctx) const override;

 private:
  std::size_t q_;
  KrumScore flavour_;
};

}  // namespace bcl
