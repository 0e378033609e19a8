// Tests for src/attacks: every Byzantine client behaviour and the
// label-flip data poisoning helper.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "attacks/attack.hpp"
#include "attacks/registry.hpp"
#include "linalg/gradient_batch.hpp"
#include "linalg/hyperbox.hpp"
#include "ml/dataset.hpp"
#include "util/rng.hpp"

namespace bcl {
namespace {

const Vector kOwn{1.0, -2.0, 3.0};
const GradientBatch kHonest =
    GradientBatch::from({{1.0, 0.0, 0.0}, {3.0, 0.0, 0.0}});

TEST(SignFlip, NegatesOwnGradient) {
  SignFlipAttack attack;
  Rng rng(1);
  const auto out = attack.corrupt(kOwn, kHonest, 0, rng);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, (Vector{-1.0, 2.0, -3.0}));
}

TEST(SignFlip, ScaleMultiplies) {
  SignFlipAttack attack(4.0);
  Rng rng(2);
  const auto out = attack.corrupt(kOwn, kHonest, 3, rng);
  EXPECT_EQ(*out, (Vector{-4.0, 8.0, -12.0}));
}

TEST(Crash, SilentFromRound) {
  CrashAttack attack(2);
  Rng rng(3);
  EXPECT_TRUE(attack.corrupt(kOwn, kHonest, 0, rng).has_value());
  EXPECT_TRUE(attack.corrupt(kOwn, kHonest, 1, rng).has_value());
  EXPECT_FALSE(attack.corrupt(kOwn, kHonest, 2, rng).has_value());
  EXPECT_FALSE(attack.corrupt(kOwn, kHonest, 100, rng).has_value());
}

TEST(Crash, HonestBeforeCrash) {
  CrashAttack attack(1);
  Rng rng(4);
  EXPECT_EQ(*attack.corrupt(kOwn, kHonest, 0, rng), kOwn);
}

TEST(RandomAttack, IgnoresDataAndMatchesSigma) {
  RandomGradientAttack attack(2.0);
  Rng rng(5);
  double sum2 = 0.0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    const auto out = attack.corrupt(kOwn, kHonest, 0, rng);
    sum2 += norm2_squared(*out);
  }
  // E||g||^2 = d * sigma^2 = 3 * 4 = 12.
  EXPECT_NEAR(sum2 / trials, 12.0, 1.0);
}

TEST(ScaleAttack, Magnifies) {
  ScaleAttack attack(100.0);
  Rng rng(6);
  EXPECT_EQ(*attack.corrupt(kOwn, kHonest, 0, rng),
            (Vector{100.0, -200.0, 300.0}));
}

TEST(ZeroAttack, AllZeros) {
  ZeroAttack attack;
  Rng rng(7);
  EXPECT_EQ(*attack.corrupt(kOwn, kHonest, 0, rng), zeros(3));
}

TEST(OppositeMean, NegatesHonestMean) {
  OppositeMeanAttack attack;
  Rng rng(8);
  const auto out = attack.corrupt(kOwn, kHonest, 0, rng);
  EXPECT_EQ(*out, (Vector{-2.0, 0.0, 0.0}));
}

TEST(OppositeMean, FallsBackToOwnWhenNoHonest) {
  OppositeMeanAttack attack;
  Rng rng(9);
  const auto out = attack.corrupt(kOwn, {}, 0, rng);
  EXPECT_EQ(*out, scale(kOwn, -1.0));
}

TEST(NoAttack, PassesThrough) {
  NoAttack attack;
  Rng rng(10);
  EXPECT_EQ(*attack.corrupt(kOwn, kHonest, 0, rng), kOwn);
}

TEST(Registry, CreatesAllAttacks) {
  for (const auto& name : all_attack_names()) {
    const auto attack = make_attack(name);
    ASSERT_NE(attack, nullptr);
    // "sign-flip-10" is a configured SignFlipAttack; its name() reports the
    // family.
    if (name != "sign-flip-10") {
      EXPECT_EQ(attack->name(), name);
    }
  }
  EXPECT_THROW(make_attack("bogus"), std::invalid_argument);
}

TEST(Alie, SubmitsMeanPlusZStd) {
  ALittleIsEnoughAttack attack(2.0);
  Rng rng(20);
  // honest columns: coord0 {1, 3} -> mean 2, std 1; coord1 {0, 0}.
  const VectorList honest{{1.0, 0.0}, {3.0, 0.0}};
  const auto out =
      attack.corrupt({9.0, 9.0}, GradientBatch::from(honest), 0, rng);
  ASSERT_TRUE(out.has_value());
  EXPECT_DOUBLE_EQ((*out)[0], 4.0);  // 2 + 2*1
  EXPECT_DOUBLE_EQ((*out)[1], 0.0);
}

TEST(Alie, StaysInsideTrimmedRangeWithSmallZ) {
  // With z <= 1 the ALIE vector per coordinate is within the honest spread
  // whenever enough honest values straddle the mean, which is what makes it
  // survive coordinate trimming.
  ALittleIsEnoughAttack attack(0.5);
  Rng rng(21);
  VectorList honest;
  for (int i = 0; i < 9; ++i) {
    honest.push_back({rng.gaussian(), rng.gaussian()});
  }
  const auto out =
      attack.corrupt(honest[0], GradientBatch::from(honest), 0, rng);
  ASSERT_TRUE(out.has_value());
  const Hyperbox box = Hyperbox::bounding(GradientBatch::from(honest));
  EXPECT_TRUE(box.contains(*out, 1e-9));
}

TEST(Alie, FallsBackToOwnGradientWithoutHonestView) {
  ALittleIsEnoughAttack attack;
  Rng rng(22);
  EXPECT_EQ(*attack.corrupt(kOwn, {}, 0, rng), kOwn);
}

TEST(SignFlipTen, ScalesByTen) {
  const auto attack = make_attack("sign-flip-10");
  Rng rng(23);
  const auto out = attack->corrupt({1.0}, {}, 0, rng);
  EXPECT_DOUBLE_EQ((*out)[0], -10.0);
}

TEST(LabelFlip, RemapsOnlyShardLabels) {
  ml::Dataset data;
  data.num_classes = 10;
  data.channels = data.height = data.width = 1;
  for (std::uint8_t c = 0; c < 10; ++c) {
    data.images.push_back({0.0});
    data.labels.push_back(c);
  }
  flip_labels_in_place(data, {0, 9});
  EXPECT_EQ(data.labels[0], 9);   // 0 -> 9
  EXPECT_EQ(data.labels[9], 0);   // 9 -> 0
  EXPECT_EQ(data.labels[5], 5);   // untouched (not in shard)
}

TEST(Attacks, DeterministicGivenSameRngState) {
  RandomGradientAttack attack(1.0);
  Rng a(42);
  Rng b(42);
  EXPECT_EQ(*attack.corrupt(kOwn, kHonest, 0, a),
            *attack.corrupt(kOwn, kHonest, 0, b));
}

// The trainers lend attacks a borrowed view over rows they own.  Every
// registered attack must craft the bitwise-same vector, and consume the
// same randomness, from an owned batch as from a view over separately
// allocated rows holding the same values.
TEST(Attacks, OwnedBatchAndViewAreBitwiseEqual) {
  const std::size_t d = 5;
  Rng gen(31);
  Vector own(d);
  for (double& x : own) x = gen.gaussian();
  for (const std::size_t m : {0u, 1u, 7u}) {
    VectorList rows(m, Vector(d));
    for (Vector& row : rows) {
      for (double& x : row) x = gen.gaussian(0.5, 2.0);
    }
    std::vector<const double*> table;
    for (const Vector& row : rows) table.push_back(row.data());
    const GradientBatch owned = GradientBatch::from(rows);
    const GradientBatch view = GradientBatch::view(table.data(), m, d);
    ASSERT_EQ(view.contiguous(), m == 0);  // an empty table borrows nothing
    for (const auto& name : all_attack_names()) {
      const auto attack = make_attack(name);
      Rng a(100 + m);
      Rng b(100 + m);
      const auto x = attack->corrupt(own, owned, 3, a);
      const auto y = attack->corrupt(own, view, 3, b);
      ASSERT_EQ(x.has_value(), y.has_value()) << name << " m=" << m;
      if (x) {
        ASSERT_EQ(x->size(), y->size()) << name << " m=" << m;
        const std::size_t bytes = x->size() * sizeof(double);
        EXPECT_EQ(std::memcmp(x->data(), y->data(), bytes), 0)
            << name << " m=" << m;
      }
      EXPECT_EQ(a.state(), b.state()) << name << " m=" << m;
    }
  }
}

}  // namespace
}  // namespace bcl
