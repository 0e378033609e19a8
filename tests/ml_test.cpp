// Tests for src/ml: tensors, every layer's analytic gradient against
// central finite differences, loss, model parameter round-trips, synthetic
// datasets and the three partition schemes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>

#include "ml/activations.hpp"
#include "ml/architectures.hpp"
#include "ml/conv2d.hpp"
#include "ml/dataset.hpp"
#include "ml/dense.hpp"
#include "ml/loss.hpp"
#include "ml/model.hpp"
#include "ml/optimizer.hpp"
#include "ml/partition.hpp"
#include "ml/pooling.hpp"
#include "ml/reshape.hpp"
#include "util/rng.hpp"

namespace bcl::ml {
namespace {

// --- Tensor ---

TEST(Tensor, ShapeAndVolume) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.size(), 24u);
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_EQ(t.dim(1), 3u);
  EXPECT_THROW(t.dim(3), std::out_of_range);
}

TEST(Tensor, DataMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, {1.0, 2.0, 3.0}), std::invalid_argument);
}

TEST(Tensor, At2RowMajor) {
  Tensor t({2, 3}, {0.0, 1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(t.at2(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(t.at2(1, 0), 3.0);
}

TEST(Tensor, At4Indexing) {
  Tensor t({1, 2, 2, 2});
  t.at4(0, 1, 1, 0) = 9.0;
  EXPECT_DOUBLE_EQ(t[6], 9.0);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 2}, {1.0, 2.0, 3.0, 4.0});
  Tensor r = t.reshaped({4});
  EXPECT_DOUBLE_EQ(r[3], 4.0);
  EXPECT_THROW(t.reshaped({5}), std::invalid_argument);
}

// --- finite-difference gradient checking helper ---

// Checks dLoss/dparams and dLoss/dinput of `model` on a random batch via
// central differences.
void check_gradients(Model& model, std::size_t input_dim, std::size_t classes,
                     std::size_t batch, std::uint64_t seed,
                     double tol = 1e-6) {
  Rng rng(seed);
  model.initialize(rng);
  Tensor x({batch, input_dim});
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.uniform(-1.0, 1.0);
  std::vector<std::uint8_t> y(batch);
  for (auto& label : y) {
    label = static_cast<std::uint8_t>(rng.uniform_u64(classes));
  }

  model.compute_loss_and_gradient(x, y);
  const Vector analytic = model.gradients();
  Vector theta = model.parameters();

  // Sample a subset of parameters to keep the test fast but representative.
  Rng pick(seed + 1);
  const std::size_t samples = std::min<std::size_t>(theta.size(), 40);
  const double h = 1e-5;
  for (std::size_t s = 0; s < samples; ++s) {
    const std::size_t idx = pick.uniform_u64(theta.size());
    Vector theta_plus = theta;
    Vector theta_minus = theta;
    theta_plus[idx] += h;
    theta_minus[idx] -= h;
    model.set_parameters(theta_plus);
    const double loss_plus = model.compute_loss(x, y);
    model.set_parameters(theta_minus);
    const double loss_minus = model.compute_loss(x, y);
    const double numeric = (loss_plus - loss_minus) / (2.0 * h);
    EXPECT_NEAR(analytic[idx], numeric, tol * (1.0 + std::abs(numeric)))
        << "param index " << idx;
  }
  model.set_parameters(theta);
}

// --- Dense ---

TEST(Dense, ForwardMatchesManualMatMul) {
  Dense layer(2, 2);
  // W = [[1, 2], [3, 4]], b = [0.5, -0.5].
  layer.write_parameters(
      std::vector<double>{1.0, 2.0, 3.0, 4.0, 0.5, -0.5}.data());
  Tensor x({1, 2}, {1.0, 1.0});
  const Tensor y = layer.forward(x);
  EXPECT_DOUBLE_EQ(y.at2(0, 0), 4.5);   // 1*1 + 1*3 + 0.5
  EXPECT_DOUBLE_EQ(y.at2(0, 1), 5.5);   // 1*2 + 1*4 - 0.5
}

TEST(Dense, ParameterRoundTrip) {
  Dense layer(3, 4);
  Rng rng(1);
  layer.initialize(rng);
  std::vector<double> out(layer.parameter_count());
  layer.read_parameters(out.data());
  Dense layer2(3, 4);
  layer2.write_parameters(out.data());
  std::vector<double> out2(layer2.parameter_count());
  layer2.read_parameters(out2.data());
  EXPECT_EQ(out, out2);
}

TEST(Dense, GradientCheckMlp) {
  Model model = make_mlp(6, 5, 4, 3);
  check_gradients(model, 6, 3, 4, 11);
}

TEST(Dense, RejectsWrongInputShape) {
  Dense layer(3, 2);
  Tensor x({2, 4});
  EXPECT_THROW(layer.forward(x), std::invalid_argument);
}

TEST(Dense, ZeroSizedThrows) {
  EXPECT_THROW(Dense(0, 2), std::invalid_argument);
}

// --- activations ---

TEST(ReLU, ClampsNegatives) {
  ReLU relu;
  Tensor x({1, 4}, {-1.0, 0.0, 2.0, -3.0});
  const Tensor y = relu.forward(x);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 2.0);
}

TEST(ReLU, BackwardMasksByInputSign) {
  ReLU relu;
  Tensor x({1, 3}, {-1.0, 1.0, 2.0});
  relu.forward(x);
  Tensor g({1, 3}, {5.0, 5.0, 5.0});
  const Tensor gx = relu.backward(g);
  EXPECT_DOUBLE_EQ(gx[0], 0.0);
  EXPECT_DOUBLE_EQ(gx[1], 5.0);
}

TEST(Tanh, GradientCheckThroughModel) {
  Model model;
  model.add(std::make_unique<Dense>(4, 5))
      .add(std::make_unique<Tanh>())
      .add(std::make_unique<Dense>(5, 3));
  check_gradients(model, 4, 3, 3, 12);
}

// --- conv / pool / reshape ---

TEST(Conv2D, KnownKernelOutput) {
  Conv2D conv(1, 1, 2, 0);  // identity-ish 2x2 kernel
  // kernel [[1, 0], [0, 1]], bias 1.
  conv.write_parameters(std::vector<double>{1.0, 0.0, 0.0, 1.0, 1.0}.data());
  Tensor x({1, 1, 2, 2}, {1.0, 2.0, 3.0, 4.0});
  const Tensor y = conv.forward(x);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_DOUBLE_EQ(y[0], 1.0 + 4.0 + 1.0);  // x[0,0] + x[1,1] + bias
}

TEST(Conv2D, PaddingPreservesSpatialSize) {
  Conv2D conv(1, 2, 3, 1);
  Tensor x({2, 1, 5, 5});
  const Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 2, 5, 5}));
}

TEST(Conv2D, KernelLargerThanInputThrows) {
  Conv2D conv(1, 1, 7, 0);
  Tensor x({1, 1, 3, 3});
  EXPECT_THROW(conv.forward(x), std::invalid_argument);
}

TEST(Conv2D, GradientCheckSmallConvNet) {
  Model model;
  model.add(std::make_unique<Reshape>(std::vector<std::size_t>{1, 4, 4}))
      .add(std::make_unique<Conv2D>(1, 2, 3, 1))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<MaxPool2D>(2))
      .add(std::make_unique<Flatten>())
      .add(std::make_unique<Dense>(8, 3));
  check_gradients(model, 16, 3, 3, 13, 1e-5);
}

TEST(MaxPool2D, SelectsWindowMaxima) {
  MaxPool2D pool(2);
  Tensor x({1, 1, 2, 2}, {1.0, 5.0, 3.0, 2.0});
  const Tensor y = pool.forward(x);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
}

TEST(MaxPool2D, BackwardRoutesToArgmax) {
  MaxPool2D pool(2);
  Tensor x({1, 1, 2, 2}, {1.0, 5.0, 3.0, 2.0});
  pool.forward(x);
  Tensor g({1, 1, 1, 1}, {7.0});
  const Tensor gx = pool.backward(g);
  EXPECT_DOUBLE_EQ(gx[1], 7.0);
  EXPECT_DOUBLE_EQ(gx[0], 0.0);
}

TEST(MaxPool2D, IndivisibleDimsThrow) {
  MaxPool2D pool(2);
  Tensor x({1, 1, 3, 4});
  EXPECT_THROW(pool.forward(x), std::invalid_argument);
}

TEST(Reshape, RoundTripThroughFlatten) {
  Reshape reshape(std::vector<std::size_t>{2, 3, 2});
  Flatten flatten;
  Tensor x({4, 12});
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(i);
  const Tensor shaped = reshape.forward(x);
  EXPECT_EQ(shaped.shape(), (std::vector<std::size_t>{4, 2, 3, 2}));
  const Tensor flat = flatten.forward(shaped);
  EXPECT_EQ(flat.shape(), (std::vector<std::size_t>{4, 12}));
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_DOUBLE_EQ(flat[i], x[i]);
  }
}

// --- loss ---

TEST(Loss, SoftmaxRowsSumToOne) {
  Tensor logits({2, 3}, {1.0, 2.0, 3.0, -1.0, 0.0, 1.0});
  const Tensor p = softmax(logits);
  for (std::size_t n = 0; n < 2; ++n) {
    double sum = 0.0;
    for (std::size_t k = 0; k < 3; ++k) sum += p.at2(n, k);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(Loss, UniformLogitsGiveLogK) {
  Tensor logits({1, 4}, {0.0, 0.0, 0.0, 0.0});
  const auto r = softmax_cross_entropy(logits, {2});
  EXPECT_NEAR(r.loss, std::log(4.0), 1e-12);
}

TEST(Loss, NumericallyStableWithHugeLogits) {
  Tensor logits({1, 3}, {1000.0, 0.0, -1000.0});
  const auto r = softmax_cross_entropy(logits, {0});
  EXPECT_NEAR(r.loss, 0.0, 1e-9);
  EXPECT_TRUE(std::isfinite(r.loss));
}

TEST(Loss, GradientSumsToZeroPerRow) {
  Tensor logits({2, 3}, {0.5, -0.5, 1.0, 2.0, 0.0, -1.0});
  const auto r = softmax_cross_entropy(logits, {1, 0});
  for (std::size_t n = 0; n < 2; ++n) {
    double sum = 0.0;
    for (std::size_t k = 0; k < 3; ++k) sum += r.grad_logits.at2(n, k);
    EXPECT_NEAR(sum, 0.0, 1e-12);
  }
}

TEST(Loss, LabelOutOfRangeThrows) {
  Tensor logits({1, 3});
  EXPECT_THROW(softmax_cross_entropy(logits, {3}), std::invalid_argument);
  EXPECT_THROW(softmax_cross_entropy(logits, {0, 1}), std::invalid_argument);
}

TEST(Loss, ArgmaxRows) {
  Tensor logits({2, 3}, {0.1, 0.9, 0.0, 5.0, -1.0, 2.0});
  const auto pred = argmax_rows(logits);
  EXPECT_EQ(pred[0], 1);
  EXPECT_EQ(pred[1], 0);
}

// --- model ---

TEST(Model, ParameterVectorRoundTrip) {
  Model model = make_mlp(5, 4, 3, 2);
  Rng rng(14);
  model.initialize(rng);
  const Vector theta = model.parameters();
  EXPECT_EQ(theta.size(), model.parameter_count());
  Model model2 = make_mlp(5, 4, 3, 2);
  model2.set_parameters(theta);
  EXPECT_EQ(model2.parameters(), theta);
}

TEST(Model, ParameterCountMlp) {
  const Model model = make_mlp(10, 8, 6, 4);
  EXPECT_EQ(model.parameter_count(),
            10u * 8 + 8 + 8 * 6 + 6 + 6 * 4 + 4);
}

TEST(Model, SetParametersSizeMismatchThrows) {
  Model model = make_mlp(3, 2, 2, 2);
  EXPECT_THROW(model.set_parameters(Vector{1.0}), std::invalid_argument);
}

TEST(Model, TrainingReducesLossOnToyProblem) {
  Model model = make_linear(4, 2);
  Rng rng(15);
  model.initialize(rng);
  // Linearly separable toy data.
  Tensor x({8, 4});
  std::vector<std::uint8_t> y(8);
  for (std::size_t i = 0; i < 8; ++i) {
    y[i] = static_cast<std::uint8_t>(i % 2);
    for (std::size_t k = 0; k < 4; ++k) {
      x.at2(i, k) = (y[i] == 0 ? 1.0 : -1.0) + 0.1 * rng.gaussian();
    }
  }
  const double initial_loss = model.compute_loss(x, y);
  Vector theta = model.parameters();
  for (int step = 0; step < 200; ++step) {
    model.set_parameters(theta);
    model.compute_loss_and_gradient(x, y);
    sgd_step(theta, model.gradients(), 0.5);
  }
  model.set_parameters(theta);
  EXPECT_LT(model.compute_loss(x, y), initial_loss * 0.2);
  EXPECT_EQ(model.accuracy(x, y), 1.0);
}

TEST(Model, CifarNetShapesFlowThrough) {
  Model model = make_cifarnet(3, 16, 16, 10, 4, 8, 16);
  Rng rng(16);
  model.initialize(rng);
  Tensor x({2, 3 * 16 * 16});
  const Tensor logits = model.forward(x);
  EXPECT_EQ(logits.shape(), (std::vector<std::size_t>{2, 10}));
  EXPECT_GT(model.parameter_count(), 1000u);
}

TEST(Model, CifarNetGradientCheck) {
  Model model = make_cifarnet(1, 8, 8, 3, 2, 3, 6);
  check_gradients(model, 64, 3, 2, 17, 1e-5);
}

// Model::backward ends at the first layer with parameters, through its
// backward_params(), and never forms dLoss/dInput.  Its parameter
// gradients must be bitwise those of a walk that runs every layer's full
// backward().
void expect_backward_matches_full_walk(Model fast, Model full,
                                       std::size_t input_dim,
                                       std::size_t classes,
                                       std::uint64_t seed) {
  Rng rng(seed);
  fast.initialize(rng);
  full.set_parameters(fast.parameters());
  const std::size_t batch = 6;
  Tensor x({batch, input_dim});
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.uniform(-1.0, 1.0);
  std::vector<std::uint8_t> labels(batch);
  for (auto& label : labels) {
    label = static_cast<std::uint8_t>(rng.uniform_u64(classes));
  }

  fast.compute_loss_and_gradient(x, labels);
  full.zero_gradients();
  Tensor g = softmax_cross_entropy(full.forward(x), labels).grad_logits;
  for (std::size_t i = full.num_layers(); i-- > 0;) {
    g = full.layer(i).backward(g);
  }
  const Vector want = full.gradients();
  const Vector got = fast.gradients();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0);
}

TEST(Model, BackwardMatchesFullLayerWalkBitwise) {
  expect_backward_matches_full_walk(make_mlp(20, 12, 8, 5),
                                    make_mlp(20, 12, 8, 5), 20, 5, 31);
  expect_backward_matches_full_walk(make_cifarnet(3, 16, 16, 10, 4, 8, 24),
                                    make_cifarnet(3, 16, 16, 10, 4, 8, 24),
                                    3 * 16 * 16, 10, 32);
}

TEST(Model, ParamsOnlyBackwardKeepsShapeChecks) {
  Dense dense(4, 3);
  EXPECT_THROW(dense.backward_params(Tensor({2, 3})), std::logic_error);
  dense.forward(Tensor({2, 4}));
  EXPECT_THROW(dense.backward_params(Tensor({2, 2})), std::invalid_argument);
  EXPECT_THROW(dense.backward_params(Tensor({3, 3})), std::logic_error);

  Conv2D conv(1, 2, 3, 1);
  EXPECT_THROW(conv.backward_params(Tensor({1, 2, 4, 4})), std::logic_error);
  conv.forward(Tensor({1, 1, 4, 4}));
  EXPECT_THROW(conv.backward_params(Tensor({1, 2, 4, 3})),
               std::invalid_argument);
  EXPECT_THROW(conv.backward_params(Tensor({2, 2, 4, 4})),
               std::invalid_argument);
}

// --- optimizer ---

TEST(Optimizer, SgdStepMovesAgainstGradient) {
  Vector theta{1.0, 2.0};
  sgd_step(theta, {0.5, -1.0}, 0.1);
  EXPECT_DOUBLE_EQ(theta[0], 0.95);
  EXPECT_DOUBLE_EQ(theta[1], 2.1);
}

TEST(Optimizer, ScheduleDecaysOverRounds) {
  const auto schedule = LearningRateSchedule::paper_default(100);
  EXPECT_DOUBLE_EQ(schedule.rate(0), 0.01);
  EXPECT_LT(schedule.rate(100), schedule.rate(0));
  EXPECT_NEAR(schedule.rate(100), 0.01 / (1.0 + 0.01 / 100.0 * 100.0), 1e-12);
}

TEST(Optimizer, ZeroDecayIsConstant) {
  const LearningRateSchedule schedule(0.05, 0.0);
  EXPECT_DOUBLE_EQ(schedule.rate(0), schedule.rate(1000));
}

// --- dataset ---

TEST(Dataset, DeterministicInSeed) {
  const auto a = make_synthetic_dataset(SyntheticSpec::mnist_small(7));
  const auto b = make_synthetic_dataset(SyntheticSpec::mnist_small(7));
  ASSERT_EQ(a.train.size(), b.train.size());
  EXPECT_EQ(a.train.images[0], b.train.images[0]);
  EXPECT_EQ(a.train.labels, b.train.labels);
}

TEST(Dataset, DifferentSeedsDiffer) {
  const auto a = make_synthetic_dataset(SyntheticSpec::mnist_small(7));
  const auto b = make_synthetic_dataset(SyntheticSpec::mnist_small(8));
  EXPECT_NE(a.train.images[0], b.train.images[0]);
}

TEST(Dataset, ShapesAndRanges) {
  const auto data = make_synthetic_dataset(SyntheticSpec::mnist_small(9));
  EXPECT_EQ(data.train.feature_dim(), 14u * 14u);
  EXPECT_EQ(data.train.size(), 10u * 120u);
  EXPECT_EQ(data.test.size(), 10u * 30u);
  for (double v : data.train.images[0]) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Dataset, AllClassesPresentAndBalanced) {
  const auto data = make_synthetic_dataset(SyntheticSpec::mnist_small(10));
  std::vector<std::size_t> counts(10, 0);
  for (auto label : data.train.labels) ++counts[label];
  for (std::size_t c = 0; c < 10; ++c) EXPECT_EQ(counts[c], 120u);
}

TEST(Dataset, BatchAssembly) {
  const auto data = make_synthetic_dataset(SyntheticSpec::mnist_small(11));
  const Tensor batch = data.train.batch({0, 5, 9});
  EXPECT_EQ(batch.shape(),
            (std::vector<std::size_t>{3, data.train.feature_dim()}));
  const auto labels = data.train.batch_labels({0, 5, 9});
  EXPECT_EQ(labels.size(), 3u);
  EXPECT_EQ(labels[1], data.train.labels[5]);
}

TEST(Dataset, LearnableByLinearModel) {
  // The MNIST-like task must be learnable, otherwise the collaborative
  // experiments are meaningless.  A linear softmax model should exceed 80%
  // within a few full-batch steps.
  SyntheticSpec spec = SyntheticSpec::mnist_small(12);
  spec.train_per_class = 40;
  spec.test_per_class = 20;
  const auto data = make_synthetic_dataset(spec);
  Model model = make_linear(data.train.feature_dim(), 10);
  Rng rng(18);
  model.initialize(rng);
  std::vector<std::size_t> all(data.train.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const Tensor x = data.train.batch(all);
  const auto y = data.train.batch_labels(all);
  Vector theta = model.parameters();
  for (int step = 0; step < 60; ++step) {
    model.set_parameters(theta);
    model.compute_loss_and_gradient(x, y);
    sgd_step(theta, model.gradients(), 0.5);
  }
  model.set_parameters(theta);
  std::vector<std::size_t> test_all(data.test.size());
  for (std::size_t i = 0; i < test_all.size(); ++i) test_all[i] = i;
  const double acc =
      model.accuracy(data.test.batch(test_all), data.test.batch_labels(test_all));
  EXPECT_GT(acc, 0.8);
}

TEST(Dataset, CifarLikeIsHarderThanMnistLike) {
  // The CIFAR-like profile blends prototypes and adds noise; its achievable
  // linear accuracy must be lower, mirroring the paper's MNIST vs CIFAR10
  // gap.
  auto train_linear = [](const TrainTestSplit& data) {
    Model model = make_linear(data.train.feature_dim(), 10);
    Rng rng(19);
    model.initialize(rng);
    std::vector<std::size_t> all(data.train.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    const Tensor x = data.train.batch(all);
    const auto y = data.train.batch_labels(all);
    Vector theta = model.parameters();
    for (int step = 0; step < 40; ++step) {
      model.set_parameters(theta);
      model.compute_loss_and_gradient(x, y);
      sgd_step(theta, model.gradients(), 0.5);
    }
    model.set_parameters(theta);
    std::vector<std::size_t> test_all(data.test.size());
    for (std::size_t i = 0; i < test_all.size(); ++i) test_all[i] = i;
    return model.accuracy(data.test.batch(test_all),
                          data.test.batch_labels(test_all));
  };
  SyntheticSpec mnist = SyntheticSpec::mnist_small(20);
  mnist.train_per_class = 30;
  SyntheticSpec cifar = SyntheticSpec::cifar_small(20);
  cifar.train_per_class = 30;
  const double easy = train_linear(make_synthetic_dataset(mnist));
  const double hard = train_linear(make_synthetic_dataset(cifar));
  EXPECT_GT(easy, hard);
}

// --- partition ---

class PartitionTest : public ::testing::TestWithParam<int> {};

TEST_P(PartitionTest, EveryExampleAssignedExactlyOnce) {
  const auto data = make_synthetic_dataset(SyntheticSpec::mnist_small(21));
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (auto scheme : {Heterogeneity::Uniform, Heterogeneity::Mild,
                      Heterogeneity::Extreme}) {
    const auto shards = partition_dataset(data.train, 10, scheme, rng);
    std::set<std::size_t> seen;
    std::size_t total = 0;
    for (const auto& shard : shards) {
      total += shard.size();
      seen.insert(shard.begin(), shard.end());
    }
    EXPECT_EQ(total, data.train.size());
    EXPECT_EQ(seen.size(), data.train.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionTest, ::testing::Range(0, 4));

TEST(Partition, UniformGivesAllClassesToEveryClient) {
  const auto data = make_synthetic_dataset(SyntheticSpec::mnist_small(22));
  Rng rng(1);
  const auto shards =
      partition_dataset(data.train, 10, Heterogeneity::Uniform, rng);
  for (const auto& shard : shards) {
    EXPECT_EQ(distinct_labels(data.train, shard), 10u);
  }
}

TEST(Partition, MildSharesAreFivePercentToFifteenPercent) {
  const auto data = make_synthetic_dataset(SyntheticSpec::mnist_small(23));
  Rng rng(2);
  const auto shards =
      partition_dataset(data.train, 10, Heterogeneity::Mild, rng);
  // Count per-client share of class 0: must include one ~5% and one ~15%.
  const std::size_t class_total = 120;
  std::vector<std::size_t> counts(10, 0);
  for (std::size_t c = 0; c < 10; ++c) {
    for (std::size_t i : shards[c]) {
      if (data.train.labels[i] == 0) ++counts[c];
    }
  }
  const std::size_t lo = *std::min_element(counts.begin(), counts.end());
  const std::size_t hi = *std::max_element(counts.begin(), counts.end());
  EXPECT_NEAR(static_cast<double>(lo) / class_total, 0.05, 0.02);
  EXPECT_NEAR(static_cast<double>(hi) / class_total, 0.15, 0.02);
}

TEST(Partition, MildKeepsTotalsRoughlyBalanced) {
  const auto data = make_synthetic_dataset(SyntheticSpec::mnist_small(24));
  Rng rng(3);
  const auto shards =
      partition_dataset(data.train, 10, Heterogeneity::Mild, rng);
  const double expected = static_cast<double>(data.train.size()) / 10.0;
  for (const auto& shard : shards) {
    EXPECT_NEAR(static_cast<double>(shard.size()), expected, expected * 0.2);
  }
}

TEST(Partition, ExtremeGivesAtMostTwoClasses) {
  const auto data = make_synthetic_dataset(SyntheticSpec::mnist_small(25));
  Rng rng(4);
  const auto shards =
      partition_dataset(data.train, 10, Heterogeneity::Extreme, rng);
  for (const auto& shard : shards) {
    EXPECT_LE(distinct_labels(data.train, shard), 3u);  // 2 shards can
    // straddle at most 3 labels when a shard boundary splits a class.
    EXPECT_GE(shard.size(), 1u);
  }
}

TEST(Partition, ParseAndNames) {
  EXPECT_EQ(parse_heterogeneity("mild"), Heterogeneity::Mild);
  EXPECT_STREQ(heterogeneity_name(Heterogeneity::Extreme), "extreme");
  EXPECT_THROW(parse_heterogeneity("nope"), std::invalid_argument);
}

TEST(Partition, ZeroClientsThrows) {
  const auto data = make_synthetic_dataset(SyntheticSpec::mnist_small(26));
  Rng rng(5);
  EXPECT_THROW(partition_dataset(data.train, 0, Heterogeneity::Uniform, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace bcl::ml
