// Tests for src/compression (codecs, wire-cost model, error feedback,
// registry grammar), the sparse distance path in src/linalg, and the
// end-to-end compression contracts: comp=identity is bitwise the
// uncompressed stack, and top-k under a bandwidth cap delivers an order
// of magnitude fewer bytes in strictly less simulated time.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "agreement/protocol.hpp"
#include "aggregation/registry.hpp"
#include "compression/codec.hpp"
#include "compression/registry.hpp"
#include "experiments/runner.hpp"
#include "network/adversary.hpp"
#include "experiments/scenario.hpp"
#include "linalg/distance_matrix.hpp"
#include "linalg/kernels.hpp"
#include "linalg/sparse_rows.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace bcl {
namespace {

using experiments::ScenarioSpec;

Vector random_vector(std::size_t dim, Rng& rng) {
  Vector v(dim);
  for (auto& x : v) x = rng.gaussian();
  return v;
}

// --- CompressedGradient ----------------------------------------------------

TEST(CompressedGradient, WireBytesByLayout) {
  CompressedGradient dense;
  dense.dim = 100;
  dense.values.assign(100, 1.0);
  EXPECT_FALSE(dense.sparse());
  EXPECT_EQ(dense.wire_bytes(), 100 * sizeof(double));

  CompressedGradient sparse;
  sparse.dim = 100;
  sparse.indices = {3, 50};
  sparse.values = {1.0, -2.0};
  EXPECT_TRUE(sparse.sparse());
  EXPECT_EQ(sparse.wire_bytes(),
            2 * (sizeof(double) + sizeof(std::uint32_t)));

  sparse.wire_override = 7;
  EXPECT_EQ(sparse.wire_bytes(), 7u);

  const Vector decoded = sparse.decode();
  ASSERT_EQ(decoded.size(), 100u);
  EXPECT_EQ(decoded[3], 1.0);
  EXPECT_EQ(decoded[50], -2.0);
  EXPECT_EQ(decoded[0], 0.0);
}

// --- codecs ----------------------------------------------------------------

TEST(Codec, IdentityRoundTripsBitwise) {
  Rng rng(1);
  const Vector v = random_vector(257, rng);
  IdentityCodec codec;
  EXPECT_TRUE(codec.identity());
  const CompressedGradient encoded = codec.encode(v, 9, 3, 5);
  EXPECT_EQ(encoded.wire_bytes(), dense_wire_bytes(v.size()));
  EXPECT_EQ(encoded.decode(), v);  // bitwise
}

TEST(Codec, TopKKeepsLargestMagnitudesExactly) {
  const Vector v = {0.1, -5.0, 0.2, 3.0, -0.05, 0.0, 4.0, -0.3};
  TopKCodec codec(3.0 / 8.0);  // k = 3
  EXPECT_EQ(codec.k_for(v.size()), 3u);
  const CompressedGradient encoded = codec.encode(v, 0, 0, 0);
  ASSERT_EQ(encoded.indices, (std::vector<std::uint32_t>{1, 3, 6}));
  EXPECT_EQ(encoded.values, (std::vector<double>{-5.0, 3.0, 4.0}));
  const Vector decoded = encoded.decode();
  EXPECT_EQ(decoded[1], -5.0);  // kept coordinates decode bitwise
  EXPECT_EQ(decoded[0], 0.0);
  EXPECT_EQ(encoded.wire_bytes(),
            3 * (sizeof(double) + sizeof(std::uint32_t)));
}

TEST(Codec, TopKTieBreaksTowardLowerIndex) {
  const Vector v = {1.0, -1.0, 1.0, 1.0};
  TopKCodec codec(0.5);  // k = 2
  const CompressedGradient encoded = codec.encode(v, 0, 0, 0);
  EXPECT_EQ(encoded.indices, (std::vector<std::uint32_t>{0, 1}));
}

TEST(Codec, TopKIsIdempotentOnSparseInput) {
  Rng rng(3);
  const Vector v = random_vector(200, rng);
  TopKCodec codec(0.05);  // k = 10
  const Vector once = codec.encode(v, 0, 0, 0).decode();
  const Vector twice = codec.encode(once, 0, 0, 1).decode();
  EXPECT_EQ(once, twice);  // re-encoding an already-k-sparse vector is exact
}

TEST(Codec, RandKDeterministicPerKeyAndVaryingAcrossRounds) {
  Rng rng(4);
  const Vector v = random_vector(500, rng);
  RandKCodec codec(0.02);  // k = 10
  const auto a = codec.encode(v, 11, 2, 7);
  const auto b = codec.encode(v, 11, 2, 7);
  EXPECT_EQ(a.indices, b.indices);  // pure function of (seed, sender, round)
  EXPECT_EQ(a.values, b.values);
  ASSERT_EQ(a.indices.size(), 10u);
  EXPECT_TRUE(std::is_sorted(a.indices.begin(), a.indices.end()));
  EXPECT_TRUE(std::adjacent_find(a.indices.begin(), a.indices.end()) ==
              a.indices.end());  // distinct
  for (std::size_t j = 0; j < a.indices.size(); ++j) {
    EXPECT_EQ(a.values[j], v[a.indices[j]]);  // kept coordinates exact
  }

  const auto other_round = codec.encode(v, 11, 2, 8);
  const auto other_sender = codec.encode(v, 11, 3, 7);
  EXPECT_NE(a.indices, other_round.indices);
  EXPECT_NE(a.indices, other_sender.indices);
}

TEST(Codec, QsgdQuantizesToLevelGridAndShrinksWire) {
  Rng rng(5);
  const Vector v = random_vector(1000, rng);
  QsgdCodec codec(4);
  const auto encoded = codec.encode(v, 21, 0, 0);
  EXPECT_FALSE(encoded.sparse());

  double norm = 0.0;
  for (double x : v) norm += x * x;
  norm = std::sqrt(norm);
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double level = std::fabs(encoded.values[i]) * 4.0 / norm;
    EXPECT_NEAR(level, std::round(level), 1e-9);  // on the grid
    EXPECT_LE(level, 4.0 + 1e-9);
    if (encoded.values[i] != 0.0) {
      EXPECT_EQ(encoded.values[i] < 0.0, v[i] < 0.0);  // sign preserved
    }
  }
  // 2 * 4 + 1 = 9 symbols -> 4 bits per coordinate, plus the norm.
  EXPECT_EQ(codec.bits_per_coordinate(), 4u);
  EXPECT_EQ(encoded.wire_bytes(), sizeof(double) + (1000 * 4 + 7) / 8);
  EXPECT_LT(encoded.wire_bytes(), dense_wire_bytes(v.size()) / 10);

  // Deterministic per key.
  const auto again = codec.encode(v, 21, 0, 0);
  EXPECT_EQ(encoded.values, again.values);

  // Zero in, zero out (no division by a zero norm).
  const Vector zeros_vec(16, 0.0);
  const auto zero_enc = codec.encode(zeros_vec, 0, 0, 0);
  EXPECT_EQ(zero_enc.decode(), zeros_vec);
}

// --- registry --------------------------------------------------------------

TEST(CodecRegistry, UnknownCodecListsValidNames) {
  try {
    make_codec("gzip");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    for (const auto& name : all_codec_names()) {
      EXPECT_NE(message.find(name), std::string::npos) << message;
    }
  }
}

TEST(CodecRegistry, UnknownParameterListsValidKeys) {
  try {
    make_codec("topk:k=5");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("frac"), std::string::npos) << message;
  }
  EXPECT_THROW(make_codec("identity:frac=0.5"), std::invalid_argument);
  EXPECT_THROW(make_codec("topk:frac"), std::invalid_argument);
  EXPECT_THROW(make_codec("topk:frac=2"), std::invalid_argument);
  EXPECT_THROW(make_codec("topk:frac=0"), std::invalid_argument);
  EXPECT_THROW(make_codec("qsgd:levels=0"), std::invalid_argument);
  EXPECT_THROW(make_codec("qsgd:levels=1.5"), std::invalid_argument);
}

TEST(CodecRegistry, EveryFamilyConstructsWithDefaults) {
  for (const auto& name : all_codec_names()) {
    const CodecPtr codec = make_codec(name);
    ASSERT_NE(codec, nullptr) << name;
    Rng rng(6);
    const Vector v = random_vector(300, rng);
    const auto encoded = codec->encode(v, 1, 2, 3);
    EXPECT_EQ(encoded.dim, v.size()) << name;
    EXPECT_GT(encoded.wire_bytes(), 0u) << name;
    EXPECT_EQ(encoded.decode().size(), v.size()) << name;
  }
  EXPECT_TRUE(make_codec("identity")->identity());
  EXPECT_FALSE(make_codec("topk:frac=0.5")->identity());
}

// --- error feedback --------------------------------------------------------

TEST(ErrorFeedback, IdentityIsABitwisePassthrough) {
  Rng rng(7);
  const Vector g = random_vector(100, rng);
  IdentityCodec codec;
  ErrorFeedback ef(2);
  const auto encoded = ef.compress(codec, 0, 1, 0, g.data(), g.size());
  EXPECT_EQ(encoded.decode(), g);
  EXPECT_TRUE(ef.residual(1).empty());  // no residual arithmetic at all
}

TEST(ErrorFeedback, ResidualIsExactlyTheDroppedMass) {
  Rng rng(8);
  const Vector g = random_vector(50, rng);
  TopKCodec codec(0.1);  // k = 5
  ErrorFeedback ef(1);
  const auto encoded = ef.compress(codec, 0, 0, 0, g.data(), g.size());
  const Vector decoded = encoded.decode();
  const Vector& residual = ef.residual(0);
  ASSERT_EQ(residual.size(), g.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(residual[i] + decoded[i], g[i]);  // exact for sparse codecs
  }
}

TEST(ErrorFeedback, MassIsConservedAcrossRounds) {
  // EF-SGD's defining property: what the codec drops is not lost — after T
  // rounds, (sum of transmitted gradients) + residual = sum of true
  // gradients, so sparsified training tracks the uncompressed trajectory.
  const std::size_t dim = 64;
  Rng rng(9);
  TopKCodec codec(0.05);  // k = 4 of 64 per round
  ErrorFeedback ef(1);
  Vector true_sum(dim, 0.0);
  Vector sent_sum(dim, 0.0);
  for (std::size_t round = 0; round < 40; ++round) {
    const Vector g = random_vector(dim, rng);
    for (std::size_t i = 0; i < dim; ++i) true_sum[i] += g[i];
    const Vector decoded =
        ef.compress(codec, 13, 0, round, g.data(), dim).decode();
    for (std::size_t i = 0; i < dim; ++i) sent_sum[i] += decoded[i];
  }
  const Vector& residual = ef.residual(0);
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(sent_sum[i] + residual[i], true_sum[i], 1e-9);
  }
}

// --- sparse kernels and the sparse distance path ---------------------------

TEST(SparseKernels, DotsMatchDense) {
  Rng rng(10);
  const std::size_t dim = 400;
  TopKCodec codec(0.08);
  const Vector a = random_vector(dim, rng);
  const Vector b = random_vector(dim, rng);
  const auto ea = codec.encode(a, 0, 0, 0);
  const auto eb = codec.encode(b, 0, 1, 0);
  const Vector da = ea.decode();
  const Vector db = eb.decode();

  double dense_dot = 0.0;
  double dense_diff = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    dense_dot += da[i] * db[i];
    const double d = da[i] - db[i];
    dense_diff += d * d;
  }
  const double sd = kernels::sparse_dot_sparse(
      ea.indices.data(), ea.values.data(), ea.nnz(), eb.indices.data(),
      eb.values.data(), eb.nnz());
  EXPECT_NEAR(sd, dense_dot, 1e-10);
  const double sdd = kernels::sparse_dot_dense(
      ea.indices.data(), ea.values.data(), ea.nnz(), db.data());
  EXPECT_NEAR(sdd, dense_dot, 1e-10);
  const double sdn = kernels::sparse_diff_norm2(
      ea.indices.data(), ea.values.data(), ea.nnz(), eb.indices.data(),
      eb.values.data(), eb.nnz());
  EXPECT_NEAR(sdn, dense_diff, 1e-10);
}

TEST(SparseRows, ValidatesAndDecodes) {
  SparseRows rows(8);
  const std::vector<std::uint32_t> idx = {1, 5};
  const std::vector<double> val = {2.0, -3.0};
  rows.push_row(idx.data(), val.data(), idx.size());
  const Vector dense_row = {0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 4.0};
  rows.push_dense_row(dense_row.data(), dense_row.size());
  EXPECT_EQ(rows.rows(), 2u);
  EXPECT_EQ(rows.row_nnz(0), 2u);
  EXPECT_EQ(rows.row_nnz(1), 2u);
  Vector out(8);
  rows.decode_row_into(1, out.data());
  EXPECT_EQ(out, dense_row);
  EXPECT_DOUBLE_EQ(rows.density(), 4.0 / 16.0);

  const std::vector<std::uint32_t> unsorted = {5, 1};
  EXPECT_THROW(rows.push_row(unsorted.data(), val.data(), 2),
               std::invalid_argument);
  const std::vector<std::uint32_t> oob = {1, 8};
  EXPECT_THROW(rows.push_row(oob.data(), val.data(), 2),
               std::invalid_argument);
}

TEST(SparseDistanceMatrix, AgreesWithDenseKernelsTo1e9) {
  // The acceptance bound of the sparse path: distances over top-k payloads
  // computed through the sparse Gram kernels agree with the dense builds
  // to <= 1e-9, including a dense (Byzantine-like) row in the mix.
  Rng rng(11);
  const std::size_t dim = 600;
  const std::size_t m = 12;
  TopKCodec codec(0.03);
  SparseRows sparse(dim);
  GradientBatch dense_batch(m, dim);
  for (std::size_t i = 0; i + 1 < m; ++i) {
    const Vector v = random_vector(dim, rng);
    const auto encoded = codec.encode(v, 0, i, 0);
    encoded.append_row_to(sparse);
    encoded.decode_into(dense_batch.row(i));
  }
  const Vector outlier = random_vector(dim, rng);  // dense row rides along
  sparse.push_dense_row(outlier.data(), dim);
  dense_batch.set_row(m - 1, outlier);

  const DistanceMatrix from_sparse(sparse);
  const DistanceMatrix from_batch(dense_batch);
  const DistanceMatrix from_vectors(dense_batch.to_vectors());
  ASSERT_EQ(from_sparse.size(), m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_NEAR(from_sparse.dist(i, j), from_batch.dist(i, j), 1e-9);
      EXPECT_NEAR(from_sparse.dist(i, j), from_vectors.dist(i, j), 1e-9);
    }
  }

  // The parallel build is identical to the serial one.
  ThreadPool pool(4);
  const DistanceMatrix parallel(sparse, &pool);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_EQ(parallel.dist2(i, j), from_sparse.dist2(i, j));
    }
  }
}

TEST(SparseDistanceMatrix, NearDuplicateRowsSurviveCancellation) {
  // Two sparse rows that differ in one tiny coordinate: the Gram identity
  // alone would cancel catastrophically; the guard recompute through the
  // sparse difference form must keep full precision.
  SparseRows rows(1000);
  const std::vector<std::uint32_t> idx = {10, 500};
  const std::vector<double> a = {1000.0, 1000.0};
  const std::vector<double> b = {1000.0, 1000.0 + 1e-6};
  rows.push_row(idx.data(), a.data(), 2);
  rows.push_row(idx.data(), b.data(), 2);
  const DistanceMatrix matrix(rows);
  // Tolerance covers fl(1000 + 1e-6)'s representation error (~6e-14), not
  // the ~1e-3 garbage the unguarded identity would produce.
  EXPECT_NEAR(matrix.dist(0, 1), 1e-6, 1e-12);
}

// --- agreement integration -------------------------------------------------

TEST(AgreementComp, SubRoundZeroShipsInputsUntransformed) {
  // The trainers already codec-encoded the agreement inputs (their loss
  // is in the EF residuals), so sub-round 0 must broadcast them as-is —
  // a stochastic re-encode (rand-k under a fresh stream) would land on a
  // different support and silently destroy the gradient.  With a single
  // sub-round the compressed run must therefore match the uncompressed
  // run bitwise, while still being priced at the encoded wire sizes.
  const std::size_t n = 4;
  const std::size_t dim = 200;
  Rng rng(31);
  RandKCodec codec(0.05);
  VectorList inputs;
  std::vector<std::size_t> wire(n, HonestProcess::kDenseWire);
  for (std::size_t i = 0; i < n; ++i) {
    const Vector g = random_vector(dim, rng);
    const auto encoded = codec.encode(g, 5, i, 0);  // "trainer" encode
    inputs.push_back(encoded.decode());
    wire[i] = encoded.wire_bytes();
  }

  AgreementConfig base;
  base.n = n;
  base.t = 1;
  base.rule = make_rule("BOX-GEOM");
  AgreementConfig compressed = base;
  compressed.codec = &codec;
  compressed.codec_seed = 99;  // a fresh stream, as the trainers mix it
  compressed.input_wire_bytes = wire;

  NoAdversary adversary_a;
  NoAdversary adversary_b;
  const auto plain =
      run_fixed_rounds_agreement(GradientBatch::from(inputs), adversary_a, 1,
                                 base);
  const auto comp =
      run_fixed_rounds_agreement(GradientBatch::from(inputs), adversary_b, 1,
                                 compressed);
  ASSERT_EQ(plain.outputs.size(), comp.outputs.size());
  for (std::size_t i = 0; i < plain.outputs.size(); ++i) {
    EXPECT_EQ(plain.outputs[i], comp.outputs[i]);  // bitwise
  }
  // ...but the wire accounting reflects the encoded sizes.
  EXPECT_LT(comp.network.bytes_delivered, plain.network.bytes_delivered);
  EXPECT_GT(comp.network.bytes_delivered, 0u);
}

// --- scenario integration --------------------------------------------------

TEST(ScenarioComp, KeyRoundTripsAndValidatesEagerly) {
  const auto spec =
      ScenarioSpec::parse("rule=KRUM comp=topk:frac=0.02 f=1");
  EXPECT_EQ(spec.comp, "topk:frac=0.02");
  EXPECT_EQ(spec, ScenarioSpec::parse(spec.to_string()));
  EXPECT_NE(spec.name().find("topk:frac=0.02"), std::string::npos);
  // The default stays out of the derived name.
  EXPECT_EQ(ScenarioSpec{}.name().find("identity"), std::string::npos);
  EXPECT_THROW(ScenarioSpec::parse("comp=gzip"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("comp=topk:frac=0"),
               std::invalid_argument);
}

// Collects every per-round metric that the trainers compute
// deterministically, for bitwise comparisons across configurations.
std::vector<std::vector<double>> deterministic_history(
    const TrainingResult& result) {
  std::vector<std::vector<double>> out;
  for (const auto& m : result.history) {
    out.push_back({m.accuracy, m.accuracy_min, m.accuracy_max,
                   m.mean_honest_loss, m.learning_rate, m.disagreement,
                   m.gradient_diameter, m.sim_seconds});
  }
  return out;
}

TEST(ScenarioComp, IdentityIsBitwiseEqualToOmittingComp) {
  // comp=identity must preserve every existing scenario result bitwise —
  // the compression path is genuinely skipped, not approximately skipped.
  for (const char* topology : {"centralized", "decentralized"}) {
    const std::string base = std::string("topology=") + topology +
                             " rule=BOX-GEOM attack=sign-flip n=4 f=1 "
                             "rounds=2 eval-max=40 "
                             "net=async:delay=exp,mean=2,bw=50000";
    experiments::ScenarioRunner runner;
    const auto without = runner.run(ScenarioSpec::parse(base));
    const auto with =
        runner.run(ScenarioSpec::parse(base + " comp=identity"));
    ASSERT_TRUE(without.error.empty()) << without.error;
    ASSERT_TRUE(with.error.empty()) << with.error;
    EXPECT_EQ(deterministic_history(without.result),
              deterministic_history(with.result))
        << topology;
    // Identity still accounts (dense) bytes, identically in both.
    EXPECT_GT(without.result.bytes_total(), 0.0);
    EXPECT_EQ(without.result.bytes_total(), with.result.bytes_total());
    EXPECT_DOUBLE_EQ(without.result.compression_ratio(), 1.0);
  }
}

TEST(ScenarioComp, TopKUnderBandwidthCutsBytesTenfoldAndTime) {
  // The headline acceptance contract: with comp=topk:frac=0.01 and bw set,
  // the sweep delivers >= 10x fewer bytes and strictly lower sim_seconds
  // than identity, in both topologies.
  for (const char* topology : {"centralized", "decentralized"}) {
    const std::string base = std::string("topology=") + topology +
                             " rule=BOX-GEOM attack=sign-flip n=6 f=1 "
                             "rounds=2 eval-max=40 "
                             "net=async:delay=const,mean=1,bw=100000";
    experiments::ScenarioRunner runner;
    const auto identity = runner.run(ScenarioSpec::parse(base));
    const auto topk =
        runner.run(ScenarioSpec::parse(base + " comp=topk:frac=0.01"));
    ASSERT_TRUE(identity.error.empty()) << identity.error;
    ASSERT_TRUE(topk.error.empty()) << topk.error;

    const double identity_bytes = identity.result.bytes_total();
    const double topk_bytes = topk.result.bytes_total();
    ASSERT_GT(topk_bytes, 0.0) << topology;
    EXPECT_GE(identity_bytes / topk_bytes, 10.0) << topology;
    EXPECT_GE(topk.result.compression_ratio(), 10.0) << topology;

    const double identity_sim = identity.result.sim_seconds_total();
    const double topk_sim = topk.result.sim_seconds_total();
    EXPECT_GT(identity_sim, 0.0) << topology;
    EXPECT_LT(topk_sim, identity_sim) << topology;
  }
}

TEST(ScenarioComp, EveryCodecFamilyTrainsEndToEnd) {
  // Smoke over the whole registry in both topologies: no codec family may
  // crash a run, and the byte accounting must be populated.
  for (const auto& name : all_codec_names()) {
    for (const char* topology : {"centralized", "decentralized"}) {
      const std::string spec_text = std::string("topology=") + topology +
                                    " rule=MEAN attack=none n=4 f=0 "
                                    "rounds=2 eval-max=40 comp=" +
                                    name;
      experiments::ScenarioRunner runner;
      const auto summary = runner.run(ScenarioSpec::parse(spec_text));
      EXPECT_TRUE(summary.error.empty())
          << name << "/" << topology << ": " << summary.error;
      EXPECT_EQ(summary.result.history.size(), 2u);
      EXPECT_GT(summary.result.bytes_total(), 0.0) << name;
      EXPECT_GE(summary.result.compression_ratio(), 1.0) << name;
    }
  }
}

TEST(ScenarioComp, ErrorFeedbackKeepsTopKTrainingClose) {
  // Convergence guard: EF-compressed top-k training on the honest-only
  // scenario must stay within a modest band of the uncompressed loss after
  // a few rounds (it is allowed to differ — the codec is lossy — but EF
  // must prevent collapse).
  const std::string base =
      "topology=centralized rule=MEAN attack=none n=4 f=0 rounds=8 "
      "eval-max=60";
  experiments::ScenarioRunner runner;
  const auto dense = runner.run(ScenarioSpec::parse(base));
  const auto topk =
      runner.run(ScenarioSpec::parse(base + " comp=topk:frac=0.05"));
  ASSERT_TRUE(dense.error.empty());
  ASSERT_TRUE(topk.error.empty());
  const double dense_loss = dense.result.history.back().mean_honest_loss;
  const double topk_loss = topk.result.history.back().mean_honest_loss;
  const double start_loss = dense.result.history.front().mean_honest_loss;
  // Uncompressed training reduces the loss; EF top-k must achieve a real
  // fraction of that reduction rather than stalling at the start.
  ASSERT_LT(dense_loss, start_loss);
  EXPECT_LT(topk_loss, start_loss - 0.25 * (start_loss - dense_loss));
}

}  // namespace
}  // namespace bcl
