#include "linalg/sketch.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/kernels.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace bcl {
namespace {
// Salt for the sign-matrix stream; mixed with the caller's sketch seed so
// two sketches with different seeds are independent.
constexpr std::uint64_t kSketchSalt = 0x5E7C4B1D9A03F6E5ull;
}  // namespace

RademacherSketch::RademacherSketch(std::size_t dim, std::size_t k,
                                   std::uint64_t seed)
    : dim_(dim),
      k_(k),
      scale_(1.0 / std::sqrt(static_cast<double>(k))) {
  if (dim == 0 || k == 0) {
    throw std::invalid_argument("RademacherSketch: dim and k must be > 0");
  }
  // The sign stream is drawn bit-packed (one u64 per 64 signs, in
  // input-dimension-major order) and expanded to +-1.0 doubles stored
  // k x d — one d-length sign row per sketch coordinate — so that
  // projection is one multi-row dot of the input row against contiguous
  // sign rows (kernels::dot_rows, at full SIMD throughput).  The double
  // form costs dim * k * 8 bytes (~1 MiB at d=1842, k=64); any per-bit
  // extraction at apply time ran scalar and cost as much as the exact
  // O(m^2 * d) Gram build the sketch is supposed to displace.
  signs_.resize(dim_ * k_);
  Rng rng(splitmix64(seed ^ kSketchSalt));
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < dim_; ++i) {
    for (std::size_t j = 0; j < k_; ++j) {
      if (j % 64 == 0) word = rng.next_u64();
      signs_[j * dim_ + i] = (word >> (j % 64)) & 1ull ? 1.0 : -1.0;
    }
  }
}

// Both application paths compute out[j] = scale * (row . sign_j) through
// kernels::dot_rows — the two-chain SIMD Gram kernel, whose per-entry
// arithmetic is documented to be independent of kernel width, blocking,
// and threading — so per-row and batch application are bit-identical to
// each other.  (A strict-order dot, one sequential chain per entry, was
// ~4x slower per flop here, and a sketch coordinate has no bitwise-legacy
// contract to honour.)
void RademacherSketch::apply_row(const double* row, double* out) const {
  for (std::size_t j = 0; j < k_; ++j) out[j] = 0.0;
  kernels::dot_rows(row, signs_.data(), k_, dim_, out);
  for (std::size_t j = 0; j < k_; ++j) out[j] *= scale_;
}

GradientBatch RademacherSketch::apply(const GradientBatch& batch,
                                      ThreadPool* pool) const {
  if (batch.dim() != dim_) {
    throw std::invalid_argument("RademacherSketch::apply: dimension mismatch");
  }
  GradientBatch out(batch.rows(), k_);
  // Sketching every row against the full sign matrix in one sweep would
  // stream all dim * k * 8 sign bytes (~1 MiB at d=1842, k=64) per batch
  // row.  Instead the j-loop tiles the sign matrix into kSignTile-row
  // slabs that stay cache-resident while every batch row in the block
  // passes over them.  dot_rows' per-entry arithmetic is tile-width
  // independent, so tiled and untiled application agree bitwise.
  constexpr std::size_t kSignTile = 8;
  const auto sketch_rows = [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      double* const o = out.row(r);
      for (std::size_t j = 0; j < k_; ++j) o[j] = 0.0;
    }
    for (std::size_t j0 = 0; j0 < k_; j0 += kSignTile) {
      const std::size_t jw = std::min(kSignTile, k_ - j0);
      for (std::size_t r = r0; r < r1; ++r) {
        kernels::dot_rows(batch.row(r), signs_.data() + j0 * dim_, jw, dim_,
                          out.row(r) + j0);
      }
    }
    for (std::size_t r = r0; r < r1; ++r) {
      double* const o = out.row(r);
      for (std::size_t j = 0; j < k_; ++j) o[j] *= scale_;
    }
  };
  if (pool != nullptr && batch.rows() > 1) {
    const std::size_t chunk = 64;
    const std::size_t chunks = (batch.rows() + chunk - 1) / chunk;
    pool->parallel_for(0, chunks, [&](std::size_t c) {
      const std::size_t r0 = c * chunk;
      sketch_rows(r0, std::min(r0 + chunk, batch.rows()));
    });
  } else {
    sketch_rows(0, batch.rows());
  }
  return out;
}

double RademacherSketch::relative_error(std::size_t m) const {
  const double logm = std::log(static_cast<double>(m < 2 ? 2 : m));
  return std::sqrt(8.0 * logm / static_cast<double>(k_));
}

DistanceMatrix sketched_distances(const GradientBatch& batch,
                                  const RademacherSketch& sketch,
                                  ThreadPool* pool) {
  const GradientBatch projected = sketch.apply(batch, pool);
  return DistanceMatrix(projected, pool);
}

}  // namespace bcl
