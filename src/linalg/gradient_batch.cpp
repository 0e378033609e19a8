#include "linalg/gradient_batch.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "linalg/kernels.hpp"

namespace bcl {

GradientBatch GradientBatch::from(const VectorList& vs) {
  const std::size_t d = check_same_dimension(vs);
  GradientBatch batch(vs.size(), d);
  for (std::size_t i = 0; i < vs.size(); ++i) {
    std::memcpy(batch.row(i), vs[i].data(), d * sizeof(double));
  }
  return batch;
}

GradientBatch GradientBatch::view(const double* const* rows, std::size_t m,
                                  std::size_t dim) {
  if (m > 0 && rows == nullptr) {
    throw std::invalid_argument("GradientBatch::view: null row table");
  }
  GradientBatch batch;
  batch.m_ = m;
  batch.d_ = dim;
  batch.view_rows_ = rows;
  return batch;
}

void GradientBatch::set_row(std::size_t i, const Vector& v) {
  if (i >= m_) throw std::invalid_argument("GradientBatch: row out of range");
  if (v.size() != d_) {
    throw std::invalid_argument("GradientBatch: dimension mismatch");
  }
  std::memcpy(row(i), v.data(), d_ * sizeof(double));
}

VectorList GradientBatch::to_vectors() const {
  VectorList out;
  out.reserve(m_);
  for (std::size_t i = 0; i < m_; ++i) out.push_back(row_copy(i));
  return out;
}

Vector mean(const GradientBatch& batch) {
  if (batch.empty()) throw std::invalid_argument("mean of empty batch");
  Vector r(batch.dim(), 0.0);
  if (batch.contiguous()) {
    kernels::col_sum(batch.data(), batch.rows(), batch.dim(), r.data());
  } else {
    // View batches have no flat buffer; the per-row accumulation visits the
    // same values in the same per-coordinate row order as col_sum (its
    // documented contract), so both branches are bitwise identical.
    for (std::size_t i = 0; i < batch.rows(); ++i) {
      kernels::add_inplace(r.data(), batch.row(i), batch.dim());
    }
  }
  kernels::scale_inplace(r.data(), 1.0 / static_cast<double>(batch.rows()),
                         r.size());
  return r;
}

Vector mean_of_rows(const GradientBatch& batch,
                    const std::vector<std::size_t>& indices) {
  if (indices.empty()) {
    throw std::invalid_argument("mean_of_rows: empty selection");
  }
  Vector r(batch.dim(), 0.0);
  for (std::size_t i : indices) {
    kernels::add_inplace(r.data(), batch.row(i), batch.dim());
  }
  kernels::scale_inplace(r.data(), 1.0 / static_cast<double>(indices.size()),
                         r.size());
  return r;
}

GradientBatch rows_view(const GradientBatch& batch,
                        const std::vector<std::size_t>& indices,
                        std::vector<const double*>& table) {
  table.clear();
  for (std::size_t i : indices) table.push_back(batch.row(i));
  return GradientBatch::view(table.data(), table.size(), batch.dim());
}

}  // namespace bcl
