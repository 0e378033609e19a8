#include "linalg/hyperbox.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bcl {

Hyperbox::Hyperbox(Vector lo, Vector hi) : lo_(std::move(lo)), hi_(std::move(hi)) {
  if (lo_.size() != hi_.size()) {
    throw std::invalid_argument("Hyperbox: corner dimension mismatch");
  }
  for (std::size_t k = 0; k < lo_.size(); ++k) {
    if (lo_[k] > hi_[k]) {
      throw std::invalid_argument("Hyperbox: lo > hi in some coordinate");
    }
  }
}

Hyperbox Hyperbox::point(const Vector& p) { return Hyperbox(p, p); }

Hyperbox Hyperbox::bounding(const GradientBatch& points) {
  if (points.empty()) {
    throw std::invalid_argument("Hyperbox::bounding: empty point list");
  }
  Vector lo = points.row_copy(0);
  Vector hi = points.row_copy(0);
  for (std::size_t i = 0; i < points.rows(); ++i) {
    const double* p = points.row(i);
    for (std::size_t k = 0; k < points.dim(); ++k) {
      lo[k] = std::min(lo[k], p[k]);
      hi[k] = std::max(hi[k], p[k]);
    }
  }
  return Hyperbox(std::move(lo), std::move(hi));
}

bool Hyperbox::contains(const Vector& p, double tol) const {
  if (p.size() != dimension()) return false;
  for (std::size_t k = 0; k < p.size(); ++k) {
    if (p[k] < lo_[k] - tol || p[k] > hi_[k] + tol) return false;
  }
  return true;
}

bool Hyperbox::contains_box(const Hyperbox& other, double tol) const {
  if (other.dimension() != dimension()) return false;
  for (std::size_t k = 0; k < dimension(); ++k) {
    if (other.lo_[k] < lo_[k] - tol || other.hi_[k] > hi_[k] + tol) {
      return false;
    }
  }
  return true;
}

Vector Hyperbox::midpoint() const {
  Vector m(dimension());
  for (std::size_t k = 0; k < dimension(); ++k) {
    m[k] = 0.5 * (lo_[k] + hi_[k]);
  }
  return m;
}

double Hyperbox::max_edge() const {
  double e = 0.0;
  for (std::size_t k = 0; k < dimension(); ++k) {
    e = std::max(e, hi_[k] - lo_[k]);
  }
  return e;
}

double Hyperbox::diagonal() const {
  double s = 0.0;
  for (std::size_t k = 0; k < dimension(); ++k) {
    const double e = hi_[k] - lo_[k];
    s += e * e;
  }
  return std::sqrt(s);
}

std::optional<Hyperbox> Hyperbox::intersect(const Hyperbox& a,
                                            const Hyperbox& b) {
  if (a.dimension() != b.dimension()) {
    throw std::invalid_argument("Hyperbox::intersect: dimension mismatch");
  }
  Vector lo(a.dimension());
  Vector hi(a.dimension());
  for (std::size_t k = 0; k < a.dimension(); ++k) {
    lo[k] = std::max(a.lo_[k], b.lo_[k]);
    hi[k] = std::min(a.hi_[k], b.hi_[k]);
    if (lo[k] > hi[k]) return std::nullopt;
  }
  return Hyperbox(std::move(lo), std::move(hi));
}

Hyperbox Hyperbox::merge(const Hyperbox& a, const Hyperbox& b) {
  if (a.dimension() != b.dimension()) {
    throw std::invalid_argument("Hyperbox::merge: dimension mismatch");
  }
  Vector lo(a.dimension());
  Vector hi(a.dimension());
  for (std::size_t k = 0; k < a.dimension(); ++k) {
    lo[k] = std::min(a.lo_[k], b.lo_[k]);
    hi[k] = std::max(a.hi_[k], b.hi_[k]);
  }
  return Hyperbox(std::move(lo), std::move(hi));
}

Hyperbox Hyperbox::inflated(double eps) const {
  Vector lo = lo_;
  Vector hi = hi_;
  for (std::size_t k = 0; k < dimension(); ++k) {
    lo[k] -= eps;
    hi[k] += eps;
  }
  return Hyperbox(std::move(lo), std::move(hi));
}

}  // namespace bcl
