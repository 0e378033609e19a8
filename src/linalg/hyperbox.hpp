#pragma once
// Axis-aligned hyperboxes (Cartesian products of closed intervals).
//
// Hyperboxes are the central geometric object of the paper's Algorithm 2:
// the locally trusted hyperbox TH_i (Definition 2.5), the geometric-median
// hyperbox GH_i (Definition 3.5), their intersection, its midpoint
// (Definition 3.6) and its maximum edge length E_max (Definition 3.7).

#include <optional>

#include "linalg/gradient_batch.hpp"

namespace bcl {

/// A closed axis-aligned box [lo[0], hi[0]] x ... x [lo[d-1], hi[d-1]].
/// Invariant: lo.size() == hi.size() and lo[k] <= hi[k] for all k.
class Hyperbox {
 public:
  /// Constructs the box with the given corner vectors.  Throws if the
  /// invariant is violated.
  Hyperbox(Vector lo, Vector hi);

  /// Degenerate box containing exactly one point.
  static Hyperbox point(const Vector& p);

  /// Smallest hyperbox containing all rows of `points` (their
  /// coordinate-wise bounding box), owned or a borrowed view.  Throws on
  /// an empty batch.
  static Hyperbox bounding(const GradientBatch& points);

  std::size_t dimension() const { return lo_.size(); }
  const Vector& lo() const { return lo_; }
  const Vector& hi() const { return hi_; }

  /// True if p lies in the box (within tolerance `tol` per coordinate).
  bool contains(const Vector& p, double tol = 0.0) const;

  /// True if `other` is a subset of this box (within tolerance).
  bool contains_box(const Hyperbox& other, double tol = 0.0) const;

  /// Midpoint of the box (Definition 3.6).
  Vector midpoint() const;

  /// Length of the longest edge (Definition 3.7).  0 for a point.
  double max_edge() const;

  /// Euclidean length of the main diagonal.
  double diagonal() const;

  /// Intersection, or std::nullopt when empty.  The intersection of
  /// axis-aligned boxes is the per-coordinate interval intersection.
  static std::optional<Hyperbox> intersect(const Hyperbox& a,
                                           const Hyperbox& b);

  /// Smallest box containing both.
  static Hyperbox merge(const Hyperbox& a, const Hyperbox& b);

  /// Grows every interval by `eps` on both ends (used for tolerant
  /// containment checks in tests).
  Hyperbox inflated(double eps) const;

  bool operator==(const Hyperbox& other) const {
    return lo_ == other.lo_ && hi_ == other.hi_;
  }

 private:
  Vector lo_;
  Vector hi_;
};

}  // namespace bcl
