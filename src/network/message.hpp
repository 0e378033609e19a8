#pragma once
// Wire format of the peer-to-peer simulators: one vector-valued message
// per sender per round, tagged with its modeled size on the wire.
//
// Payloads are *views*, not owned buffers.  The event engine stores each
// broadcast value exactly once, in a per-round arena (util/arena.hpp), and
// every delivery of that broadcast carries a PayloadView into the stored
// value — so fanning one round value out to n receivers costs n spans, not
// n heap-allocated vector copies.  The ownership rule that buys this:
//
//   A message's payload is guaranteed valid only for the duration of the
//   receive() call that delivers it.  A process that keeps payload data
//   beyond receive() must copy it (to_vector() and payloads() do); the
//   arena behind the view is recycled once every honest node has sealed
//   the round.
//
// The agreement protocol obeys it: each node aggregates over a
// payload_batch_view() of its inbox and is done with it before receive()
// returns.

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "linalg/gradient_batch.hpp"
#include "linalg/vector_ops.hpp"

namespace bcl {

/// Read-only span over a payload's doubles (the engine's arena or any
/// caller-owned buffer).  Comparisons are element-wise, so tests and
/// consumers can compare payloads across engines without caring where the
/// bytes live.
class PayloadView {
 public:
  PayloadView() = default;
  PayloadView(const double* data, std::size_t size)
      : data_(data), size_(size) {}
  /// Views an owned vector (which must outlive the view).
  explicit PayloadView(const Vector& v) : data_(v.data()), size_(v.size()) {}

  const double* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const double* begin() const { return data_; }
  const double* end() const { return data_ + size_; }
  double operator[](std::size_t i) const { return data_[i]; }

  /// Materializes an owned copy — the escape hatch for any consumer that
  /// keeps payload data beyond the receive() call.
  Vector to_vector() const { return Vector(data_, data_ + size_); }

 private:
  const double* data_ = nullptr;
  std::size_t size_ = 0;
};

inline bool operator==(const PayloadView& a, const PayloadView& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}
inline bool operator!=(const PayloadView& a, const PayloadView& b) {
  return !(a == b);
}
inline bool operator==(const PayloadView& a, const Vector& b) {
  return a == PayloadView(b);
}
inline bool operator==(const Vector& a, const PayloadView& b) {
  return PayloadView(a) == b;
}

/// A delivered message.  Inboxes are sorted by sender id, which makes
/// tie-breaking in the receiving rules deterministic.  `wire_bytes` is the
/// modeled transmission size (compressed payloads are smaller than
/// payload.size() * sizeof(double)); the event engine fills it from the
/// sender's codec and prices delivery as propagation + wire_bytes /
/// bandwidth.  `payload` is a view into the engine's round storage — see
/// the ownership rule in the file comment.
struct Message {
  std::size_t sender = 0;
  PayloadView payload;
  std::size_t wire_bytes = 0;
};

/// Extracts the payload vectors of an inbox as owned copies, preserving
/// order.  (With view payloads there is nothing to steal — this *is* the
/// one copy a consumer pays, where the pre-arena engine paid one per
/// delivery plus one here.)
inline VectorList payloads(const std::vector<Message>& inbox) {
  VectorList out;
  out.reserve(inbox.size());
  for (const auto& msg : inbox) out.push_back(msg.payload.to_vector());
  return out;
}

/// Lends an inbox's payloads as one batch (row i = i-th message, in the
/// sender-sorted order): the returned batch *borrows* the payload spans
/// through `table` (filled here, one row pointer per message, reusable
/// across calls) instead of copying n x d doubles.  Throws
/// std::invalid_argument if payload dimensions disagree, so a malformed
/// Byzantine payload is rejected at the boundary.  Lifetime follows the
/// payload ownership rule above: the view batch (and `table`) are valid
/// only while the inbox's payloads are — i.e. for the duration of the
/// receive() call — so a consumer must finish with the batch before
/// returning, exactly as the agreement protocol does.
inline GradientBatch payload_batch_view(const std::vector<Message>& inbox,
                                        std::vector<const double*>& table) {
  table.clear();
  if (inbox.empty()) return GradientBatch();
  const std::size_t dim = inbox.front().payload.size();
  table.reserve(inbox.size());
  for (const Message& msg : inbox) {
    if (msg.payload.size() != dim) {
      throw std::invalid_argument(
          "payload_batch_view: payload dimensions disagree");
    }
    table.push_back(msg.payload.data());
  }
  return GradientBatch::view(table.data(), table.size(), dim);
}

}  // namespace bcl
