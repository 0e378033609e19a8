#pragma once
// Cohort subsampling policy for the centralized trainer (the client-axis
// scale path: only a sampled subset of the m clients uploads per round,
// so round memory is O(cohort * d) instead of O(m * d)).
//
// cohort= grammar: "none" (every client uploads every round) or
// "<frac>[,key=val,...]" — each round a deterministic sample of
// ceil-ish frac * n clients computes and uploads a gradient.  Keys:
//   shards  number of shard aggregators the cohort is split across
//           (>= 1, default 1 = flat aggregation).  Each shard runs the
//           scenario rule over its contiguous cohort slice; a root rule
//           aggregates the shard outputs (see aggregation/sharded.hpp).
//   root    aggregation rule applied over the shard outputs (default:
//           the scenario's own rule).  Validated eagerly against the
//           extended rule registry.
//
// The per-round sample is drawn from cohort_stream(seed, round) — its own
// salted stream, independent of the message/codec/fault streams — so a
// scenario replays bitwise serially and under --jobs regardless of how
// many other random draws a round makes.
//
// Parsed eagerly by the scenario grammar; parse(to_string()) round-trips.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace bcl {

struct CohortConfig {
  double fraction = 0.0;     ///< 0 = disabled (all clients upload).
  std::size_t shards = 1;    ///< shard aggregators over the cohort slice.
  std::string root;          ///< root rule name; empty = the scenario rule.

  /// True when a cohort fraction was configured.  Note fraction = 1.0 is
  /// *enabled*: the full membership uploads, and only the cohort-only
  /// knobs (shards, root, sketch) distinguish it from "none" (test-enforced
  /// bitwise identical at shards=1).
  bool enabled() const { return fraction > 0.0; }

  /// Parses "none" or "<frac>[,key=val,...]".  frac must be in (0, 1];
  /// shards must be >= 1; root must name a registered rule.  Unknown keys
  /// are rejected with the valid keys listed.
  static CohortConfig parse(const std::string& text);

  /// Canonical form: "none", or "<frac>" with only non-default keys
  /// appended; parse(to_string()) round-trips exactly.
  std::string to_string() const;

  /// Cohort size for an n-client round: max(1, round(fraction * n)),
  /// clamped to n.
  std::size_t cohort_size(std::size_t n) const;

  bool operator==(const CohortConfig& other) const = default;
};

/// Valid cohort= parameter keys, for menus and rejection lists.
const std::vector<std::string>& cohort_config_keys();

/// The cohort sampler's random stream for one round.  Salted with a
/// constant distinct from message_stream's, codec_stream's and
/// fault_stream's, so the sample is a pure function of (seed, round) — it
/// cannot drift when other subsystems consume more or fewer draws, which
/// is what makes serial and --jobs replays bitwise identical.
Rng cohort_stream(std::uint64_t seed, std::size_t round);

/// The round's cohort: k = config.cohort_size(n) distinct client ids
/// drawn via partial Fisher-Yates from cohort_stream(seed, round),
/// returned sorted ascending.  Ascending order keeps the honest members
/// in the batch prefix (Byzantine ids are the last f), which the
/// trainer's attack/metric paths rely on.
std::vector<std::size_t> sample_cohort(const CohortConfig& config,
                                       std::size_t n, std::uint64_t seed,
                                       std::size_t round);

}  // namespace bcl
