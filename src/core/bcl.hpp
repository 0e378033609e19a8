#pragma once
// Umbrella header: the full public API of the Byzantine collaborative
// learning library.
//
// Layering (bottom up):
//   util        - RNG, thread pool, tables, CLI
//   linalg      - vectors, hyperboxes, order statistics
//   geometry    - Weiszfeld, medoid, enclosing balls, min-diameter subsets,
//                 planar safe areas
//   aggregation - all aggregation rules + the approximation measure
//   compression - gradient codecs (top-k / rand-k / QSGD) with wire-cost
//                 accounting, error feedback + name registry
//   network     - discrete-event P2P simulator (delay models, partial
//                 synchrony, bandwidth-priced delivery) with Byzantine
//                 adversaries; sync adapter
//   agreement   - multidimensional approximate-agreement protocols
//   ml          - tensors, layers, models, synthetic datasets, partitions
//   attacks     - Byzantine client behaviours + name registry
//   learning    - centralized / decentralized collaborative training
//   experiments - declarative scenario specs, runner, metric emitters,
//                 sweep expansion

#include "aggregation/approximation.hpp"
#include "aggregation/hyperbox_rules.hpp"
#include "aggregation/krum.hpp"
#include "aggregation/minimum_diameter_rules.hpp"
#include "aggregation/registry.hpp"
#include "aggregation/rule.hpp"
#include "aggregation/simple_rules.hpp"
#include "agreement/protocol.hpp"
#include "attacks/attack.hpp"
#include "attacks/registry.hpp"
#include "compression/codec.hpp"
#include "compression/registry.hpp"
#include "experiments/emitters.hpp"
#include "experiments/runner.hpp"
#include "experiments/scenario.hpp"
#include "experiments/sweep.hpp"
#include "faults/fault_plan.hpp"
#include "faults/staleness.hpp"
#include "geometry/convex2d.hpp"
#include "geometry/enclosing_ball.hpp"
#include "geometry/medoid.hpp"
#include "geometry/min_diameter.hpp"
#include "geometry/safe_area.hpp"
#include "geometry/subsets.hpp"
#include "geometry/weiszfeld.hpp"
#include "learning/centralized.hpp"
#include "learning/client.hpp"
#include "learning/config.hpp"
#include "learning/decentralized.hpp"
#include "linalg/distance_matrix.hpp"
#include "linalg/gradient_batch.hpp"
#include "linalg/hyperbox.hpp"
#include "linalg/kernels.hpp"
#include "linalg/sparse_rows.hpp"
#include "linalg/stats.hpp"
#include "linalg/vector_ops.hpp"
#include "linalg/workspace.hpp"
#include "ml/architectures.hpp"
#include "aggregation/robust_baselines.hpp"
#include "ml/dataset.hpp"
#include "ml/model.hpp"
#include "ml/optimizer.hpp"
#include "ml/partition.hpp"
#include "network/adversary.hpp"
#include "network/delay_model.hpp"
#include "network/event_network.hpp"
#include "network/message.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
