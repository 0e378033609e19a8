#pragma once
// Discrete-event network engine with a sharded, parallel event core.
//
// Generalizes the lockstep synchronous round model to partial synchrony: a
// discrete-event simulator in which every broadcast message receives a
// delivery time from a pluggable DelayModel (plus independent loss and a
// bounded adversarial scheduling delay), and an honest node finishes a
// round once it holds at least `quorum` messages for it or the round
// timeout Delta fires.  Rounds stay logically aligned (a node enters round
// r + 1 only after completing round r; run_round() is a global barrier, so
// round-based protocols keep exact per-round traces), but *within* a round
// arrivals are genuinely asynchronous: stragglers determine quorum waits,
// bursty links trigger timeouts, and dropped or late messages simply never
// reach the inbox.
//
// The adversary keeps all of its synchronous powers (omniscient value
// choice after seeing the honest round values, selective omission, honest
// delay requests honored down to the quorum floor) and gains scheduling
// power: its own messages are fixed only once the last honest node entered
// the round (rushing — it sends after seeing everything) and it may add a
// targeted extra delay to any message, clamped to the partial-synchrony
// bound `adversary_delay_bound`.
//
// With a zero-delay model and timeout 0 (the default configuration),
// every delivery and timeout of a round lands on one simulated instant;
// the engine drains simultaneous events before advancing anyone, so it
// reproduces the lockstep synchronous semantics of Section 2.3 bitwise.
//
// --- The sharded event core -------------------------------------------------
//
// Events live in per-destination queues (one shard per honest node)
// instead of one global priority queue.  The simulation advances by
// *conservative safe windows*: the next batch is every event sharing the
// minimum head timestamp across shards — exactly the set the old global
// queue drained per instant — and within a batch all effects are
// per-receiver (inbox/future appends, timeout flags, late counts), so the
// touched shards drain concurrently on the ThreadPool with no shared
// writes.  Scheduling parallelizes the same way: each receiver samples its
// own links' drop/latency draws from the pure per-message streams
// (message_stream) and pushes into its own shard.  Per-shard sequence
// numbers reproduce the old queue's FIFO tie-breaking per receiver, and
// cross-receiver interleaving of same-instant events is unobservable
// (inboxes are re-sorted by sender, statistics are sums, late
// classification reads only receiver state frozen during the batch) — so
// serial and pool-parallel runs are bitwise identical, which a test
// enforces.
//
// Each shard stores its events as LSM-style *sorted runs* rather than a
// binary heap: a scheduling wave sorts its appends once (sequential in
// memory) and similar-sized runs are merged, so popping means comparing a
// handful of run heads and walking each run linearly.  A binary heap pays
// ~log(size) scattered cache lines per pop — with thousands of shards the
// heaps evict each other and that dominated the drain — while runs cost
// amortized O(log wave) comparisons per event on prefetch-friendly
// memory.  Events are 24 bytes instead of 48, and readiness is re-checked
// only for nodes whose shard was touched by the batch instead of scanning
// all n every instant.
//
// Finding each batch costs O(log n), not an O(n) scan: a position-indexed
// min-heap over the shard heads (heads_, one entry per non-empty shard,
// updated in place) is refreshed serially after every phase that mutates
// shard heaps.  Under continuous delay distributions (every batch a
// single event) the engine thus stays O(log) per event like the global
// queue it replaced — but over n entries, not over all in-flight events —
// instead of degrading to O(n) per event.
//
// --- Round-value arena ------------------------------------------------------
//
// Each in-flight round owns a RoundBook: a DoubleArena holding every
// sender's broadcast value exactly once, committed serially when the
// sender enters the round (or when the rushing adversary fixes its
// values).  Deliveries carry PayloadView spans into that storage — n
// receivers share one stored value — so the per-delivery
// std::vector<double> allocate+copy of the previous engine is gone
// entirely.  Ownership rule (see network/message.hpp): views are valid
// only during receive(); the book (and its arena, recycled through a free
// pool) is released once every honest node has sealed the round, which is
// provably after the last receive() that can reference it — a node that
// has not consumed its round-r inbox (or still buffers round-r arrivals
// for a round it has not reached) has not completed r, so r is not sealed.

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "compression/codec.hpp"
#include "network/adversary.hpp"
#include "network/delay_model.hpp"
#include "network/message.hpp"
#include "util/arena.hpp"

namespace bcl {

class ThreadPool;
class FaultPlan;

namespace obs {
class MetricsRegistry;
}

/// Behaviour of one honest protocol participant (unchanged from the
/// synchronous engine: broadcast one vector per round, receive the round's
/// inbox sorted by sender id, touch only your own state).
class HonestProcess {
 public:
  /// outgoing_wire_bytes() sentinel: "price this broadcast dense",
  /// payload.size() * sizeof(double).
  static constexpr std::size_t kDenseWire = static_cast<std::size_t>(-1);

  virtual ~HonestProcess() = default;

  /// The vector this node reliably broadcasts in `round`.  The engine may
  /// call outgoing() for different nodes concurrently (each node still
  /// sees only its own calls, in round order).
  virtual Vector outgoing(std::size_t round) const = 0;

  /// Modeled wire size of this round's broadcast.  The engine queries it
  /// right after outgoing(round) and uses it for the bandwidth term of the
  /// delivery delay and the byte totals in NetworkStats.  Default: dense.
  /// Compressing processes return their codec's wire_bytes() instead.
  virtual std::size_t outgoing_wire_bytes(std::size_t round) const;

  /// Delivers the round's inbox (sorted by sender id).  Message payloads
  /// are views into the engine's round storage, valid only for the
  /// duration of this call — copy what you keep (message.hpp ownership
  /// rule).  The process updates its own state only.
  virtual void receive(std::size_t round, std::vector<Message>&& inbox) = 0;
};

/// Per-run delivery statistics.  The invariant over honest-to-honest
/// traffic: every sent message is exactly one of delivered, dropped
/// (network loss), late (arrived after the receiver finished the round) or
/// delayed (adversarial request honored at the quorum floor); Byzantine
/// messages are delivered, omitted, or late (a receiver can resolve its
/// round from honest arrivals alone before the rushing adversary fixes its
/// values), and a silent Byzantine round counts one broadcast_skipped
/// instead.
struct NetworkStats {
  std::size_t rounds = 0;
  std::size_t messages_delivered = 0;
  std::size_t messages_omitted = 0;  // Byzantine selective omissions
  std::size_t broadcasts_skipped = 0;  // crashed/silent Byzantine rounds
  std::size_t messages_delayed = 0;  // honored honest-message delays
  std::size_t messages_dropped = 0;  // network loss (drop prob / partition)
  std::size_t messages_late = 0;     // arrived after the round completed
  std::size_t timeouts_fired = 0;    // rounds finished by Delta, not quorum
  // Wire-cost accounting over real links (self-delivery is a local
  // loopback and carries no bytes).  `bytes_sent` counts every broadcast
  // copy put on a link, dropped or not; `bytes_delivered` counts the
  // copies that reached a final inbox; `bytes_dense_delivered` is what the
  // delivered copies would have cost uncompressed — the compression-ratio
  // baseline the emitters quote.
  std::size_t bytes_sent = 0;
  std::size_t bytes_delivered = 0;
  std::size_t bytes_dense_delivered = 0;
  // Membership accounting under a FaultPlan (all zero without one).  A
  // down node neither sends nor receives; links to a down endpoint carry
  // no traffic, so the sent/delivered invariant above is over live links.
  std::size_t crashes = 0;      // up -> down transitions observed
  std::size_t recoveries = 0;   // down -> up under crash-recover
  std::size_t joins = 0;        // down -> up under churn
  std::size_t rounds_degraded = 0;  // rounds run below the configured quorum
};

/// Adds every NetworkStats field into `registry` under unified dotted names
/// ("net.messages_delivered", "net.bytes_sent", ...).  Trainers call this
/// once per engine run so scattered per-run structs surface through one
/// MetricsSnapshot.
void publish_network_stats(const NetworkStats& stats,
                           obs::MetricsRegistry& registry);

/// Engine knobs.  The defaults reproduce full synchrony: zero delays,
/// timeout 0 (a node's round resolves at the instant it started) and an
/// infinite quorum (never honor adversarial delay requests).
struct EventNetworkConfig {
  /// Delivery floor per round: a node may finish a round once it holds
  /// this many messages (and adversarial delay requests are honored only
  /// down to it).  SIZE_MAX = wait for the timeout alone.  Protocols pass
  /// n - t.
  std::size_t quorum = static_cast<std::size_t>(-1);
  /// Round timeout Delta: a node finishes the round at entry + Delta even
  /// below quorum.  0 = resolve at the entry instant (synchronous rounds);
  /// negative = no timeout (wait for quorum; a drained event queue then
  /// forces the stall open and counts a timeout).
  double timeout = 0.0;
  /// Clamp on Adversary::scheduling_delay (the partial-synchrony bound on
  /// targeted delays).  0 = the adversary gets no scheduling power and the
  /// hook is never consulted.
  double adversary_delay_bound = 0.0;
  /// Independent loss probability per honest-link message.
  double drop_probability = 0.0;
  /// Link bandwidth in bytes per simulated second; a message's delivery
  /// delay is its propagation sample plus wire_bytes / bandwidth.  0 =
  /// infinite (transmission is free, the pre-wire-cost semantics).
  double bandwidth = 0.0;
  /// Seed of the delay/drop randomness (message_stream keys off it).
  std::uint64_t seed = 0;
  /// Wire format of broadcast payloads (not owned).  Honest processes
  /// encode for themselves (outgoing / outgoing_wire_bytes); this hook
  /// covers the adversary: when set, Byzantine values are serialized
  /// through the codec too — the payload delivered is decode(encode(v))
  /// and the wire size the encoded one — because a receiver in a
  /// compressed protocol admits nothing larger than the wire format, so
  /// the adversary cannot claim dense-size messages for itself.  nullptr =
  /// dense payloads priced dense.
  const Codec* codec = nullptr;
  /// Seed of the codec's per-(sender, round) randomness.
  std::uint64_t codec_seed = 0;
  /// Link latency model; nullptr = zero delay.  Not owned.
  DelayModel* delay = nullptr;
  /// Deterministic liveness schedule (src/faults); nullptr = every node is
  /// always up, and the engine's behaviour is bit-for-bit the pre-fault
  /// path (every fault branch is behind this pointer).  Not owned.
  const FaultPlan* faults = nullptr;
  /// Maps engine rounds onto plan rounds: plan round = offset + round, or
  /// just offset when membership is frozen (the decentralized trainer runs
  /// one agreement per learning round and freezes membership across its
  /// sub-rounds; transitions are then accounted by the trainer, not here).
  std::size_t fault_round_offset = 0;
  bool fault_membership_frozen = false;
  /// Optional pool for the three parallel phases (broadcast production,
  /// per-shard scheduling/draining, ready-node finalize + receive).  Runs
  /// are bitwise identical with and without it.  Not owned.
  ThreadPool* pool = nullptr;
  /// Optional per-scenario metrics registry: when set the engine records
  /// every scheduled delivery's latency into the "net.message_delay"
  /// histogram (simulated seconds).  nullptr records nothing.  Not owned.
  obs::MetricsRegistry* metrics = nullptr;
};

/// The discrete-event engine (see file comment).  Node ids are [0, n);
/// honest ids own a HonestProcess, Byzantine ids are driven by the
/// adversary.  Not thread-safe: one engine, one driving thread (worker
/// parallelism lives inside the phases documented on EventNetworkConfig).
class EventNetwork {
 public:
  /// `processes[i]` must be non-null exactly for honest ids i.  The engine
  /// does not take ownership of the processes, adversary, model or pool.
  EventNetwork(std::vector<HonestProcess*> processes, Adversary& adversary,
               EventNetworkConfig config = {});

  std::size_t num_nodes() const { return processes_.size(); }

  /// Advances the simulation until every honest node has completed one
  /// more round (a global round barrier, so callers can read a consistent
  /// cross-node state between calls).
  void run_round();

  /// Runs `rounds` consecutive barrier rounds.
  void run(std::size_t rounds);

  /// Rounds completed by all honest nodes.
  std::size_t current_round() const { return completed_rounds_; }
  const NetworkStats& stats() const { return stats_; }

  /// Current simulated time (the completion instant of the last round).
  double now() const { return now_; }
  /// Simulated completion time of each finished round (monotone; index r =
  /// the instant the slowest honest node finished round r).
  const std::vector<double>& round_end_times() const {
    return round_end_times_;
  }
  /// Simulated duration of the last completed round.
  double last_round_latency() const;

 private:
  enum class EventKind : std::uint8_t { Delivery, Timeout };
  /// One event in a destination shard.  The receiver is implicit (the
  /// shard), which keeps the struct at 24 bytes — at m = 5000 a single
  /// round holds ~m^2 in-flight deliveries, so event size is live memory.
  struct ShardEvent {
    double time = 0.0;
    std::uint32_t seq = 0;  // per-shard FIFO order among equal times
    std::uint32_t sender = 0;
    std::uint32_t round = 0;
    EventKind kind = EventKind::Delivery;
  };
  struct ShardEventEarlier {
    bool operator()(const ShardEvent& a, const ShardEvent& b) const {
      if (a.time != b.time) return a.time < b.time;
      return a.seq < b.seq;
    }
  };
  /// Statistics deltas accumulated inside a parallel phase and reduced
  /// into NetworkStats serially afterwards (sums, so the reduction order
  /// is immaterial and parallel runs match serial ones exactly).
  struct ShardStats {
    std::size_t dropped = 0;
    std::size_t omitted = 0;
    std::size_t late = 0;
    std::size_t delivered = 0;
    std::size_t delayed = 0;
    std::size_t timeouts = 0;
    std::size_t bytes_sent = 0;
    std::size_t bytes_delivered = 0;
    std::size_t bytes_dense = 0;
  };
  /// One sorted run of a shard: ascending (time, seq), consumed from the
  /// front.  Consumed prefixes are reclaimed when the run empties.
  struct Run {
    std::vector<ShardEvent> events;
    std::size_t at = 0;  // consumption cursor
    std::size_t left() const { return events.size() - at; }
    const ShardEvent& head() const { return events[at]; }
  };
  /// One destination's event queue (see the file comment): appends land in
  /// `wave` raw; seal_wave() sorts them into a new run and merges runs of
  /// similar size, keeping the run count logarithmic in the queue size.
  /// Only the owning task of a parallel phase touches a shard, so no
  /// locks anywhere.
  struct Shard {
    std::vector<Run> runs;           // every run non-empty
    std::vector<ShardEvent> wave;    // unsealed appends of the current wave
    std::uint32_t next_seq = 0;
    ShardStats delta;

    bool empty() const { return runs.empty(); }
    const ShardEvent& front() const;  // global min head; runs non-empty
    ShardEvent pop();                 // pops front(), prunes emptied runs
    void seal_wave();
  };
  struct RoundBook;
  /// Per-node progress.
  struct NodeState {
    std::size_t round = 0;       // round the node is currently collecting
    double entered = 0.0;        // simulated entry time of that round
    double completed = 0.0;      // completion time of the last round
    bool done = false;           // finished `round`, holding at the barrier
    bool timed_out = false;      // Delta fired for the current round
    // Current round's book (std::map nodes are pointer-stable); spares
    // the per-delivery lookup.  Dereferenced only on the current-round
    // path, which a sealed — hence fully completed — round cannot reach.
    const RoundBook* book = nullptr;
    std::vector<Message> inbox;  // buffered arrivals for the current round
    // Arrivals for rounds the node has not reached yet (sender ran ahead
    // inside a multi-round run() window).
    std::map<std::size_t, std::vector<Message>> future;
  };
  /// Book-keeping of one in-flight round, GC'd (and its arena recycled)
  /// once every honest node has completed the round.
  struct RoundBook {
    DoubleArena arena;                 // backs every values[] span
    std::vector<PayloadView> values;   // per sender; gated by present[]
    std::vector<std::uint8_t> present;
    std::vector<std::size_t> wire;     // wire bytes per sender
    // Honest values as the Adversary interface expects them (nullopt at
    // Byzantine slots); materialized only when the run has Byzantine ids.
    std::vector<std::optional<Vector>> adversary_view;
    std::size_t honest_entered = 0;
    std::size_t done_count = 0;
    double max_entry = 0.0;  // adversary fix instant
    double max_end = 0.0;    // slowest completion
  };
  /// One node entering a round (the unit of the scheduling phases).
  struct Entering {
    std::size_t node = 0;
    std::size_t round = 0;
    double entry = 0.0;
    double transmission = 0.0;  // wire / bandwidth
    std::size_t wire = 0;
    bool down = false;  // node is down for this round (FaultPlan)
    Vector value;  // broadcast, produced in the parallel phase
  };

  /// The FaultPlan round an engine round maps to (identity without a
  /// plan; see EventNetworkConfig::fault_round_offset).
  std::size_t plan_round(std::size_t round) const;
  /// Is this node down for the given engine round?  Always false without
  /// a FaultPlan.
  bool is_down(std::size_t node, std::size_t round) const;
  /// The configured quorum clamped to the round's live membership, so a
  /// thin round resolves over who is actually up instead of hanging.
  std::size_t effective_quorum(std::size_t round) const;

  RoundBook& book_for(std::size_t round);
  static void append_event(Shard& shard, double time, EventKind kind,
                           std::size_t sender, std::size_t round);
  /// Enters every listed node into its round: parallel broadcast
  /// production, serial value commit (arena + adversary view + MMPP
  /// warm-up), parallel per-shard delivery scheduling, then Byzantine
  /// value fixing for any round whose last honest node just entered.
  void enter_rounds(std::vector<Entering>& entering);
  void fix_byzantine_values(std::size_t round);
  void process_event(std::size_t receiver, const ShardEvent& event,
                     Shard& shard);
  bool node_ready(const NodeState& node) const;
  /// Re-records the current head of every listed shard in heads_ (no-op
  /// per shard whose head did not move).  Must run serially after any
  /// phase that pushed or popped shard events.
  void refresh_heads(const std::vector<std::size_t>& ids);
  /// Pops every event sharing the earliest timestamp across shards (one
  /// simulated instant) into the per-node buffers, draining touched
  /// shards in parallel; an empty queue forces stalled rounds open
  /// instead.  Fills touched_.
  void drain_next_batch();
  /// Finishes every touched node whose quorum/timeout condition holds:
  /// honored delay floor, sorted inbox, byte accounting and receive() in
  /// one parallel pass per node, then (serially) round sealing, arena
  /// recycling and next-round entry.
  void advance_ready_nodes();
  /// Adds the listed shards' pending deltas into stats_ and clears them.
  /// Callers pass exactly the ids the preceding parallel phase touched —
  /// a full-n sweep here would put an O(n) term on every single-event
  /// batch.
  void reduce_shard_deltas(const std::vector<std::size_t>& ids);

  std::vector<HonestProcess*> processes_;
  Adversary& adversary_;
  EventNetworkConfig config_;
  std::size_t honest_count_ = 0;
  std::size_t byzantine_count_ = 0;
  std::vector<std::size_t> honest_ids_;

  /// Position-indexed min-heap over shard head times (see the file
  /// comment): one entry per non-empty shard, O(n) memory, in-place
  /// key updates — never stale, unlike a lazy candidate heap, whose
  /// entry count (and pop depth) would grow with in-flight events.
  struct HeadIndex {
    std::vector<std::uint32_t> heap;  // shard ids, min key at heap[0]
    std::vector<double> key;          // key[id] = that shard's head time
    std::vector<std::int32_t> pos;    // pos[id] = index in heap, -1 absent

    void init(std::size_t n);
    bool empty() const { return heap.empty(); }
    std::uint32_t top() const { return heap.front(); }
    double top_key() const { return key[heap.front()]; }
    void update(std::uint32_t id, double t);
    void remove(std::uint32_t id);

   private:
    void sift_up(std::size_t i);
    void sift_down(std::size_t i);
  };

  std::vector<Shard> shards_;  // indexed by node id; Byzantine ids unused
  std::vector<NodeState> nodes_;
  std::map<std::size_t, RoundBook> rounds_;
  std::vector<DoubleArena> arena_pool_;  // recycled round arenas
  std::vector<std::size_t> touched_;     // shards hit by the current batch
  HeadIndex heads_;

  double now_ = 0.0;
  double batch_time_ = 0.0;
  std::size_t completed_rounds_ = 0;
  std::size_t target_rounds_ = 0;  // nodes never enter rounds >= target
  bool started_ = false;
  std::vector<double> round_end_times_;
  NetworkStats stats_;
};

}  // namespace bcl
