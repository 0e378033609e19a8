#include "network/event_network.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <stdexcept>

#include "faults/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace bcl {

namespace {

constexpr std::size_t kNoQuorum = static_cast<std::size_t>(-1);

double clamp_extra_delay(double requested, double bound) {
  if (requested <= 0.0) return 0.0;
  return requested < bound ? requested : bound;
}

}  // namespace

std::size_t HonestProcess::outgoing_wire_bytes(std::size_t /*round*/) const {
  return kDenseWire;
}

EventNetwork::EventNetwork(std::vector<HonestProcess*> processes,
                           Adversary& adversary, EventNetworkConfig config)
    : processes_(std::move(processes)),
      adversary_(adversary),
      config_(config),
      shards_(processes_.size()),
      nodes_(processes_.size()) {
  heads_.init(processes_.size());
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    const bool byz = adversary_.is_byzantine(i);
    if (byz && processes_[i] != nullptr) {
      throw std::invalid_argument(
          "EventNetwork: Byzantine id must not own an honest process");
    }
    if (!byz && processes_[i] == nullptr) {
      throw std::invalid_argument("EventNetwork: honest id requires a process");
    }
    if (byz) {
      ++byzantine_count_;
    } else {
      ++honest_count_;
      honest_ids_.push_back(i);
    }
  }
}

std::size_t EventNetwork::plan_round(std::size_t round) const {
  return config_.fault_membership_frozen
             ? config_.fault_round_offset
             : config_.fault_round_offset + round;
}

bool EventNetwork::is_down(std::size_t node, std::size_t round) const {
  return config_.faults != nullptr &&
         !config_.faults->alive(node, plan_round(round));
}

std::size_t EventNetwork::effective_quorum(std::size_t round) const {
  if (config_.quorum == kNoQuorum || config_.faults == nullptr) {
    return config_.quorum;
  }
  return std::min(config_.quorum,
                  config_.faults->live_count(plan_round(round)));
}

EventNetwork::RoundBook& EventNetwork::book_for(std::size_t round) {
  auto [it, inserted] = rounds_.try_emplace(round);
  RoundBook& book = it->second;
  if (inserted) {
    const std::size_t n = processes_.size();
    book.values.resize(n);
    book.present.assign(n, 0);
    book.wire.assign(n, 0);
    if (byzantine_count_ > 0) book.adversary_view.resize(n);
    if (!arena_pool_.empty()) {
      book.arena = std::move(arena_pool_.back());
      arena_pool_.pop_back();
    }
  }
  return book;
}

const EventNetwork::ShardEvent& EventNetwork::Shard::front() const {
  const Run* best = &runs[0];
  for (std::size_t k = 1; k < runs.size(); ++k) {
    if (ShardEventEarlier{}(runs[k].head(), best->head())) best = &runs[k];
  }
  return best->head();
}

EventNetwork::ShardEvent EventNetwork::Shard::pop() {
  std::size_t best = 0;
  for (std::size_t k = 1; k < runs.size(); ++k) {
    if (ShardEventEarlier{}(runs[k].head(), runs[best].head())) best = k;
  }
  const ShardEvent event = runs[best].head();
  if (++runs[best].at == runs[best].events.size()) {
    runs.erase(runs.begin() + static_cast<std::ptrdiff_t>(best));
  }
  return event;
}

void EventNetwork::Shard::seal_wave() {
  if (wave.empty()) return;
  std::sort(wave.begin(), wave.end(), ShardEventEarlier{});
  Run run;
  run.events = std::move(wave);
  wave = {};
  runs.push_back(std::move(run));
  // Keep run sizes geometric (each at least twice its successor) so the
  // run count — and with it the per-pop head scan — stays logarithmic in
  // the queue size, at amortized O(log) merge work per event.
  while (runs.size() > 1 &&
         2 * runs.back().left() >= runs[runs.size() - 2].left()) {
    Run& a = runs[runs.size() - 2];
    Run& b = runs.back();
    Run merged;
    merged.events.reserve(a.left() + b.left());
    std::merge(a.events.begin() + static_cast<std::ptrdiff_t>(a.at),
               a.events.end(),
               b.events.begin() + static_cast<std::ptrdiff_t>(b.at),
               b.events.end(), std::back_inserter(merged.events),
               ShardEventEarlier{});
    runs.pop_back();
    runs.pop_back();
    runs.push_back(std::move(merged));
  }
}

// Appends to the shard's unsealed wave; the scheduling phases call
// seal_wave() once per receiver afterwards.  (time, seq) is a total
// order, so how the queue is organized internally cannot change the pop
// sequence — hence the simulation.
void EventNetwork::append_event(Shard& shard, double time, EventKind kind,
                                std::size_t sender, std::size_t round) {
  shard.wave.push_back(ShardEvent{time, shard.next_seq++,
                                  static_cast<std::uint32_t>(sender),
                                  static_cast<std::uint32_t>(round), kind});
}

void EventNetwork::enter_rounds(std::vector<Entering>& entering) {
  if (entering.empty()) return;
  BCL_TRACE_SPAN_FINE("net.schedule");
  obs::Histogram* delay_hist =
      config_.metrics != nullptr
          ? &config_.metrics->histogram("net.message_delay")
          : nullptr;

  // A node down for the round it enters broadcasts nothing and collects
  // nothing: it skips production, commits no value, and gets a single
  // self wake event so it flows through the normal ready/seal machinery
  // (a round of all-down nodes still seals — the no-hang guarantee).
  for (Entering& e : entering) e.down = is_down(e.node, e.round);

  // Phase 1 (parallel over entering nodes): produce each broadcast.  Each
  // task touches only its own process and Entering slot.
  auto produce = [&](std::size_t k) {
    Entering& e = entering[k];
    if (e.down) return;
    e.value = processes_[e.node]->outgoing(e.round);
    e.wire = processes_[e.node]->outgoing_wire_bytes(e.round);
    if (e.wire == HonestProcess::kDenseWire) {
      e.wire = e.value.size() * sizeof(double);
    }
  };
  if (config_.pool != nullptr && entering.size() > 1) {
    config_.pool->parallel_for(0, entering.size(), produce);
  } else {
    for (std::size_t k = 0; k < entering.size(); ++k) produce(k);
  }

  // Phase 2 (serial): per-node round state, value commit into the round
  // arena, adversary view, delay-model warm-up.  Arena allocation and the
  // rounds_ map only ever mutate here (and in fix_byzantine_values), on
  // the driving thread — the parallel phases read them.
  for (Entering& e : entering) {
    NodeState& st = nodes_[e.node];
    e.entry = st.completed;  // a round starts when the last ended
    st.round = e.round;
    st.entered = e.entry;
    st.done = false;
    st.timed_out = false;
    st.inbox.clear();
    const auto buffered = st.future.find(e.round);
    if (buffered != st.future.end()) {
      if (e.down) {
        // A down node's buffered arrivals are lost, like any delivery to
        // a down endpoint; they already hit the wire, so count them late.
        shards_[e.node].delta.late += buffered->second.size();
      } else {
        st.inbox = std::move(buffered->second);
      }
      st.future.erase(buffered);
    }

    if (e.down) {
      RoundBook& down_book = book_for(e.round);
      st.book = &down_book;
      ++down_book.honest_entered;  // the adversary view keeps nullopt here
      down_book.max_entry = std::max(down_book.max_entry, e.entry);
      ++stats_.broadcasts_skipped;
      continue;
    }

    RoundBook& book = book_for(e.round);
    double* stored = book.arena.allocate(e.value.size());
    if (!e.value.empty()) {
      std::memcpy(stored, e.value.data(), e.value.size() * sizeof(double));
    }
    book.values[e.node] = PayloadView(stored, e.value.size());
    book.present[e.node] = 1;
    book.wire[e.node] = e.wire;
    st.book = &book;
    if (byzantine_count_ > 0) {
      book.adversary_view[e.node] = std::move(e.value);
    }
    ++book.honest_entered;
    book.max_entry = std::max(book.max_entry, e.entry);
    e.transmission = config_.bandwidth > 0.0
                         ? static_cast<double>(e.wire) / config_.bandwidth
                         : 0.0;
    if (config_.delay != nullptr) config_.delay->prepare(e.node, e.round);
  }

  // Phase 3 (parallel over receiver shards): schedule the deliveries.
  // Every receiver walks the entering list in order and pushes into its
  // own shard only; drop and latency draws come from the pure per-message
  // streams, so the draw a message gets is independent of which thread
  // (or how many) computed it.  Self-delivery is a local loopback —
  // instant, lossless and byte-free — so the delay model, the drop draw,
  // the bandwidth term and the adversary's scheduling power only apply to
  // real links.
  const bool adversarial_scheduling = config_.adversary_delay_bound > 0.0;
  auto schedule_for = [&](std::size_t k) {
    const std::size_t receiver = honest_ids_[k];
    Shard& shard = shards_[receiver];
    for (const Entering& e : entering) {
      if (e.node == receiver) {
        if (e.down) {
          // Sole wake event of a down node's round: ready via timed_out,
          // empty inbox, sealed with everyone else.
          append_event(shard, e.entry, EventKind::Timeout, e.node, e.round);
          continue;
        }
        append_event(shard, e.entry, EventKind::Delivery, e.node, e.round);
        if (config_.timeout >= 0.0) {
          append_event(shard, e.entry + config_.timeout, EventKind::Timeout,
                       e.node, e.round);
        }
        continue;
      }
      // Links with a down endpoint carry nothing: a down sender committed
      // no value, and a down receiver's inbox does not exist this round.
      if (e.down || is_down(receiver, e.round)) continue;
      shard.delta.bytes_sent += e.wire;
      Rng rng = message_stream(config_.seed, e.node, receiver, e.round);
      if (config_.drop_probability > 0.0 &&
          rng.uniform() < config_.drop_probability) {
        ++shard.delta.dropped;
        continue;
      }
      double latency = config_.delay != nullptr
                           ? config_.delay->sample(e.node, receiver, e.round,
                                                   rng)
                           : 0.0;
      if (latency < 0.0) {  // the model itself ate the message
        ++shard.delta.dropped;
        continue;
      }
      latency += e.transmission;
      if (config_.faults != nullptr) {
        // Stragglers push their whole link term (propagation + wire time)
        // out by the configured factor; the adversary's extra delay stays
        // separately clamped to the partial-synchrony bound.
        latency *= config_.faults->slowdown(e.node);
      }
      if (adversarial_scheduling) {
        latency += clamp_extra_delay(
            adversary_.scheduling_delay(e.node, receiver, e.round),
            config_.adversary_delay_bound);
      }
      if (delay_hist != nullptr) delay_hist->record(latency);
      append_event(shard, e.entry + latency, EventKind::Delivery, e.node,
                   e.round);
    }
    shard.seal_wave();
  };
  if (config_.pool != nullptr && honest_ids_.size() > 1) {
    config_.pool->parallel_for(0, honest_ids_.size(), schedule_for);
  } else {
    for (std::size_t k = 0; k < honest_ids_.size(); ++k) schedule_for(k);
  }
  reduce_shard_deltas(honest_ids_);
  refresh_heads(honest_ids_);

  // Any round whose last honest node just entered: the rushing adversary
  // fixes its values now (ascending round order; the relative order of
  // different rounds' pushes is unobservable).
  std::vector<std::size_t> filled;
  for (const Entering& e : entering) {
    if (rounds_.at(e.round).honest_entered == honest_count_) {
      filled.push_back(e.round);
    }
  }
  std::sort(filled.begin(), filled.end());
  filled.erase(std::unique(filled.begin(), filled.end()), filled.end());
  for (const std::size_t round : filled) fix_byzantine_values(round);
}

void EventNetwork::fix_byzantine_values(std::size_t round) {
  RoundBook& book = rounds_.at(round);
  // The rushing adversary fixes its round values only now, after every
  // honest node committed its broadcast; the view still holds nullopt at
  // Byzantine slots during the calls, matching the omniscient-adversary
  // convention of the synchronous engine.  Strictly serial: value fixing
  // is the one adversary hook allowed to mutate adversary state.
  const double fix_time = book.max_entry;
  struct Fixed {
    std::size_t sender = 0;
    std::size_t wire = 0;
    double transmission = 0.0;
  };
  std::vector<Fixed> fixed;
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    if (processes_[i] != nullptr) continue;
    if (is_down(i, round)) {  // the fault plan crashes Byzantine ids too
      ++stats_.broadcasts_skipped;
      continue;
    }
    auto value = adversary_.byzantine_value(i, round, book.adversary_view);
    if (!value) {
      ++stats_.broadcasts_skipped;
      continue;
    }
    // The adversary speaks the protocol's wire format: with a codec
    // configured its value is serialized through it (lossy decode on the
    // payload, encoded size on the wire) — a dense oversized message would
    // be rejected at the receiver's boundary.  Without one it is priced
    // dense.
    std::size_t wire = value->size() * sizeof(double);
    if (config_.codec != nullptr) {
      const CompressedGradient encoded = config_.codec->encode(
          value->data(), value->size(), config_.codec_seed, i, round);
      wire = encoded.wire_bytes();
      *value = encoded.decode();
    }
    double* stored = book.arena.allocate(value->size());
    if (!value->empty()) {
      std::memcpy(stored, value->data(), value->size() * sizeof(double));
    }
    book.values[i] = PayloadView(stored, value->size());
    book.present[i] = 1;
    book.wire[i] = wire;
    fixed.push_back(Fixed{
        i, wire,
        config_.bandwidth > 0.0
            ? static_cast<double>(wire) / config_.bandwidth
            : 0.0});
  }
  if (fixed.empty()) return;

  // Fan the fixed values out, parallel per receiver shard like the honest
  // phase.  Rushing by default: a Byzantine message leaves the instant the
  // value is fixed; targeted extra delay stays inside the
  // partial-synchrony bound.  delivers()/scheduling_delay() are consulted
  // concurrently — pure decision hooks per the Adversary contract.
  const bool adversarial_scheduling = config_.adversary_delay_bound > 0.0;
  auto schedule_for = [&](std::size_t k) {
    const std::size_t receiver = honest_ids_[k];
    if (is_down(receiver, round)) return;  // no inbox to poison this round
    Shard& shard = shards_[receiver];
    for (const Fixed& f : fixed) {
      if (!adversary_.delivers(f.sender, receiver, round)) {
        ++shard.delta.omitted;
        continue;
      }
      shard.delta.bytes_sent += f.wire;
      double latency = f.transmission;
      if (adversarial_scheduling) {
        latency += clamp_extra_delay(
            adversary_.scheduling_delay(f.sender, receiver, round),
            config_.adversary_delay_bound);
      }
      append_event(shard, fix_time + latency, EventKind::Delivery, f.sender,
                   round);
    }
    shard.seal_wave();
  };
  if (config_.pool != nullptr && honest_ids_.size() > 1) {
    config_.pool->parallel_for(0, honest_ids_.size(), schedule_for);
  } else {
    for (std::size_t k = 0; k < honest_ids_.size(); ++k) schedule_for(k);
  }
  reduce_shard_deltas(honest_ids_);
  refresh_heads(honest_ids_);
}

void EventNetwork::process_event(std::size_t receiver,
                                 const ShardEvent& event, Shard& shard) {
  NodeState& st = nodes_[receiver];
  if (event.kind == EventKind::Timeout) {
    if (!st.done && st.round == event.round) st.timed_out = true;
    return;
  }
  // A round sealed by every honest node has had its book GC'd already;
  // any event still arriving for it is late by definition (and the late
  // check fires before any book access, so the view is never touched).
  const bool past = st.done ? event.round <= st.round : event.round < st.round;
  if (past) {
    ++shard.delta.late;
    return;
  }
  // Not past => this receiver has not completed `event.round`, so the
  // round is unsealed and its book is alive; concurrent shard tasks only
  // read it.
  if (!st.done && event.round == st.round) {
    const RoundBook& book = *st.book;
    st.inbox.push_back(Message{event.sender, book.values[event.sender],
                               book.wire[event.sender]});
  } else {
    // The sender ran ahead of this receiver inside a multi-round window.
    const RoundBook& book = rounds_.find(event.round)->second;
    st.future[event.round].push_back(Message{
        event.sender, book.values[event.sender], book.wire[event.sender]});
  }
}

bool EventNetwork::node_ready(const NodeState& node) const {
  if (node.done) return false;
  if (node.timed_out) return true;
  const std::size_t quorum = effective_quorum(node.round);
  return quorum != kNoQuorum && node.inbox.size() >= quorum;
}

void EventNetwork::HeadIndex::init(std::size_t n) {
  heap.clear();
  key.assign(n, 0.0);
  pos.assign(n, -1);
}

void EventNetwork::HeadIndex::sift_up(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (key[heap[parent]] <= key[heap[i]]) break;
    std::swap(heap[parent], heap[i]);
    pos[heap[i]] = static_cast<std::int32_t>(i);
    pos[heap[parent]] = static_cast<std::int32_t>(parent);
    i = parent;
  }
}

void EventNetwork::HeadIndex::sift_down(std::size_t i) {
  const std::size_t size = heap.size();
  while (true) {
    std::size_t best = i;
    const std::size_t left = 2 * i + 1;
    const std::size_t right = 2 * i + 2;
    if (left < size && key[heap[left]] < key[heap[best]]) best = left;
    if (right < size && key[heap[right]] < key[heap[best]]) best = right;
    if (best == i) break;
    std::swap(heap[i], heap[best]);
    pos[heap[i]] = static_cast<std::int32_t>(i);
    pos[heap[best]] = static_cast<std::int32_t>(best);
    i = best;
  }
}

void EventNetwork::HeadIndex::update(std::uint32_t id, double t) {
  if (pos[id] < 0) {
    key[id] = t;
    pos[id] = static_cast<std::int32_t>(heap.size());
    heap.push_back(id);
    sift_up(static_cast<std::size_t>(pos[id]));
    return;
  }
  if (key[id] == t) return;  // head unchanged — the common refresh case
  const bool towards_root = t < key[id];
  key[id] = t;
  if (towards_root) {
    sift_up(static_cast<std::size_t>(pos[id]));
  } else {
    sift_down(static_cast<std::size_t>(pos[id]));
  }
}

void EventNetwork::HeadIndex::remove(std::uint32_t id) {
  const std::int32_t at = pos[id];
  if (at < 0) return;
  const std::uint32_t last = heap.back();
  heap.pop_back();
  pos[id] = -1;
  if (static_cast<std::size_t>(at) == heap.size()) return;
  heap[at] = last;
  pos[last] = at;
  sift_up(static_cast<std::size_t>(at));
  sift_down(static_cast<std::size_t>(pos[last]));
}

void EventNetwork::refresh_heads(const std::vector<std::size_t>& ids) {
  for (const std::size_t i : ids) {
    const Shard& shard = shards_[i];
    const auto id = static_cast<std::uint32_t>(i);
    if (shard.empty()) {
      heads_.remove(id);
    } else {
      heads_.update(id, shard.front().time);
    }
  }
}

void EventNetwork::drain_next_batch() {
  BCL_TRACE_SPAN_FINE("net.drain");
  touched_.clear();
  if (heads_.empty()) {
    // Every shard is empty: stalled below quorum with no timeout
    // configured (loss without partial synchrony).  Force the stuck
    // rounds open so the run always terminates, accounted as timeouts.
    batch_time_ = now_;
    for (const std::size_t i : honest_ids_) {
      if (!nodes_[i].done) nodes_[i].timed_out = true;
    }
    touched_ = honest_ids_;
    return;
  }
  batch_time_ = heads_.top_key();
  now_ = std::max(now_, batch_time_);
  // Under a continuous delay distribution almost every batch is a single
  // event on a single shard.  The heap property bounds equal keys: if
  // neither child of the root matches the batch instant, no deeper entry
  // can, so the root shard alone is due — drain it in place with one
  // in-place key update instead of the remove / re-insert round trip.
  const bool solo =
      (heads_.heap.size() < 2 ||
       heads_.key[heads_.heap[1]] != batch_time_) &&
      (heads_.heap.size() < 3 || heads_.key[heads_.heap[2]] != batch_time_);
  if (solo) {
    const std::uint32_t id = heads_.top();
    touched_.push_back(id);
    Shard& shard = shards_[id];
    while (!shard.empty() && shard.front().time == batch_time_) {
      const ShardEvent event = shard.pop();
      process_event(id, event, shard);
    }
    reduce_shard_deltas(touched_);
    if (shard.empty()) {
      heads_.remove(id);
    } else {
      heads_.update(id, shard.front().time);
    }
    return;
  }
  // Pop every shard due at the batch instant (the freshness invariant —
  // refresh_heads after every heap-mutating phase — makes heads_ exact);
  // refresh_heads(touched_) below re-inserts whatever they have left.
  // Sorting restores id order so the downstream ready/entering walks
  // stay deterministic.
  while (!heads_.empty() && heads_.top_key() == batch_time_) {
    const std::uint32_t shard = heads_.top();
    heads_.remove(shard);
    touched_.push_back(shard);
  }
  std::sort(touched_.begin(), touched_.end());
  // The conservative safe window: every event at the minimum head
  // timestamp, across shards.  Within the window all effects are
  // per-receiver, so touched shards drain concurrently; per-shard pops
  // stay in (time, seq) order, reproducing the old global queue's
  // per-receiver FIFO exactly.
  auto drain_shard = [&](std::size_t k) {
    BCL_TRACE_SPAN_FINE("net.drain_shard");
    const std::size_t i = touched_[k];
    Shard& shard = shards_[i];
    while (!shard.empty() && shard.front().time == batch_time_) {
      const ShardEvent event = shard.pop();
      process_event(i, event, shard);
    }
  };
  if (config_.pool != nullptr && touched_.size() > 1) {
    config_.pool->parallel_for(0, touched_.size(), drain_shard);
  } else {
    for (std::size_t k = 0; k < touched_.size(); ++k) drain_shard(k);
  }
  reduce_shard_deltas(touched_);
  refresh_heads(touched_);
}

void EventNetwork::advance_ready_nodes() {
  BCL_TRACE_SPAN_FINE("net.deliver");
  // Readiness can only have changed for nodes whose shard the batch
  // touched (delivery grew the inbox or a timeout fired) — the stall path
  // marks every shard touched.
  std::vector<std::size_t> ready;
  for (const std::size_t i : touched_) {
    if (node_ready(nodes_[i])) ready.push_back(i);
  }
  if (ready.empty()) return;

  // Finalize + deliver, parallel per ready node: sender order, then the
  // honored-delay floor ("receive up to n messages": adversarial requests
  // to withhold honest messages are honored only while the inbox stays at
  // or above the quorum), byte accounting into the shard delta, and the
  // receive() hand-off.  Each task mutates only its own node, shard and
  // process.
  auto finalize = [&](std::size_t k) {
    const std::size_t i = ready[k];
    NodeState& st = nodes_[i];
    if (is_down(i, st.round)) {
      // A down node makes no progress this round: nothing arrived, nothing
      // is delivered, and its process is not called.
      st.inbox.clear();
      return;
    }
    Shard& shard = shards_[i];
    const std::size_t quorum = effective_quorum(st.round);
    std::sort(st.inbox.begin(), st.inbox.end(),
              [](const Message& a, const Message& b) {
                return a.sender < b.sender;
              });
    if (quorum != kNoQuorum && st.inbox.size() > quorum) {
      std::size_t droppable = st.inbox.size() - quorum;
      std::vector<Message> kept;
      kept.reserve(st.inbox.size());
      for (const Message& message : st.inbox) {
        if (droppable > 0 && processes_[message.sender] != nullptr &&
            adversary_.delays_honest(message.sender, i, st.round)) {
          --droppable;
          ++shard.delta.delayed;
          continue;
        }
        kept.push_back(message);
      }
      st.inbox = std::move(kept);
    }
    shard.delta.delivered += st.inbox.size();
    for (const Message& message : st.inbox) {
      if (message.sender == i) continue;  // loopback carries no bytes
      shard.delta.bytes_delivered += message.wire_bytes;
      shard.delta.bytes_dense += message.payload.size() * sizeof(double);
    }
    if (st.timed_out && config_.timeout != 0.0 &&
        (quorum == kNoQuorum || st.inbox.size() < quorum)) {
      ++shard.delta.timeouts;
    }
    processes_[i]->receive(st.round, std::move(st.inbox));
  };
  if (config_.pool != nullptr && ready.size() > 1) {
    config_.pool->parallel_for(0, ready.size(), finalize);
  } else {
    for (std::size_t k = 0; k < ready.size(); ++k) finalize(k);
  }
  reduce_shard_deltas(ready);

  // Complete the rounds, seal any round now finished by all honest nodes
  // (in order — a node finishes r before r+1, so the frontier walks
  // forward) and recycle its arena, then enter next rounds in id order so
  // every round-(r+1) broadcast precedes the adversary's round-(r+1)
  // value fixing, exactly as in the synchronous engine.
  for (const std::size_t i : ready) {
    NodeState& st = nodes_[i];
    st.done = true;
    st.inbox.clear();
    st.completed = std::max(st.entered, batch_time_);
    RoundBook& book = rounds_.at(st.round);
    book.max_end = std::max(book.max_end, st.completed);
    ++book.done_count;
  }
  while (true) {
    const auto done = rounds_.find(completed_rounds_);
    if (done == rounds_.end() || done->second.done_count != honest_count_) {
      break;
    }
    const double prev_end =
        round_end_times_.empty() ? 0.0 : round_end_times_.back();
    round_end_times_.push_back(
        std::max(prev_end, done->second.max_end));
    now_ = std::max(now_, round_end_times_.back());
    done->second.arena.reset();
    arena_pool_.push_back(std::move(done->second.arena));
    rounds_.erase(done);
    if (config_.faults != nullptr && config_.faults->any()) {
      if (!config_.fault_membership_frozen) {
        // Frozen membership = the caller drives the plan round by round
        // and accounts transitions itself (the decentralized trainer).
        const FaultPlan::RoundTransitions& moved =
            config_.faults->transitions(plan_round(completed_rounds_));
        stats_.crashes += moved.crashes;
        stats_.recoveries += moved.recoveries;
        stats_.joins += moved.joins;
      }
      const std::size_t quorum = effective_quorum(completed_rounds_);
      if (config_.quorum != kNoQuorum && quorum < config_.quorum) {
        ++stats_.rounds_degraded;
      }
    }
    ++completed_rounds_;
    stats_.rounds = completed_rounds_;
  }
  std::vector<Entering> entering;
  for (const std::size_t i : ready) {
    const std::size_t next = nodes_[i].round + 1;
    if (next < target_rounds_) {
      Entering e;
      e.node = i;
      e.round = next;
      entering.push_back(std::move(e));
    }
  }
  enter_rounds(entering);
}

void EventNetwork::reduce_shard_deltas(const std::vector<std::size_t>& ids) {
  for (const std::size_t i : ids) {
    ShardStats& d = shards_[i].delta;
    stats_.messages_dropped += d.dropped;
    stats_.messages_omitted += d.omitted;
    stats_.messages_late += d.late;
    stats_.messages_delivered += d.delivered;
    stats_.messages_delayed += d.delayed;
    stats_.timeouts_fired += d.timeouts;
    stats_.bytes_sent += d.bytes_sent;
    stats_.bytes_delivered += d.bytes_delivered;
    stats_.bytes_dense_delivered += d.bytes_dense;
    d = ShardStats{};
  }
}

void EventNetwork::run_round() { run(1); }

void EventNetwork::run(std::size_t rounds) {
  if (rounds == 0) return;
  target_rounds_ = completed_rounds_ + rounds;
  std::vector<Entering> entering;
  if (!started_) {
    started_ = true;
    for (const std::size_t i : honest_ids_) {
      Entering e;
      e.node = i;
      e.round = 0;
      entering.push_back(std::move(e));
    }
  } else {
    // Release nodes holding at the barrier of the previous run() call.
    for (const std::size_t i : honest_ids_) {
      if (nodes_[i].done && nodes_[i].round + 1 < target_rounds_) {
        Entering e;
        e.node = i;
        e.round = nodes_[i].round + 1;
        entering.push_back(std::move(e));
      }
    }
  }
  enter_rounds(entering);
  while (completed_rounds_ < target_rounds_) {
    drain_next_batch();
    advance_ready_nodes();
  }
}

double EventNetwork::last_round_latency() const {
  if (round_end_times_.empty()) return 0.0;
  if (round_end_times_.size() == 1) return round_end_times_.front();
  return round_end_times_.back() -
         round_end_times_[round_end_times_.size() - 2];
}

void publish_network_stats(const NetworkStats& stats,
                           obs::MetricsRegistry& registry) {
  registry.counter("net.rounds").add(stats.rounds);
  registry.counter("net.messages_delivered").add(stats.messages_delivered);
  registry.counter("net.messages_omitted").add(stats.messages_omitted);
  registry.counter("net.broadcasts_skipped").add(stats.broadcasts_skipped);
  registry.counter("net.messages_delayed").add(stats.messages_delayed);
  registry.counter("net.messages_dropped").add(stats.messages_dropped);
  registry.counter("net.messages_late").add(stats.messages_late);
  registry.counter("net.timeouts_fired").add(stats.timeouts_fired);
  registry.counter("net.bytes_sent").add(stats.bytes_sent);
  registry.counter("net.bytes_delivered").add(stats.bytes_delivered);
  registry.counter("net.bytes_dense_delivered")
      .add(stats.bytes_dense_delivered);
  registry.counter("net.crashes").add(stats.crashes);
  registry.counter("net.recoveries").add(stats.recoveries);
  registry.counter("net.joins").add(stats.joins);
  registry.counter("net.rounds_degraded").add(stats.rounds_degraded);
}

}  // namespace bcl
