#include "fl/serving.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "util/check.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "util/snapshot.hpp"
#include "util/workspace.hpp"

namespace fhdnn::fl {
namespace {

/// Serialize the full protocol state as a snapshot image (PROT chunk) into
/// `image`, reusing its capacity — the broadcast blob every worker
/// reconstructs the round from.
void encode_state(RoundProtocol& protocol, std::vector<std::uint8_t>& image) {
  image.clear();
  util::append_image(image, [&](util::SnapshotWriter& w) {
    w.begin_chunk("PROT");
    protocol.save_state(w);
    w.end_chunk();
  });
}

/// Validate + load a state blob produced by encode_state, in place.
void decode_state(RoundProtocol& protocol, std::span<const std::uint8_t> blob) {
  util::SnapshotReader r = util::SnapshotReader::borrow(blob, "wire:state");
  r.enter_chunk("PROT");
  protocol.load_state(r);
  r.leave_chunk();
  r.enter_chunk("END ");
  r.leave_chunk();
}

}  // namespace

// ---------------------------------------------------------------------------
// ServerRoundDriver

ServerRoundDriver::ServerRoundDriver(std::uint32_t fingerprint,
                                     std::string protocol_name,
                                     ServingConfig config)
    : fingerprint_(fingerprint),
      protocol_name_(std::move(protocol_name)),
      config_(config) {}

std::uint64_t ServerRoundDriver::add_worker(
    std::unique_ptr<net::Connection> conn) {
  FHDNN_CHECK(conn != nullptr, "add_worker: null connection");
  Worker w;
  w.conn = std::move(conn);
  w.chan = std::make_unique<net::MessageChannel>(*w.conn);

  const wire::Frame frame = w.chan->recv(config_.handshake_timeout_ms);
  const wire::HelloMsg hello = wire::HelloMsg::from_frame(frame);
  if (hello.config_fingerprint != fingerprint_) {
    throw net::NetError("hello from " + w.conn->describe() +
                        " carries config fingerprint " +
                        std::to_string(hello.config_fingerprint) +
                        ", server expects " + std::to_string(fingerprint_));
  }
  if (hello.protocol != protocol_name_) {
    throw net::NetError("hello from " + w.conn->describe() + " speaks \"" +
                        hello.protocol + "\", server runs \"" +
                        protocol_name_ + "\"");
  }

  w.id = next_worker_id_++;
  wire::HelloAckMsg ack;
  ack.config_fingerprint = fingerprint_;
  ack.worker_id = w.id;
  w.chan->send(ack.to_frame());
  int waited_ms = 0;
  while (!w.chan->flush() && waited_ms < config_.handshake_timeout_ms) {
    w.conn->wait_writable(config_.poll_slice_ms);
    waited_ms += config_.poll_slice_ms;
  }

  const std::uint64_t id = w.id;
  log_info("fhdnnd") << "worker " << id << " connected ("
                     << w.conn->describe() << ")";
  workers_.push_back(std::move(w));
  return id;
}

void ServerRoundDriver::drive(RoundProtocol& protocol, const Rng& round_rng,
                              int round_index,
                              const std::vector<std::size_t>& participants,
                              const std::vector<char>& delivered,
                              const std::vector<char>& awake,
                              std::vector<ClientReport>& reports) {
  (void)awake;  // delivery flags already fold availability in
  FHDNN_CHECK(!workers_.empty(), "ServerRoundDriver has no workers");
  const std::size_t n = participants.size();
  const std::size_t n_workers = workers_.size();

  // Deal the delivered slots over workers round-robin in slot order —
  // deterministic, so the same run assigns the same work regardless of
  // connection arrival order (worker ids are assigned in add_worker order).
  std::vector<std::vector<wire::SlotAssignment>> deal(n_workers);
  std::size_t expected = 0;
  for (std::size_t slot = 0; slot < n; ++slot) {
    if (!delivered[slot]) continue;
    deal[expected % n_workers].push_back(
        wire::SlotAssignment{slot, participants[slot]});
    ++expected;
  }

  // One RoundAssign per worker — zero-slot workers included, so every
  // worker observes every round and stays in lockstep with the server. The
  // state image is encoded once and copied into each worker's send buffer.
  encode_state(protocol, state_image_);
  wire::RoundAssignHead assign;
  assign.round_index = round_index;
  assign.n_participants = n;
  assign.rng = round_rng.state();
  for (std::size_t wi = 0; wi < n_workers; ++wi) {
    assign.slots = std::move(deal[wi]);
    workers_[wi].owed = assign.slots.size();
    workers_[wi].chan->send_with([&](std::vector<std::uint8_t>& tx) {
      wire::append_round_assign(tx, assign, state_image_);
    });
  }

  // Collect until every delivered slot reported. Updates install into the
  // protocol's per-slot buffer — arrival order cannot matter because the
  // engine's reduction consumes slots serially in slot order afterwards.
  std::vector<char> got(n, 0);
  std::size_t received = 0;
  int waited_ms = 0;
  std::vector<net::Connection*> conns;
  for (Worker& w : workers_) conns.push_back(w.conn.get());
  std::vector<char> want_write(n_workers, 0);
  while (received < expected) {
    bool progress = false;
    for (Worker& w : workers_) {
      const std::size_t queued = w.chan->tx_pending();
      if (queued > 0) {
        (void)w.chan->flush();
        if (w.chan->tx_pending() < queued) progress = true;
      }
      for (;;) {
        // The update is decoded, validated and installed where it was
        // received; the view dies at the next poll().
        std::optional<wire::FrameView> frame = w.chan->poll();
        if (!frame) break;
        progress = true;
        const wire::UpdateView u = wire::UpdateMsg::from_frame(*frame);
        if (u.round_index != round_index) {
          throw net::NetError("worker " + std::to_string(w.id) +
                              " sent an update for round " +
                              std::to_string(u.round_index) + " during round " +
                              std::to_string(round_index));
        }
        if (u.slot >= n || !delivered[u.slot]) {
          throw net::NetError("worker " + std::to_string(w.id) +
                              " sent an update for slot " +
                              std::to_string(u.slot) +
                              ", which is not a delivered slot");
        }
        if (got[u.slot]) {
          throw net::NetError("worker " + std::to_string(w.id) +
                              " sent a duplicate update for slot " +
                              std::to_string(u.slot));
        }
        if (u.client != participants[u.slot]) {
          throw net::NetError("worker " + std::to_string(w.id) +
                              " attributed slot " + std::to_string(u.slot) +
                              " to client " + std::to_string(u.client) +
                              " instead of " +
                              std::to_string(participants[u.slot]));
        }
        util::SnapshotReader r = util::SnapshotReader::borrow(
            u.update_blob, "wire:update slot " + std::to_string(u.slot));
        r.enter_chunk("UPDT");
        protocol.load_update(static_cast<std::size_t>(u.slot), r);
        r.leave_chunk();
        r.enter_chunk("END ");
        r.leave_chunk();
        reports[u.slot].loss = u.loss;
        reports[u.slot].stats = u.stats;
        got[u.slot] = 1;
        if (w.owed > 0) --w.owed;
        ++received;
      }
      if (w.conn->peer_closed() && w.owed > 0) {
        throw net::NetError("worker " + std::to_string(w.id) +
                            " disconnected with " + std::to_string(w.owed) +
                            " updates outstanding");
      }
    }
    if (progress) {
      waited_ms = 0;
      continue;
    }
    if (waited_ms >= config_.round_timeout_ms) {
      throw net::NetError("round " + std::to_string(round_index) +
                          " collection timed out with " +
                          std::to_string(expected - received) + " of " +
                          std::to_string(expected) + " updates outstanding");
    }
    // A worker with queued bytes is waited on for writability too: a
    // RoundAssign stalled on a full socket resumes as soon as the worker
    // reads, not a slice later.
    for (std::size_t wi = 0; wi < n_workers; ++wi) {
      want_write[wi] = workers_[wi].chan->tx_pending() > 0 ? 1 : 0;
    }
    net::wait_any(conns, want_write, config_.poll_slice_ms);
    waited_ms += config_.poll_slice_ms;
  }
  log_debug("fhdnnd") << "round " << round_index << ": collected " << received
                      << " updates from " << n_workers << " workers";
}

void ServerRoundDriver::round_committed(const RoundMetrics& metrics) {
  wire::RoundDoneMsg done;
  done.round_index = metrics.round;
  done.accepted = metrics.clients;
  done.bytes_uplink = metrics.bytes_uplink;
  done.test_accuracy = metrics.test_accuracy;
  const wire::Frame frame = done.to_frame();
  for (Worker& w : workers_) {
    if (w.conn->peer_closed()) continue;
    w.chan->send(frame);
  }
}

void ServerRoundDriver::shutdown(std::int64_t rounds_completed) {
  wire::ShutdownMsg msg;
  msg.rounds_completed = rounds_completed;
  const wire::Frame frame = msg.to_frame();
  for (Worker& w : workers_) {
    if (w.conn->peer_closed()) continue;
    try {
      w.chan->send(frame);
      int waited_ms = 0;
      while (!w.chan->flush() && waited_ms < config_.handshake_timeout_ms) {
        w.conn->wait_writable(config_.poll_slice_ms);
        waited_ms += config_.poll_slice_ms;
      }
    } catch (const net::NetError&) {
      // A worker gone at shutdown is not an error; the round data is safe.
    }
    w.conn->close();
  }
}

std::uint64_t ServerRoundDriver::wire_bytes_sent() const {
  std::uint64_t total = 0;
  for (const Worker& w : workers_) total += w.chan->bytes_sent();
  return total;
}

std::uint64_t ServerRoundDriver::wire_bytes_received() const {
  std::uint64_t total = 0;
  for (const Worker& w : workers_) total += w.chan->bytes_received();
  return total;
}

// ---------------------------------------------------------------------------
// WorkerLoop

WorkerLoop::WorkerLoop(net::Connection& conn, RoundProtocol& protocol,
                       std::uint32_t fingerprint, std::string protocol_name,
                       ServingConfig config)
    : chan_(conn),
      protocol_(protocol),
      fingerprint_(fingerprint),
      protocol_name_(std::move(protocol_name)),
      config_(config) {}

void WorkerLoop::handshake() {
  wire::HelloMsg hello;
  hello.config_fingerprint = fingerprint_;
  hello.protocol = protocol_name_;
  hello.capabilities = 0;
  chan_.send(hello.to_frame());
  const wire::Frame frame = chan_.recv(config_.handshake_timeout_ms);
  const wire::HelloAckMsg ack = wire::HelloAckMsg::from_frame(frame);
  if (ack.config_fingerprint != fingerprint_) {
    throw net::NetError("server acknowledged fingerprint " +
                        std::to_string(ack.config_fingerprint) +
                        ", worker has " + std::to_string(fingerprint_));
  }
  worker_id_ = ack.worker_id;
  log_debug("worker-" + std::to_string(worker_id_)) << "handshake complete";
}

bool WorkerLoop::serve() {
  for (;;) {
    wire::Frame parked;  // keeps a parked frame alive while it is served
    wire::FrameView frame;
    if (parked_next_ < parked_.size()) {
      parked = std::move(parked_[parked_next_++]);
      if (parked_next_ == parked_.size()) {
        parked_.clear();
        parked_next_ = 0;
      }
      frame = parked;
    } else {
      try {
        frame = chan_.recv(config_.round_timeout_ms);
      } catch (const net::NetError&) {
        if (chan_.connection().peer_closed()) return false;  // server gone
        throw;
      }
    }
    switch (frame.type) {
      case wire::MsgType::kRoundAssign:
        try {
          serve_round(wire::RoundAssignMsg::from_frame(frame));
        } catch (const net::NetError&) {
          // A server that dies mid-round (kill -9 under test) surfaces
          // here as a send/flush failure; report "connection lost" so the
          // caller reconnects to the restarted server. The round we were
          // serving is re-driven from its checkpoint — nothing to salvage.
          if (chan_.connection().peer_closed()) return false;
          throw;
        }
        break;
      case wire::MsgType::kRoundDone: {
        const auto done = wire::RoundDoneMsg::from_frame(frame);
        log_debug("worker-" + std::to_string(worker_id_))
            << "round " << done.round_index << " committed: accepted "
            << done.accepted << ", acc " << done.test_accuracy;
        break;
      }
      case wire::MsgType::kShutdown:
        shutdown_rounds_ = wire::ShutdownMsg::from_frame(frame).rounds_completed;
        return true;
      default:
        throw util::DecodeError(
            util::DecodeErrorKind::kSchema, 0,
            "unexpected message type " +
                std::to_string(static_cast<int>(frame.type)) +
                " while serving");
    }
  }
}

void WorkerLoop::serve_round(const wire::RoundAssignView& assign) {
  // Reconstruct the server's round context: protocol state, then the round
  // stream at its prologue state — from here every named fork (downlink,
  // client-<id>, channel-<id>, mask) replays exactly as in process. The
  // state blob lives in the receive buffer, so it is read before anything
  // pumps the connection again.
  Rng round_rng;
  round_rng.set_state(assign.rng);
  decode_state(protocol_, assign.state_blob);
  const auto n = static_cast<std::size_t>(assign.n_participants);
  protocol_.begin_round(round_rng, n);

  // Train the slots one pool-width batch at a time, same schedule contract
  // as LocalRoundDriver (arena reset per batch, scope-leak check per
  // client), and queue each batch's updates before training the next: the
  // server takes in early slots while later ones train.
  const std::size_t k = assign.slots.size();
  const auto width =
      static_cast<std::size_t>(std::max(1, parallel::num_threads()));
  std::vector<ClientReport> local(k);
  for (std::size_t b0 = 0; b0 < k; b0 += width) {
    const std::size_t b1 = std::min(k, b0 + width);
    parallel::parallel_for(
        static_cast<std::int64_t>(b0), static_cast<std::int64_t>(b1), 1,
        [&](std::int64_t i0, std::int64_t i1) {
          util::tls_workspace().reset();
          for (std::int64_t i = i0; i < i1; ++i) {
            const auto idx = static_cast<std::size_t>(i);
            const wire::SlotAssignment& a = assign.slots[idx];
            local[idx] = protocol_.run_client(
                static_cast<std::size_t>(a.slot),
                static_cast<std::size_t>(a.client), round_rng,
                /*delivered=*/true);
            FHDNN_CHECKED_ASSERT(
                util::tls_workspace().scope_depth() == 0,
                "workspace Scope leaked across client " << a.client
                                                        << " boundary");
          }
        });
    for (std::size_t i = b0; i < b1; ++i) {
      send_update(assign.round_index, assign.slots[i], local[i]);
    }
  }
  flush_blocking();
  ++rounds_served_;
}

void WorkerLoop::send_update(std::int64_t round_index,
                             const wire::SlotAssignment& a,
                             const ClientReport& report) {
  wire::UpdateHead head;
  head.round_index = round_index;
  head.slot = a.slot;
  head.client = a.client;
  head.loss = report.loss;
  head.stats = report.stats;
  const auto slot = static_cast<std::size_t>(a.slot);
  // The update image is written once, into the send buffer.
  const auto append_image = [&](std::vector<std::uint8_t>& out) {
    util::append_image(out, [&](util::SnapshotWriter& w) {
      w.begin_chunk("UPDT");
      protocol_.save_update(slot, w);
      w.end_chunk();
    });
  };
  chan_.send_with([&](std::vector<std::uint8_t>& tx) {
    wire::append_update(tx, head, append_image);
  });
}

void WorkerLoop::flush_blocking() {
  int idle_ms = 0;  // waits that ended with no byte written or received
  for (;;) {
    const std::size_t queued = chan_.tx_pending();
    const std::uint64_t received = chan_.bytes_received();
    if (chan_.flush()) return;
    // The server may interleave its own frames (e.g. the previous round's
    // RoundDone) while we drain; park them for serve() instead of losing
    // them or spinning on a readable-but-irrelevant connection.
    if (std::optional<wire::FrameView> f = chan_.poll()) {
      parked_.emplace_back(*f);
      continue;
    }
    if (chan_.connection().peer_closed()) {
      throw net::NetError("server closed while updates were queued");
    }
    if (chan_.tx_pending() < queued || chan_.bytes_received() != received) {
      idle_ms = 0;
    }
    if (idle_ms >= config_.round_timeout_ms) {
      throw net::NetError("flushing updates timed out");
    }
    chan_.connection().wait_writable(config_.poll_slice_ms);
    idle_ms += config_.poll_slice_ms;
  }
}

}  // namespace fhdnn::fl
