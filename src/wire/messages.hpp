// Typed messages of the fhdnnd serving protocol, layered on wire framing.
//
// Conversation (one worker, W workers total; the server multiplexes):
//
//   worker                         server
//     | -- Hello {ver, proto, fp} -> |   fingerprint must match the
//     | <- HelloAck {worker id} ---- |   server's EngineConfig fingerprint
//     | <- RoundAssign {rng, slots,  |   one per round; slots round-robin
//     |      state blob} ----------- |   over delivered participants
//     | -- Update {slot, loss,       |   one per assigned slot; update blob
//     |      stats, update blob} --> |   is a snapshot image (UPDT chunk)
//     | <- RoundDone {metrics} ----- |   committed-round ack + accounting
//     |            ...               |
//     | <- Shutdown {rounds} ------- |   training complete
//
// Every message is `X::to_frame()` / `X::from_frame(f)`; from_frame
// validates the frame type, decodes strictly in field order, and rejects
// trailing payload bytes.  State/update blobs are util/snapshot images
// (their own chunk CRCs) validated on receipt by SnapshotReader::borrow.
//
// The two messages that carry a ~MB blob move it once on each side:
//   - append_round_assign / append_update encode straight into a send
//     buffer (MessageChannel::send_with), writing the blob in place and
//     patching the lengths and the CRC afterwards — the same bytes
//     to_frame() + append_frame would queue;
//   - RoundAssignMsg::from_frame / UpdateMsg::from_frame return a
//     RoundAssignView / UpdateView whose blob is a span into the frame, so
//     it is valid exactly as long as the FrameView it was decoded from.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "channel/channel.hpp"  // TransportStats
#include "util/rng.hpp"         // RngState
#include "wire/wire.hpp"

namespace fhdnn::wire {

/// Worker -> server greeting.  The server rejects version skew (the frame
/// layer already did, for the frame header) and fingerprint mismatches —
/// a worker built from a different EngineConfig would silently diverge.
struct HelloMsg {
  std::uint32_t config_fingerprint = 0;
  std::string protocol;             ///< "fedavg" | "fedhd" | ...
  std::uint64_t capabilities = 0;   ///< reserved bitmask (must echo 0 today)

  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static HelloMsg from_frame(FrameView f);
};

/// Server -> worker: handshake accepted.
struct HelloAckMsg {
  std::uint32_t config_fingerprint = 0;
  std::uint64_t worker_id = 0;

  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static HelloAckMsg from_frame(FrameView f);
};

struct SlotAssignment {
  std::uint64_t slot = 0;    ///< cohort slot index (reduction order key)
  std::uint64_t client = 0;  ///< global client id for that slot
};

/// The fields of a RoundAssign before its state blob.
struct RoundAssignHead {
  std::int64_t round_index = 0;
  std::uint64_t n_participants = 0;  ///< cohort size (begin_round arg)
  RngState rng;                      ///< round stream at prologue state
  std::vector<SlotAssignment> slots;
};

/// A decoded RoundAssign; `state_blob` points into the frame it came from.
struct RoundAssignView : RoundAssignHead {
  std::span<const std::uint8_t> state_blob;
};

/// Server -> worker: drive these slots for one round.  `state_blob` is the
/// full protocol state (global model / prototypes, PROT chunk) and `rng` the
/// round stream, so the worker replays exactly what the in-process driver
/// would have computed for the same slots.
struct RoundAssignMsg : RoundAssignHead {
  std::vector<std::uint8_t> state_blob;  ///< snapshot image, PROT chunk

  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static RoundAssignView from_frame(FrameView f);
  /// The view would outlive a temporary frame's payload.
  static RoundAssignView from_frame(const Frame&& f) = delete;
};

/// Appends a RoundAssign frame for `head` and `state_image` to `out`.
void append_round_assign(std::vector<std::uint8_t>& out,
                         const RoundAssignHead& head,
                         std::span<const std::uint8_t> state_image);

/// The fields of an Update before its update blob.
struct UpdateHead {
  std::int64_t round_index = 0;
  std::uint64_t slot = 0;
  std::uint64_t client = 0;
  double loss = 0.0;
  channel::TransportStats stats;
};

/// A decoded Update; `update_blob` points into the frame it came from.
struct UpdateView : UpdateHead {
  std::span<const std::uint8_t> update_blob;
};

/// Worker -> server: one trained slot.  `update_blob` is a snapshot image
/// (UPDT chunk) holding the protocol-specific update (subsampled float
/// state for FedAvg, HD prototype tensor for FedHd) exactly as the
/// client-side transport emitted it — corruption and accounting already
/// applied on the worker, so the server installs it verbatim.
struct UpdateMsg : UpdateHead {
  std::vector<std::uint8_t> update_blob;  ///< snapshot image, UPDT chunk

  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static UpdateView from_frame(FrameView f);
  /// The view would outlive a temporary frame's payload.
  static UpdateView from_frame(const Frame&& f) = delete;
};

/// Appends an Update frame for `head` to `out`; `append_blob` appends the
/// update blob to the same buffer (util::append_image writes the snapshot
/// image there).  If it throws, `out` is restored to the bytes it held on
/// entry.
void append_update(
    std::vector<std::uint8_t>& out, const UpdateHead& head,
    const std::function<void(std::vector<std::uint8_t>&)>& append_blob);

/// Server -> worker: the round committed (ack + metrics echo).
struct RoundDoneMsg {
  std::int64_t round_index = 0;
  std::uint64_t accepted = 0;
  std::uint64_t bytes_uplink = 0;  ///< channel::hd_update_bytes accounting
  double test_accuracy = 0.0;      ///< NaN when the round skipped eval

  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static RoundDoneMsg from_frame(FrameView f);
};

/// Server -> worker: training finished; the worker should disconnect.
struct ShutdownMsg {
  std::int64_t rounds_completed = 0;

  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static ShutdownMsg from_frame(FrameView f);
};

}  // namespace fhdnn::wire
