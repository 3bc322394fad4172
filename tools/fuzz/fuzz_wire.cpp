// libFuzzer harness for the wire framing parser and the message decoders
// (src/wire).
//
// Properties checked on every input:
//   1. decode_frame() either returns a valid frame view or throws
//      DecodeError — no crash, no sanitizer report, no other exception type.
//   2. Round-trip: a frame that decodes must re-encode to the exact input
//      bytes (decode is strict: one frame, no trailing bytes).
//   3. Stream agreement: FrameAssembler reading the same bytes in place
//      (prepare/commit), in pieces cut at input-derived points, must produce
//      the same single frame with an empty buffer — or throw DecodeError if
//      and only if whole-buffer decode also rejected the input.
//   4. View agreement: a message decoded from a view into the input equals
//      the same message decoded from an owned copy of the payload, or both
//      throw the same DecodeError kind; a message that decodes re-encodes
//      to the payload it came from, and its embedded snapshot image (state
//      or update blob) validates alike in place and copied.  Checked for the
//      frame decode_frame accepted, and for the raw input read as a payload
//      of the type its first byte picks, so the decoders see inputs whose
//      frame CRC would have stopped them.
//
// Build with -DFHDNN_FUZZ=ON; under Clang this links libFuzzer, elsewhere
// tools/fuzz/driver_main.cpp replays corpus files (see README "Fuzzing").
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/snapshot.hpp"
#include "wire/messages.hpp"
#include "wire/wire.hpp"

namespace {

namespace wire = fhdnn::wire;
namespace util = fhdnn::util;

[[noreturn]] void die(const char* property) {
  std::fprintf(stderr, "fuzz_wire: property violated: %s\n", property);
  std::abort();
}

/// How validating a snapshot image in place ends: "ok" or "E<kind>@<at>".
std::string image_outcome(std::span<const std::uint8_t> image) {
  try {
    (void)util::SnapshotReader::borrow(image, "<fuzz>");
    return "ok";
  } catch (const util::DecodeError& e) {
    return "E" + std::to_string(static_cast<int>(e.kind())) + "@" +
           std::to_string(e.byte_offset());
  }
}

/// How decoding `f` as its message type ends: the re-encoded payload plus
/// the blob's validation outcome, or "E<kind>".  Each decoded message is
/// re-encoded through its builder, so equal strings mean equal fields.
std::string message_outcome(const wire::FrameView& f) {
  try {
    std::vector<std::uint8_t> re;
    std::string image;
    switch (f.type) {
      case wire::MsgType::kHello:
        re = wire::HelloMsg::from_frame(f).to_frame().payload;
        break;
      case wire::MsgType::kHelloAck:
        re = wire::HelloAckMsg::from_frame(f).to_frame().payload;
        break;
      case wire::MsgType::kRoundAssign: {
        const wire::RoundAssignView v = wire::RoundAssignMsg::from_frame(f);
        wire::RoundAssignMsg m;
        static_cast<wire::RoundAssignHead&>(m) = v;
        m.state_blob.assign(v.state_blob.begin(), v.state_blob.end());
        re = m.to_frame().payload;
        image = image_outcome(v.state_blob);
        break;
      }
      case wire::MsgType::kUpdate: {
        const wire::UpdateView v = wire::UpdateMsg::from_frame(f);
        wire::UpdateMsg m;
        static_cast<wire::UpdateHead&>(m) = v;
        m.update_blob.assign(v.update_blob.begin(), v.update_blob.end());
        re = m.to_frame().payload;
        image = image_outcome(v.update_blob);
        break;
      }
      case wire::MsgType::kRoundDone:
        re = wire::RoundDoneMsg::from_frame(f).to_frame().payload;
        break;
      case wire::MsgType::kShutdown:
        re = wire::ShutdownMsg::from_frame(f).to_frame().payload;
        break;
    }
    if (re.size() != f.payload.size() ||
        !std::equal(re.begin(), re.end(), f.payload.begin())) {
      die("a decoded message does not re-encode to its payload");
    }
    return std::string(re.begin(), re.end()) + "|" + image;
  } catch (const util::DecodeError& e) {
    return "E" + std::to_string(static_cast<int>(e.kind()));
  }
}

void check_view_agreement(const wire::FrameView& view) {
  const wire::Frame owned(view);  // a copy in a buffer of its own
  if (message_outcome(view) != message_outcome(owned)) {
    die("view decode != owned-copy decode");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::optional<wire::FrameView> whole;
  try {
    whole = wire::decode_frame(data, size);
  } catch (const util::DecodeError&) {
    // Rejection is the expected outcome for most mutated inputs.
  }

  if (whole.has_value()) {
    if (whole->payload.data() != data + wire::kFrameHeaderSize) {
      die("decode_frame copied the payload");
    }
    const std::vector<std::uint8_t> re = wire::encode_frame(
        whole->type,
        std::vector<std::uint8_t>(whole->payload.begin(), whole->payload.end()));
    if (re.size() != size) die("re-encode size != input size");
    for (std::size_t i = 0; i < size; ++i) {
      if (re[i] != data[i]) die("re-encode bytes != input bytes");
    }
    check_view_agreement(*whole);
  }
  if (size > 0) {
    const auto type = static_cast<wire::MsgType>(
        data[0] % static_cast<std::uint8_t>(wire::MsgType::kShutdown) + 1);
    check_view_agreement(wire::FrameView(type, {data + 1, size - 1}));
  }

  // Read the stream in place in pieces cut at input-derived offsets, so the
  // header/payload boundary and buffer growth land everywhere across the
  // corpus.  A view dies at the next prepare(), so the frame is copied.
  wire::FrameAssembler asm_;
  std::optional<wire::Frame> streamed;
  bool stream_rejected = false;
  try {
    std::size_t at = 0;
    for (std::size_t k = 0; at < size; ++k) {
      const std::size_t piece = std::min(
          size - at, 1 + (data[k % size] * 7919U + k * 104729U) % (size / 2 + 1));
      const std::span<std::uint8_t> space = asm_.prepare(piece);
      if (space.size() < piece) die("prepare() returned too little space");
      std::memcpy(space.data(), data + at, piece);
      asm_.commit(piece);
      at += piece;
      if (!streamed) {
        if (const std::optional<wire::FrameView> f = asm_.next()) streamed = *f;
      }
    }
  } catch (const util::DecodeError&) {
    stream_rejected = true;
  }

  if (whole.has_value()) {
    if (stream_rejected) die("assembler rejected a decodable frame");
    if (!streamed.has_value()) die("assembler buffered a complete frame");
    if (streamed->type != whole->type ||
        !std::equal(streamed->payload.begin(), streamed->payload.end(),
                    whole->payload.begin(), whole->payload.end())) {
      die("assembler frame != whole-buffer frame");
    }
    if (asm_.buffered() != 0) die("trailing bytes after the only frame");
  }
  return 0;
}
