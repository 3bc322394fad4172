// libFuzzer harness for the wire framing parser (src/wire).
//
// Properties checked on every input:
//   1. decode_frame() either returns a valid Frame or throws DecodeError —
//      no crash, no sanitizer report, no other exception type.
//   2. Round-trip: a frame that decodes must re-encode to the exact input
//      bytes (decode is strict: one frame, no trailing bytes).
//   3. Stream agreement: FrameAssembler fed the same bytes, split at an
//      input-derived point, must produce the same single frame with an
//      empty buffer — or throw DecodeError if and only if whole-buffer
//      decode also rejected the input.
//
// Build with -DFHDNN_FUZZ=ON; under Clang this links libFuzzer, elsewhere
// tools/fuzz/driver_main.cpp replays corpus files (see README "Fuzzing").
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <vector>

#include "util/bytes.hpp"
#include "wire/wire.hpp"

namespace {

[[noreturn]] void die(const char* property) {
  std::fprintf(stderr, "fuzz_wire: property violated: %s\n", property);
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  namespace wire = fhdnn::wire;

  std::optional<wire::Frame> whole;
  try {
    whole = wire::decode_frame(data, size);
  } catch (const fhdnn::util::DecodeError&) {
    // Rejection is the expected outcome for most mutated inputs.
  }

  if (whole.has_value()) {
    const std::vector<std::uint8_t> re =
        wire::encode_frame(whole->type, whole->payload);
    if (re.size() != size) die("re-encode size != input size");
    for (std::size_t i = 0; i < size; ++i) {
      if (re[i] != data[i]) die("re-encode bytes != input bytes");
    }
  }

  // Split the stream at an input-derived offset so the assembler sees the
  // header/payload boundary land everywhere across the corpus.
  const std::size_t split = size == 0 ? 0 : (data[0] * 37 + size / 2) % size;
  wire::FrameAssembler asm_;
  std::optional<wire::Frame> streamed;
  bool stream_rejected = false;
  try {
    asm_.feed(data, split);
    streamed = asm_.next();
    asm_.feed(data + split, size - split);
    if (!streamed.has_value()) streamed = asm_.next();
  } catch (const fhdnn::util::DecodeError&) {
    stream_rejected = true;
  }

  if (whole.has_value()) {
    if (stream_rejected) die("assembler rejected a decodable frame");
    if (!streamed.has_value()) die("assembler buffered a complete frame");
    if (streamed->type != whole->type || streamed->payload != whole->payload) {
      die("assembler frame != whole-buffer frame");
    }
    if (asm_.buffered() != 0) die("trailing bytes after the only frame");
  }
  return 0;
}
