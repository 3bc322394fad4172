// libFuzzer harness for the snapshot loader (src/util/snapshot), the byte
// codec under it (src/util/bytes) and the exact-sum accumulator loader
// (util/exactsum), whose state a hierarchical FedHd checkpoint carries.
//
// Pass 1: from_bytes() validates the whole image eagerly (magic, version,
// chunk framing, per-chunk CRC-32, END terminator), so most of the parser
// runs before the harness ever touches a chunk. The walk afterwards drains
// each chunk through the typed readers.
//
// Pass 2: the chunk CRC rejects nearly every payload mutation before pass 1
// reaches a typed read, so a ByteReader also runs directly over the raw
// input, no CRC in the way. Each step's first byte picks the next typed
// read, which lets hostile count prefixes reach every vector read.
//
// Pass 3: the raw input, wrapped in one valid chunk, is the saved state of
// an exact-sum accumulator. Whatever load() accepts must also round
// (round_to) without fault: the element count the loader lets through is
// what that call indexes with.
//
// The only acceptable failure mode is a thrown DecodeError; any crash,
// sanitizer report, or other exception type is a finding.
//
// Build with -DFHDNN_FUZZ=ON; under Clang this links libFuzzer, elsewhere
// tools/fuzz/driver_main.cpp replays corpus files (see README "Fuzzing").
#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/exactsum.hpp"
#include "util/snapshot.hpp"

namespace {

namespace util = fhdnn::util;

void walk_snapshot(const std::uint8_t* data, std::size_t size) {
  try {
    auto reader = util::SnapshotReader::from_bytes(
        std::vector<std::uint8_t>(data, data + size), "<fuzz>");
    (void)reader.version();
    // Walk every chunk; alternate the read pattern so both the scalar and
    // the length-prefixed vector paths see hostile payloads.
    for (int chunk = 0; chunk < 64; ++chunk) {
      const std::string tag = reader.peek_tag();
      if (tag == "END ") break;
      reader.enter_chunk(tag);
      if (chunk % 2 == 0) {
        for (;;) reader.read_u8();  // terminates via DecodeError
      } else {
        (void)reader.read_floats();
        reader.leave_chunk();
      }
    }
  } catch (const util::DecodeError&) {
    // Rejection is the expected outcome for most mutated inputs.
  }
}

void drive_typed_reads(const std::uint8_t* data, std::size_t size) {
  util::ByteReader r(data, size);
  try {
    while (r.remaining() > 0) {
      switch (r.read_u8() % 12) {
        case 0: (void)r.read_u8(); break;
        case 1: (void)r.read_u16(); break;
        case 2: (void)r.read_u32(); break;
        case 3: (void)r.read_u64(); break;
        case 4: (void)r.read_i64(); break;
        case 5: (void)r.read_f64(); break;
        case 6: (void)r.read_str(); break;
        case 7: (void)r.read_blob(); break;
        case 8: (void)r.read_floats(); break;
        case 9: (void)r.read_u64s(); break;
        case 10: (void)r.read_sizes(); break;
        default: (void)r.read_flags(); break;
      }
    }
    r.finish();
  } catch (const util::DecodeError&) {
    // A count or field past the end of the input.
  }
}

/// Loads `state` from the input wrapped in one CRC-valid chunk; false when
/// the loader rejects it.
bool load_wrapped(util::Snapshotable& state, const std::uint8_t* data,
                  std::size_t size) {
  util::SnapshotWriter w;
  w.begin_chunk("FUZZ");
  w.write_raw(data, size);
  w.end_chunk();
  auto reader = util::SnapshotReader::from_bytes(w.finish(), "<fuzz>");
  reader.enter_chunk("FUZZ");
  try {
    state.load(reader);
  } catch (const util::DecodeError&) {
    return false;
  }
  return true;
}

void drive_exact_sum_load(const std::uint8_t* data, std::size_t size) {
  util::ExactSumVector sum;
  if (load_wrapped(sum, data, size)) {
    std::vector<float> out(sum.size());
    sum.round_to(out);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  walk_snapshot(data, size);
  drive_typed_reads(data, size);
  drive_exact_sum_load(data, size);
  return 0;
}
