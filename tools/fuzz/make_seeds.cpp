// Seed-corpus generator for the fuzz harnesses.
//
//   fhdnn-make-seeds <out-dir>
//
// Writes <out-dir>/wire/* and <out-dir>/snapshot/* — one well-formed
// artifact per message type / chunk layout, plus the adversarial mutations
// the unit tests probe by hand (tests/test_wire.cpp, tests/test_snapshot.cpp):
// truncation, bad magic, version skew, CRC flips, hostile length fields.
// Seeding the mutations directly lets a 60-second CI smoke start at the
// interesting boundaries instead of rediscovering the header format.  The
// wire corpus also holds one well-formed frame per typed message, built by
// the same encoders the serving loop uses (RoundAssign and Update carrying
// real snapshot images), and a multi-MB Update, so the in-place read path
// grows its buffer mid-frame and the view decoders see served-size blobs.
//
// The snapshot corpus also holds raw exact-sum payloads for the harness's
// loader pass (it wraps each input in a valid chunk): a saved state, and
// the hostile images tests/test_snapshot.cpp rejects — an element count
// that wraps, a value past the chunk range.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/exactsum.hpp"
#include "util/snapshot.hpp"
#include "wire/messages.hpp"
#include "wire/wire.hpp"

namespace {

namespace fs = std::filesystem;

bool write_seed(const fs::path& dir, const std::string& name,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(dir / name, std::ios::binary);
  if (!out) {
    std::cerr << "cannot write " << (dir / name).string() << "\n";
    return false;
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

/// The mutation set shared by both corpora: each variant violates one
/// framing invariant of an otherwise valid image.
bool write_mutations(const fs::path& dir, const std::string& stem,
                     const std::vector<std::uint8_t>& good) {
  bool ok = write_seed(dir, stem + "_good", good);
  if (good.size() < 12) return ok;

  std::vector<std::uint8_t> m = good;
  m.resize(good.size() / 2);  // torn write / short read
  ok = write_seed(dir, stem + "_truncated", m) && ok;

  m = good;
  m[0] ^= 0xff;  // bad magic
  ok = write_seed(dir, stem + "_bad_magic", m) && ok;

  m = good;
  m[4] ^= 0xff;  // version field skew (both formats: version follows magic)
  ok = write_seed(dir, stem + "_version_skew", m) && ok;

  m = good;
  m.back() ^= 0x01;  // CRC / terminator corruption
  ok = write_seed(dir, stem + "_crc_flip", m) && ok;

  m = good;
  for (std::size_t i = 8; i < 16 && i < m.size(); ++i) m[i] = 0xff;
  ok = write_seed(dir, stem + "_hostile_length", m) && ok;
  return ok;
}

/// A snapshot image of one `tag` chunk holding `floats` scalars.
std::vector<std::uint8_t> image_of(const char* tag, std::size_t floats) {
  std::vector<std::uint8_t> image;
  fhdnn::util::append_image(image, [&](fhdnn::util::SnapshotWriter& w) {
    w.begin_chunk(tag);
    std::vector<float> v(floats);
    for (std::size_t i = 0; i < floats; ++i) {
      v[i] = static_cast<float>(i % 97) * 0.25F - 3.0F;
    }
    w.write_floats(v);
    w.end_chunk();
  });
  return image;
}

bool make_message_seeds(const fs::path& dir) {
  namespace wire = fhdnn::wire;
  const auto framed = [](const wire::Frame& f) {
    return wire::encode_frame(f.type, f.payload);
  };
  wire::HelloMsg hello;
  hello.config_fingerprint = 0xC0FFEE42;
  hello.protocol = "fedhd";
  wire::HelloAckMsg ack;
  ack.config_fingerprint = 0xC0FFEE42;
  ack.worker_id = 3;
  wire::RoundAssignHead assign;
  assign.round_index = 2;
  assign.n_participants = 4;
  assign.rng.s[0] = 0x0123456789ABCDEFULL;
  assign.rng.has_cached_normal = true;
  assign.rng.cached_normal = 0.5;
  assign.slots = {{0, 11}, {3, 7}};
  std::vector<std::uint8_t> assign_frame;
  wire::append_round_assign(assign_frame, assign, image_of("PROT", 16));
  wire::UpdateHead update;
  update.round_index = 2;
  update.slot = 3;
  update.client = 7;
  update.loss = 0.75;
  update.stats.payload_scalars = 16;
  const auto update_frame = [&](std::size_t floats) {
    std::vector<std::uint8_t> out;
    wire::append_update(out, update, [&](std::vector<std::uint8_t>& blob) {
      const std::vector<std::uint8_t> image = image_of("UPDT", floats);
      blob.insert(blob.end(), image.begin(), image.end());
    });
    return out;
  };
  wire::RoundDoneMsg done;
  done.round_index = 2;
  done.accepted = 4;
  wire::ShutdownMsg bye;
  bye.rounds_completed = 2;

  bool ok = write_mutations(dir, "msg_hello", framed(hello.to_frame()));
  ok = write_mutations(dir, "msg_hello_ack", framed(ack.to_frame())) && ok;
  ok = write_mutations(dir, "msg_round_assign", assign_frame) && ok;
  ok = write_mutations(dir, "msg_update", update_frame(16)) && ok;
  ok = write_mutations(dir, "msg_round_done", framed(done.to_frame())) && ok;
  ok = write_mutations(dir, "msg_shutdown", framed(bye.to_frame())) && ok;
  // A served-size update: 2^19 floats, a 2 MiB frame.
  ok = write_seed(dir, "msg_update_2mib", update_frame(std::size_t{1} << 19)) &&
       ok;
  return ok;
}

bool make_wire_seeds(const fs::path& dir) {
  namespace wire = fhdnn::wire;
  bool ok = true;
  for (const auto type :
       {wire::MsgType::kHello, wire::MsgType::kHelloAck,
        wire::MsgType::kRoundAssign, wire::MsgType::kUpdate,
        wire::MsgType::kRoundDone, wire::MsgType::kShutdown}) {
    fhdnn::util::ByteWriter pw;
    pw.write_u32(0xC0FFEEu);
    pw.write_str("seed");
    pw.write_floats({1.0f, -2.5f, 0.0f});
    const auto frame =
        wire::encode_frame(type, pw.take());
    ok = write_mutations(dir,
                         "frame_t" + std::to_string(static_cast<int>(type)),
                         frame) &&
         ok;
  }
  ok = write_seed(dir, "empty_payload",
                  wire::encode_frame(wire::MsgType::kShutdown, {})) &&
       ok;
  return make_message_seeds(dir) && ok;
}

bool make_snapshot_seeds(const fs::path& dir) {
  namespace util = fhdnn::util;
  bool ok = true;
  {
    util::SnapshotWriter w;
    w.begin_chunk("META");
    w.write_u32(7);
    w.write_str("fuzz seed");
    w.end_chunk();
    w.begin_chunk("VECS");
    w.write_floats({0.5f, -0.5f, 3.25f});
    w.write_u64s({1, 2, 3});
    w.end_chunk();
    ok = write_mutations(dir, "snap_two_chunks", w.finish()) && ok;
  }
  {
    util::SnapshotWriter w;  // header + END only
    ok = write_mutations(dir, "snap_empty", w.finish()) && ok;
  }
  return ok;
}

/// The chunk payload `state.save` writes, without the snapshot framing.
std::vector<std::uint8_t> payload_of(const fhdnn::util::Snapshotable& state) {
  namespace util = fhdnn::util;
  util::SnapshotWriter w;
  w.begin_chunk("SEED");
  state.save(w);
  w.end_chunk();
  auto reader = util::SnapshotReader::from_bytes(w.finish());
  reader.enter_chunk("SEED");
  const std::size_t n = reader.remaining();
  const std::uint8_t* p = reader.read_raw(n);
  return {p, p + n};
}

bool make_exact_sum_seeds(const fs::path& dir) {
  namespace util = fhdnn::util;
  bool ok = true;
  util::ExactSumVector sum(5);
  sum.add(std::vector<float>{1.0f, -2.5f, 3.0e38f, -1.0e-40f, 0.0f});
  sum.add(std::vector<float>{-4.0f, 2.5f, 3.0e38f, 7.0f, -0.0f});
  ok = write_seed(dir, "exactsum_state", payload_of(sum)) && ok;
  {
    util::ByteWriter w;  // 6 * (2^63 + 2) limbs wraps to 12
    w.write_u64((1ULL << 63) + 2);
    w.write_u64s(std::vector<std::uint64_t>(12, 0));
    ok = write_seed(dir, "exactsum_wrapping_count", w.take()) && ok;
  }
  {
    util::ByteWriter w;  // top limb is not the sign extension of bit 319
    w.write_u64(1);
    w.write_u64s({0, 0, 0, 0, 0, 1});
    ok = write_seed(dir, "exactsum_beyond_range", w.take()) && ok;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: fhdnn-make-seeds <out-dir>\n";
    return 2;
  }
  const fs::path base = argv[1];
  const fs::path wire_dir = base / "wire";
  const fs::path snap_dir = base / "snapshot";
  std::error_code ec;
  fs::create_directories(wire_dir, ec);
  fs::create_directories(snap_dir, ec);
  if (ec) {
    std::cerr << "cannot create " << base.string() << "\n";
    return 2;
  }
  if (!make_wire_seeds(wire_dir) || !make_snapshot_seeds(snap_dir) ||
      !make_exact_sum_seeds(snap_dir)) {
    return 2;
  }
  std::cout << "seed corpora written under " << base.string() << "\n";
  return 0;
}
