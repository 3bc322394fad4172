// Tests for the src/net transport layer: socket pair semantics (FIFO,
// backpressure, EOF), MessageChannel framing, TCP socket basics, readiness
// waits over sets of connections (wait_any), and the cross-thread
// behaviour the serving loop depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <memory>
#include <string>
#include <thread>  // fhdnn-lint: allow(raw-thread) — test harness drives both socket ends
#include <vector>

#include "net/connection.hpp"
#include "net/socket.hpp"
#include "util/bytes.hpp"
#include "wire/messages.hpp"
#include "wire/wire.hpp"

namespace fhdnn {
namespace {

using net::Connection;
using net::MessageChannel;
using net::NetError;

wire::Frame hello_frame(std::uint32_t fp) {
  wire::HelloMsg m;
  m.config_fingerprint = fp;
  m.protocol = "fedhd";
  return m.to_frame();
}

/// A frame of 64 KiB of payload, well over the ~4.4 KiB the kernel lets a
/// small-buffered socket pair hold in flight.
wire::Frame big_frame(std::uint8_t seed) {
  std::vector<std::uint8_t> payload(64 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 131 + seed);
  }
  return {wire::MsgType::kUpdate, std::move(payload)};
}

/// Writes `chunk`-sized pieces into `conn` until write_some returns 0 (the
/// peer's buffer is full) and returns the bytes accepted.
std::size_t fill(Connection& conn, std::size_t chunk = 512) {
  const std::vector<std::uint8_t> out(chunk, 0xAB);
  std::size_t sent = 0;
  for (int i = 0; i < 100000; ++i) {
    const std::size_t n = conn.write_some(out.data(), out.size());
    if (n == 0) break;
    sent += n;
  }
  return sent;
}

/// Reads from `conn` until `want` bytes arrived or nothing more is readable.
std::size_t drain(Connection& conn, std::size_t want) {
  std::vector<std::uint8_t> in(4096);
  std::size_t got = 0;
  while (got < want) {
    const std::size_t n =
        conn.read_some(in.data(), std::min(in.size(), want - got));
    if (n == 0) break;
    got += n;
  }
  return got;
}

// ------------------------------------------------------------- socket pair

TEST(SocketPair, BytesFlowBothWaysFifo) {
  auto [a, b] = net::make_socket_pair();
  EXPECT_GE(a->fd(), 0);
  EXPECT_GE(b->fd(), 0);
  const std::uint8_t out[4] = {1, 2, 3, 4};
  EXPECT_EQ(a->write_some(out, 4), 4U);
  std::uint8_t in[4] = {};
  EXPECT_EQ(b->read_some(in, 2), 2U);
  EXPECT_EQ(in[0], 1);
  EXPECT_EQ(in[1], 2);
  EXPECT_EQ(b->read_some(in, 4), 2U);  // remainder, FIFO order
  EXPECT_EQ(in[0], 3);
  EXPECT_EQ(in[1], 4);
  EXPECT_EQ(b->read_some(in, 4), 0U);  // drained
  EXPECT_FALSE(b->peer_closed());      // empty, not closed
  EXPECT_EQ(b->write_some(out, 1), 1U);
  EXPECT_EQ(a->read_some(in, 4), 1U);
}

TEST(SocketPair, BackpressureAtTheRequestedBuffer) {
  // The kernel floors SO_SNDBUF, so a tiny request still takes a few KiB;
  // a larger request takes more.
  auto [a, b] = net::make_socket_pair(16);
  const std::size_t small = fill(*a);
  EXPECT_GT(small, 0U);
  EXPECT_LT(small, 16U * 1024U);
  const std::uint8_t byte = 1;
  EXPECT_EQ(a->write_some(&byte, 1), 0U);  // full: backpressure
  EXPECT_EQ(drain(*b, small), small);      // drain it all
  EXPECT_GT(a->write_some(&byte, 1), 0U);  // freed space accepted

  auto [c, d] = net::make_socket_pair(64 * 1024);
  EXPECT_GT(fill(*c), small);
}

TEST(SocketPair, CloseGivesEofAfterDrain) {
  auto [a, b] = net::make_socket_pair();
  const std::uint8_t out[2] = {7, 8};
  ASSERT_EQ(a->write_some(out, 2), 2U);
  a->close();
  EXPECT_EQ(a->fd(), -1);
  EXPECT_FALSE(b->peer_closed());  // buffered bytes still readable
  std::uint8_t in[4];
  EXPECT_EQ(b->read_some(in, 4), 2U);
  // A socket learns of the close when a read returns 0.
  EXPECT_EQ(b->read_some(in, 4), 0U);
  EXPECT_TRUE(b->peer_closed());
  EXPECT_THROW((void)b->write_some(out, 1), NetError);
}

TEST(SocketPair, WaitReadableSeesCrossThreadWrites) {
  auto [a, b] = net::make_socket_pair();
  EXPECT_FALSE(b->wait_readable(1));  // nothing yet
  std::thread writer([&a] {  // fhdnn-lint: allow(raw-thread)
    const std::uint8_t byte = 42;
    (void)a->write_some(&byte, 1);
  });
  EXPECT_TRUE(b->wait_readable(5000));
  writer.join();
  std::uint8_t in = 0;
  EXPECT_EQ(b->read_some(&in, 1), 1U);
  EXPECT_EQ(in, 42);
}

TEST(SocketPair, WaitWritableSeesCrossThreadDrain) {
  auto [a, b] = net::make_socket_pair(16);
  EXPECT_TRUE(a->wait_writable(0));  // empty socket: room at once
  const std::size_t sent = fill(*a);
  ASSERT_GT(sent, 0U);
  EXPECT_FALSE(a->wait_writable(1));  // full: times out
  std::thread reader([&b, sent] {  // fhdnn-lint: allow(raw-thread)
    EXPECT_EQ(drain(*b, sent), sent);
  });
  EXPECT_TRUE(a->wait_writable(5000));
  reader.join();
  const std::uint8_t byte = 1;
  EXPECT_GT(a->write_some(&byte, 1), 0U);
}

// --------------------------------------------------------- message channel

TEST(MessageChannelTest, FramesRoundTripOverASocketPair) {
  auto [a, b] = net::make_socket_pair();
  MessageChannel tx(*a);
  MessageChannel rx(*b);
  tx.send(hello_frame(0x11111111));
  tx.send(hello_frame(0x22222222));
  ASSERT_TRUE(tx.flush());
  const auto f1 = rx.poll();
  const auto f2 = rx.poll();
  ASSERT_TRUE(f1.has_value());
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(wire::HelloMsg::from_frame(*f1).config_fingerprint, 0x11111111U);
  EXPECT_EQ(wire::HelloMsg::from_frame(*f2).config_fingerprint, 0x22222222U);
  EXPECT_FALSE(rx.poll().has_value());
  EXPECT_EQ(tx.bytes_sent(), rx.bytes_received());
  EXPECT_GT(tx.bytes_sent(), 0U);
}

TEST(MessageChannelTest, BackpressureQueuesAndFlushDrains) {
  auto [a, b] = net::make_socket_pair(16);  // holds far less than one frame
  MessageChannel tx(*a);
  MessageChannel rx(*b);
  const wire::Frame sent = big_frame(0xDB);
  tx.send(sent);
  EXPECT_GT(tx.tx_pending(), 0U);  // only part fit
  // Drain by alternating reads with flushes.
  std::optional<wire::Frame> got;
  for (int i = 0; i < 10000 && !got; ++i) {
    (void)tx.flush();
    got = rx.poll();
  }
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, sent.type);
  EXPECT_EQ(got->payload, sent.payload);
  EXPECT_EQ(tx.tx_pending(), 0U);
}

TEST(MessageChannelTest, SendQueuesExactlyTheEncodedFrameBytes) {
  // A socket that holds less than one frame keeps the tx buffer non-empty,
  // so every later send appends behind bytes still queued.
  auto [a, b] = net::make_socket_pair(16);
  MessageChannel tx(*a);
  std::vector<std::uint8_t> want;
  for (std::uint8_t i = 1; i <= 3; ++i) {
    const wire::Frame f = big_frame(i);
    tx.send(f);
    const std::vector<std::uint8_t> bytes =
        wire::encode_frame(f.type, f.payload);
    want.insert(want.end(), bytes.begin(), bytes.end());
    EXPECT_GT(tx.tx_pending(), 0U);
  }
  EXPECT_EQ(tx.bytes_sent(), want.size());
  std::vector<std::uint8_t> got;
  std::uint8_t buf[4096];
  for (int i = 0; i < 10000 && got.size() < want.size(); ++i) {
    (void)tx.flush();
    const std::size_t n = b->read_some(buf, sizeof(buf));
    got.insert(got.end(), buf, buf + n);
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(tx.tx_pending(), 0U);
}

/// A connection that yields one byte per wake-up: read_some returns a
/// byte only after wait_readable, which returns at once.  A frame of N
/// bytes takes N waits to arrive, every one of which brought progress.
class OneBytePerWait final : public Connection {
 public:
  explicit OneBytePerWait(std::vector<std::uint8_t> bytes)
      : bytes_(std::move(bytes)) {}
  std::size_t read_some(std::uint8_t* out, std::size_t len) override {
    if (!armed_ || len == 0 || next_ == bytes_.size()) return 0;
    armed_ = false;
    out[0] = bytes_[next_++];
    return 1;
  }
  std::size_t write_some(const std::uint8_t*, std::size_t len) override {
    return len;
  }
  [[nodiscard]] bool peer_closed() const override { return false; }
  void close() override {}
  [[nodiscard]] int fd() const override { return -1; }  // never waited on
  bool wait_readable(int) override {
    ++waits;
    armed_ = true;
    return true;
  }
  [[nodiscard]] std::string describe() const override { return "one-byte"; }
  int waits = 0;

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t next_ = 0;
  bool armed_ = true;
};

TEST(MessageChannelTest, RecvChargesOnlyWaitsWithoutProgress) {
  // 200 bytes in 200 pieces: the 50 ms slices that each brought a byte
  // must not count against a 100 ms timeout.
  const std::vector<std::uint8_t> payload(200 - wire::kFrameHeaderSize, 7);
  OneBytePerWait conn(wire::encode_frame(wire::MsgType::kShutdown, payload));
  MessageChannel rx(conn);
  const wire::FrameView f = rx.recv(100);
  EXPECT_EQ(f.type, wire::MsgType::kShutdown);
  EXPECT_EQ(f.payload.size(), payload.size());
  EXPECT_GE(conn.waits, 199);
  // With no byte left to arrive, the same budget runs out.
  EXPECT_THROW((void)rx.recv(100), NetError);
}

TEST(MessageChannelTest, FrameViewLastsUntilTheNextPump) {
  auto [a, b] = net::make_socket_pair();
  MessageChannel tx(*a);
  MessageChannel rx(*b);
  tx.send(hello_frame(0x0A0A0A0A));
  tx.send(hello_frame(0x0B0B0B0B));
  const wire::FrameView first = *rx.poll();  // pumps both frames
  const wire::Frame want_first = hello_frame(0x0A0A0A0A);
  // More bytes reach the connection; the assembler reads them only at
  // its next pump, so the view still holds the first frame.
  tx.send(hello_frame(0x0C0C0C0C));
  EXPECT_EQ(wire::Frame(first).payload, want_first.payload);
  // The second frame is already buffered: poll() hands it over without
  // pumping, and the first view is still intact.
  const wire::FrameView second = *rx.poll();
  EXPECT_EQ(wire::HelloMsg::from_frame(second).config_fingerprint,
            0x0B0B0B0BU);
  EXPECT_EQ(wire::Frame(first).payload, want_first.payload);
  // The next poll() pumps; the third frame arrives whole.
  const wire::FrameView third = *rx.poll();
  EXPECT_EQ(wire::HelloMsg::from_frame(third).config_fingerprint, 0x0C0C0C0CU);
}

TEST(MessageChannelTest, SendWithQueuesTheEncodedBytesOrNothing) {
  auto [a, b] = net::make_socket_pair(16);  // keeps earlier frames queued
  MessageChannel tx(*a);
  wire::RoundAssignMsg assign;
  assign.round_index = 4;
  assign.n_participants = 2;
  assign.slots = {{1, 7}};
  assign.state_blob = std::vector<std::uint8_t>(64 * 1024, 0xEE);
  tx.send(hello_frame(1));
  tx.send_with([&](std::vector<std::uint8_t>& out) {
    wire::append_round_assign(out, assign, assign.state_blob);
  });
  // An encoder that throws leaves no torn frame in the queue.
  EXPECT_THROW(tx.send_with([](std::vector<std::uint8_t>& out) {
                 out.push_back(1);
                 throw NetError("encoder failed");
               }),
               NetError);
  const wire::Frame f = assign.to_frame();
  std::vector<std::uint8_t> want = wire::encode_frame(
      hello_frame(1).type, hello_frame(1).payload);
  const auto second = wire::encode_frame(f.type, f.payload);
  want.insert(want.end(), second.begin(), second.end());
  EXPECT_EQ(tx.bytes_sent(), want.size());
  std::vector<std::uint8_t> got;
  std::uint8_t buf[4096];
  for (int i = 0; i < 10000 && got.size() < want.size(); ++i) {
    (void)tx.flush();
    const std::size_t n = b->read_some(buf, sizeof(buf));
    got.insert(got.end(), buf, buf + n);
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(tx.tx_pending(), 0U);
}

TEST(MessageChannelTest, RecvTimesOut) {
  auto [a, b] = net::make_socket_pair();
  MessageChannel rx(*b);
  EXPECT_THROW((void)rx.recv(10), NetError);
}

TEST(MessageChannelTest, PeerCloseMidFrameThrows) {
  auto [a, b] = net::make_socket_pair();
  const auto bytes = wire::encode_frame(wire::MsgType::kHello, {1, 2, 3});
  ASSERT_EQ(a->write_some(bytes.data(), bytes.size() - 1), bytes.size() - 1);
  a->close();
  MessageChannel rx(*b);
  EXPECT_THROW((void)rx.recv(1000), NetError);
}

TEST(MessageChannelTest, CorruptStreamSurfacesDecodeError) {
  auto [a, b] = net::make_socket_pair();
  auto bytes = wire::encode_frame(wire::MsgType::kHello, {1, 2, 3});
  bytes[0] = 'Z';
  ASSERT_EQ(a->write_some(bytes.data(), bytes.size()), bytes.size());
  MessageChannel rx(*b);
  EXPECT_THROW((void)rx.poll(), util::DecodeError);
}

TEST(MessageChannelTest, MultiMegabyteFrameArrivesIntact) {
  // A frame larger than any single read crosses in many pieces into one
  // buffer; the view covers all of it.
  auto [a, b] = net::make_socket_pair(64 * 1024);
  MessageChannel tx(*a);
  MessageChannel rx(*b);
  std::vector<std::uint8_t> payload(3 * 1024 * 1024 + 5);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  tx.send(wire::Frame(wire::MsgType::kUpdate, payload));
  std::optional<wire::FrameView> got;
  for (int i = 0; i < 100000 && !got; ++i) {
    (void)tx.flush();
    got = rx.poll();
  }
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, wire::MsgType::kUpdate);
  EXPECT_TRUE(std::equal(got->payload.begin(), got->payload.end(),
                         payload.begin(), payload.end()));
}

// --------------------------------------------------------------------- tcp

TEST(Tcp, ConnectAcceptRoundTrip) {
  net::TcpListener listener("127.0.0.1", 0);
  ASSERT_GT(listener.port(), 0);
  auto client = net::connect_tcp("127.0.0.1", listener.port(), 5000);
  ASSERT_TRUE(listener.wait_pending(5000));
  auto served = listener.accept();
  ASSERT_NE(served, nullptr);
  EXPECT_GE(served->fd(), 0);
  EXPECT_GE(client->fd(), 0);

  MessageChannel tx(*client);
  MessageChannel rx(*served);
  tx.send(hello_frame(0xFEEDFACE));
  for (int i = 0; i < 1000 && !tx.flush(); ++i) {
  }
  const wire::Frame f = rx.recv(5000);
  EXPECT_EQ(wire::HelloMsg::from_frame(f).config_fingerprint, 0xFEEDFACEU);
}

TEST(Tcp, WaitWritableByDefaultPollsTheSocket) {
  net::TcpListener listener("127.0.0.1", 0);
  auto client = net::connect_tcp("127.0.0.1", listener.port(), 5000);
  ASSERT_TRUE(listener.wait_pending(5000));
  auto served = listener.accept();
  ASSERT_NE(served, nullptr);
  EXPECT_TRUE(client->wait_writable(5000));  // empty send buffer
  // Fill the socket until it refuses bytes; then it is not writable until
  // the peer reads.
  const std::vector<std::uint8_t> chunk(1 << 16, 1);
  std::size_t sent = 0;
  for (int i = 0; i < 100000; ++i) {
    const std::size_t n = client->write_some(chunk.data(), chunk.size());
    if (n == 0) break;
    sent += n;
  }
  ASSERT_GT(sent, 0U);
  EXPECT_FALSE(client->wait_writable(1));
  std::vector<std::uint8_t> sink(1 << 16);
  for (int i = 0; i < 100000 && !client->wait_writable(0); ++i) {
    (void)served->wait_readable(100);
    (void)served->read_some(sink.data(), sink.size());
  }
  EXPECT_TRUE(client->wait_writable(0));
}

TEST(Tcp, ConnectTimesOutWhenNobodyListens) {
  // Bind a listener to learn a free port, then close it again.
  std::uint16_t dead_port = 0;
  {
    net::TcpListener probe("127.0.0.1", 0);
    dead_port = probe.port();
  }
  EXPECT_THROW((void)net::connect_tcp("127.0.0.1", dead_port, 50), NetError);
}

// ---------------------------------------------------------------- wait_any

/// One accepted TCP connection: `client` dials, `served` is accepted.
struct TcpPair {
  std::unique_ptr<Connection> client;
  std::unique_ptr<Connection> served;
};

TcpPair tcp_pair(net::TcpListener& listener) {
  TcpPair p;
  p.client = net::connect_tcp("127.0.0.1", listener.port(), 5000);
  EXPECT_TRUE(listener.wait_pending(5000));
  p.served = listener.accept();
  EXPECT_NE(p.served, nullptr);
  return p;
}

TEST(WaitAny, WakesWhenOnlyTheLastOfThreeSocketsIsReadable) {
  net::TcpListener listener("127.0.0.1", 0);
  std::vector<TcpPair> pairs;
  for (int i = 0; i < 3; ++i) pairs.push_back(tcp_pair(listener));
  std::vector<Connection*> served;
  for (TcpPair& p : pairs) served.push_back(p.served.get());
  const std::vector<char> no_write(3, 0);

  std::thread writer([&pairs] {  // fhdnn-lint: allow(raw-thread)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::uint8_t byte = 1;
    EXPECT_EQ(pairs[2].client->write_some(&byte, 1), 1U);
  });
  const auto start = std::chrono::steady_clock::now();
  const bool ready = net::wait_any(served, no_write, 5000);
  const auto waited = std::chrono::steady_clock::now() - start;
  writer.join();
  EXPECT_TRUE(ready);
  // One poll over all three sockets: a slice per socket would spend
  // 5000 / 3 ms on each quiet one before reaching the last.
  EXPECT_LT(waited, std::chrono::milliseconds(1500));
  std::uint8_t in = 0;
  EXPECT_EQ(pairs[0].served->read_some(&in, 1), 0U);
  EXPECT_EQ(pairs[1].served->read_some(&in, 1), 0U);
  EXPECT_EQ(pairs[2].served->read_some(&in, 1), 1U);
}

TEST(WaitAny, WaitsForWritabilityOnlyWhereAsked) {
  net::TcpListener listener("127.0.0.1", 0);
  TcpPair a = tcp_pair(listener);
  TcpPair b = tcp_pair(listener);
  std::vector<Connection*> clients = {a.client.get(), b.client.get()};
  // Both sockets have room to send, but nothing to read.
  EXPECT_FALSE(net::wait_any(clients, std::vector<char>{0, 0}, 20));
  EXPECT_TRUE(net::wait_any(clients, std::vector<char>{0, 1}, 5000));
  EXPECT_TRUE(net::wait_any(clients, std::vector<char>{1, 0}, 5000));
}

TEST(WaitAny, PeerCloseWakesTheWait) {
  net::TcpListener listener("127.0.0.1", 0);
  TcpPair a = tcp_pair(listener);
  TcpPair b = tcp_pair(listener);
  std::vector<Connection*> served = {a.served.get(), b.served.get()};
  const std::vector<char> no_write(2, 0);
  EXPECT_FALSE(net::wait_any(served, no_write, 0));
  b.client->close();
  EXPECT_TRUE(net::wait_any(served, no_write, 5000));
  std::uint8_t in = 0;
  EXPECT_EQ(b.served->read_some(&in, 1), 0U);
  EXPECT_TRUE(b.served->peer_closed());
}

TEST(WaitAny, TimesOutWhenNothingIsReady) {
  net::TcpListener listener("127.0.0.1", 0);
  TcpPair a = tcp_pair(listener);
  std::vector<Connection*> served = {a.served.get()};
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(net::wait_any(served, std::vector<char>{0}, 30));
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(25));
  EXPECT_FALSE(net::wait_any({}, {}, 5000));  // empty set: false at once
  EXPECT_THROW((void)net::wait_any(served, {}, 0), Error);
}

TEST(WaitAny, RejectsAConnectionWithoutAnFd) {
  // poll(2) skips a negative fd and would sleep the whole timeout, so a
  // closed end is refused at once instead.
  auto [a1, b1] = net::make_socket_pair();
  auto [a2, b2] = net::make_socket_pair();
  std::vector<Connection*> ends = {b1.get(), b2.get()};
  const std::vector<char> no_write(2, 0);
  EXPECT_FALSE(net::wait_any(ends, no_write, 10));
  b1->close();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)net::wait_any(ends, no_write, 5000), Error);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(1000));
}

}  // namespace
}  // namespace fhdnn
