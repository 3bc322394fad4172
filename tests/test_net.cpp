// Tests for the src/net transport layer: loopback pipe semantics
// (FIFO, backpressure, EOF), MessageChannel framing over both transports,
// TCP socket + Reactor basics, and the cross-thread behaviour the serving
// loop depends on.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>  // fhdnn-lint: allow(raw-thread) — test harness drives both pipe ends
#include <vector>

#include "net/connection.hpp"
#include "net/loopback.hpp"
#include "net/reactor.hpp"
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

// ---------------------------------------------------------------- loopback

TEST(Loopback, BytesFlowBothWaysFifo) {
  auto [a, b] = net::make_loopback_pair();
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
  EXPECT_EQ(b->write_some(out, 1), 1U);
  EXPECT_EQ(a->read_some(in, 4), 1U);
}

TEST(Loopback, BackpressureAtCapacity) {
  net::LoopbackOptions opt;
  opt.capacity_bytes = 8;
  auto [a, b] = net::make_loopback_pair(opt);
  const std::vector<std::uint8_t> out(16, 0xAB);
  EXPECT_EQ(a->write_some(out.data(), 16), 8U);   // capacity cap
  EXPECT_EQ(a->write_some(out.data(), 1), 0U);    // full: backpressure
  std::uint8_t in[8];
  EXPECT_EQ(b->read_some(in, 3), 3U);             // drain a little
  EXPECT_EQ(a->write_some(out.data(), 16), 3U);   // freed space accepted
}

TEST(Loopback, CloseGivesEofAfterDrain) {
  auto [a, b] = net::make_loopback_pair();
  const std::uint8_t out[2] = {7, 8};
  ASSERT_EQ(a->write_some(out, 2), 2U);
  a->close();
  EXPECT_FALSE(b->peer_closed());  // buffered bytes still readable
  std::uint8_t in[4];
  EXPECT_EQ(b->read_some(in, 4), 2U);
  EXPECT_TRUE(b->peer_closed());
  EXPECT_THROW((void)b->write_some(out, 1), NetError);
}

TEST(Loopback, WaitReadableSeesCrossThreadWrites) {
  auto [a, b] = net::make_loopback_pair();
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

TEST(Loopback, HasNoFd) {
  auto [a, b] = net::make_loopback_pair();
  EXPECT_EQ(a->fd(), -1);
  EXPECT_EQ(b->fd(), -1);
}

// --------------------------------------------------------- message channel

TEST(MessageChannelTest, FramesRoundTripOverLoopback) {
  auto [a, b] = net::make_loopback_pair();
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
  net::LoopbackOptions opt;
  opt.capacity_bytes = 32;  // smaller than one frame
  auto [a, b] = net::make_loopback_pair(opt);
  MessageChannel tx(*a);
  MessageChannel rx(*b);
  tx.send(hello_frame(0xDEADBEEF));
  EXPECT_GT(tx.tx_pending(), 0U);  // only part fit
  // Drain by alternating reads with flushes.
  std::optional<wire::Frame> got;
  for (int i = 0; i < 64 && !got; ++i) {
    (void)tx.flush();
    got = rx.poll();
  }
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(wire::HelloMsg::from_frame(*got).config_fingerprint, 0xDEADBEEFU);
  EXPECT_EQ(tx.tx_pending(), 0U);
}

TEST(MessageChannelTest, SendQueuesExactlyTheEncodedFrameBytes) {
  // A pipe smaller than one frame keeps the tx buffer non-empty, so every
  // later send appends behind bytes still queued.
  net::LoopbackOptions opt;
  opt.capacity_bytes = 16;
  auto [a, b] = net::make_loopback_pair(opt);
  MessageChannel tx(*a);
  std::vector<std::uint8_t> want;
  for (std::uint32_t i = 1; i <= 3; ++i) {
    const wire::Frame f = hello_frame(0x01010101U * i);
    tx.send(f);
    const std::vector<std::uint8_t> bytes =
        wire::encode_frame(f.type, f.payload);
    want.insert(want.end(), bytes.begin(), bytes.end());
    EXPECT_GT(tx.tx_pending(), 0U);
  }
  EXPECT_EQ(tx.bytes_sent(), want.size());
  std::vector<std::uint8_t> got;
  std::uint8_t buf[16];
  for (int i = 0; i < 1000 && got.size() < want.size(); ++i) {
    (void)tx.flush();
    const std::size_t n = b->read_some(buf, sizeof(buf));
    got.insert(got.end(), buf, buf + n);
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(tx.tx_pending(), 0U);
}

TEST(MessageChannelTest, RecvTimesOut) {
  auto [a, b] = net::make_loopback_pair();
  MessageChannel rx(*b);
  EXPECT_THROW((void)rx.recv(10), NetError);
}

TEST(MessageChannelTest, PeerCloseMidFrameThrows) {
  auto [a, b] = net::make_loopback_pair();
  const auto bytes = wire::encode_frame(wire::MsgType::kHello, {1, 2, 3});
  ASSERT_EQ(a->write_some(bytes.data(), bytes.size() - 1), bytes.size() - 1);
  a->close();
  MessageChannel rx(*b);
  EXPECT_THROW((void)rx.recv(1000), NetError);
}

TEST(MessageChannelTest, CorruptStreamSurfacesDecodeError) {
  auto [a, b] = net::make_loopback_pair();
  auto bytes = wire::encode_frame(wire::MsgType::kHello, {1, 2, 3});
  bytes[0] = 'Z';
  ASSERT_EQ(a->write_some(bytes.data(), bytes.size()), bytes.size());
  MessageChannel rx(*b);
  EXPECT_THROW((void)rx.poll(), util::DecodeError);
}

// --------------------------------------------------------------- tcp + epoll

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

TEST(Tcp, ConnectTimesOutWhenNobodyListens) {
  // Bind a listener to learn a free port, then close it again.
  std::uint16_t dead_port = 0;
  {
    net::TcpListener probe("127.0.0.1", 0);
    dead_port = probe.port();
  }
  EXPECT_THROW((void)net::connect_tcp("127.0.0.1", dead_port, 50), NetError);
}

TEST(Reactor, ReportsReadableAndHangup) {
  net::TcpListener listener("127.0.0.1", 0);
  auto client = net::connect_tcp("127.0.0.1", listener.port(), 5000);
  ASSERT_TRUE(listener.wait_pending(5000));
  auto served = listener.accept();
  ASSERT_NE(served, nullptr);

  net::Reactor reactor;
  reactor.add(served->fd(), /*tag=*/7, /*want_read=*/true,
              /*want_write=*/false);
  EXPECT_EQ(reactor.watched(), 1U);
  EXPECT_TRUE(reactor.wait(0).empty());  // idle: nothing readable

  const std::uint8_t byte = 1;
  ASSERT_EQ(client->write_some(&byte, 1), 1U);
  auto events = reactor.wait(5000);
  ASSERT_EQ(events.size(), 1U);
  EXPECT_EQ(events[0].tag, 7U);
  EXPECT_TRUE(events[0].readable);

  std::uint8_t in = 0;
  ASSERT_EQ(served->read_some(&in, 1), 1U);
  client->close();
  events = reactor.wait(5000);
  ASSERT_EQ(events.size(), 1U);
  EXPECT_TRUE(events[0].hangup || events[0].readable);
  reactor.remove(served->fd());
  EXPECT_EQ(reactor.watched(), 0U);
}

}  // namespace
}  // namespace fhdnn
