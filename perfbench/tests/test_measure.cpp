// Tests of the benchmark's measurement code: the tail percentile rule,
// idle share, interval coverage and self time, the trace export, and that
// every decorator forwards every virtual of its seam.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "decorators.hpp"
#include "measure.hpp"
#include "trace.hpp"
#include "util/snapshot.hpp"

namespace {

using namespace perfbench;
namespace fl = fhdnn::fl;

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Tail, HighestRankWithTenBeyond) {
  const Tail t = tail(one_to(30));
  EXPECT_EQ(t.count, 30U);
  EXPECT_EQ(t.beyond, 10U);
  EXPECT_DOUBLE_EQ(t.value, 20.0);
  EXPECT_NEAR(t.percentile, 100.0 * 20 / 30, 1e-12);
}

TEST(Tail, ElevenSamplesLeaveTheMinimum) {
  const Tail t = tail(one_to(11));
  EXPECT_EQ(t.beyond, 10U);
  EXPECT_DOUBLE_EQ(t.value, 1.0);
}

TEST(Tail, SmallSampleFallsBackToTheMedianRank) {
  const Tail t = tail(one_to(5));
  EXPECT_EQ(t.beyond, 2U);
  EXPECT_DOUBLE_EQ(t.value, 3.0);
  EXPECT_DOUBLE_EQ(t.percentile, 60.0);
  EXPECT_EQ(tail({}).count, 0U);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(IdleShare, BusyOverCapacity) {
  EXPECT_DOUBLE_EQ(idle_share(3.0, 4, 1.0), 0.25);
  EXPECT_DOUBLE_EQ(idle_share(0.0, 4, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(idle_share(5.0, 4, 1.0), 0.0);  // clamped
  EXPECT_DOUBLE_EQ(idle_share(1.0, 4, 0.0), 0.0);
}

TEST(Covered, UnionClippedToParent) {
  // [0,10) and [5,15) overlap into [0,15); [20,30) is separate; the parent
  // [2,25) sees [2,15) + [20,25) = 13 + 5.
  EXPECT_EQ(covered({{0, 10}, {5, 15}, {20, 30}}, {2, 25}), 18);
  EXPECT_EQ(covered({}, {0, 10}), 0);
  EXPECT_EQ(covered({{0, 10}, {0, 10}}, {0, 10}), 10);
  EXPECT_EQ(covered({{30, 40}}, {0, 10}), 0);
}

TEST(SelfTime, DurationMinusChildCoverage) {
  std::vector<Span> spans;
  Span parent;
  parent.name = "drive";
  parent.id = 1;
  parent.start_ns = 0;
  parent.end_ns = 10'000'000;  // 10 ms
  spans.push_back(parent);
  for (const auto& [id, start, end] :
       std::vector<std::tuple<int, int, int>>{{2, 1, 5}, {3, 3, 7}}) {
    Span c;
    c.name = "client";
    c.id = static_cast<std::uint64_t>(id);
    c.parent = 1;
    c.start_ns = start * 1'000'000LL;
    c.end_ns = end * 1'000'000LL;
    spans.push_back(c);
  }
  std::map<std::string, LayerTime> by;
  for (const LayerTime& l : self_times(spans)) by[l.name] = l;
  EXPECT_EQ(by["drive"].count, 1U);
  EXPECT_NEAR(by["drive"].total_ms, 10.0, 1e-9);
  EXPECT_NEAR(by["drive"].self_ms, 4.0, 1e-9);  // children cover [1,7)
  EXPECT_EQ(by["client"].count, 2U);
  EXPECT_NEAR(by["client"].total_ms, 8.0, 1e-9);
  EXPECT_NEAR(by["client"].self_ms, 8.0, 1e-9);
}

TEST(Trace, ChromeJsonCapsEventsAndKeepsMetadata) {
  Tracer tracer;
  for (int i = 0; i < 5; ++i) {
    const ScopedSpan s(tracer, "step", 0, i);
  }
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 5U);
  const std::string json = chrome_trace_json(spans, "{\"k\": 1}", 3);
  EXPECT_NE(json.find("\"metadata\":{\"k\": 1}"), std::string::npos);
  std::size_t events = 0;
  for (std::size_t at = json.find("\"ph\":\"X\""); at != std::string::npos;
       at = json.find("\"ph\":\"X\"", at + 1)) {
    ++events;
  }
  EXPECT_EQ(events, 3U);
}

TEST(Trace, CapacityDropsAndCounts) {
  Tracer tracer(2);
  for (int i = 0; i < 5; ++i) {
    const ScopedSpan s(tracer, "step", 0, 0);
  }
  EXPECT_EQ(tracer.spans().size(), 2U);
  EXPECT_EQ(tracer.dropped(), 3U);
}

// ---- decorators forward every virtual ------------------------------------

class MockProtocol final : public fl::RoundProtocol {
 public:
  std::map<std::string, int> calls;

  void begin_round(const fhdnn::Rng&, std::size_t n) override {
    ++calls["begin_round"];
    last_n = n;
  }
  fl::ClientReport run_client(std::size_t, std::size_t client,
                              const fhdnn::Rng&, bool) override {
    ++calls["run_client"];
    fl::ClientReport r;
    r.loss = static_cast<double>(client);
    return r;
  }
  void reduce(const std::vector<std::size_t>&,
              const std::vector<char>&) override {
    ++calls["reduce"];
  }
  AsyncReduceStats reduce_async(const std::vector<std::size_t>&,
                                const std::vector<char>&,
                                const std::vector<char>&, double,
                                int) override {
    ++calls["reduce_async"];
    AsyncReduceStats s;
    s.stale_applied = 7;
    return s;
  }
  double evaluate() override {
    ++calls["evaluate"];
    return 0.5;
  }
  void save_state(fhdnn::util::SnapshotWriter&) override {
    ++calls["save_state"];
  }
  void load_state(fhdnn::util::SnapshotReader&) override {
    ++calls["load_state"];
  }
  void save_update(std::size_t, fhdnn::util::SnapshotWriter&) override {
    ++calls["save_update"];
  }
  void load_update(std::size_t, fhdnn::util::SnapshotReader&) override {
    ++calls["load_update"];
  }
  std::size_t last_n = 0;
};

fhdnn::util::SnapshotReader empty_reader() {
  fhdnn::util::SnapshotWriter w;
  return fhdnn::util::SnapshotReader::from_bytes(w.finish());
}

TEST(TracingProtocol, ForwardsEveryVirtual) {
  for (const auto side :
       {TracingProtocol::Side::kServer, TracingProtocol::Side::kWorker}) {
    MockProtocol inner;
    Tracer tracer;
    TracingProtocol traced(inner, tracer, side);
    const fhdnn::Rng rng(1);
    fhdnn::util::SnapshotWriter w;
    fhdnn::util::SnapshotReader r = empty_reader();
    traced.begin_round(rng, 3);
    EXPECT_EQ(inner.last_n, 3U);
    EXPECT_DOUBLE_EQ(traced.run_client(0, 42, rng, true).loss, 42.0);
    traced.reduce({}, {});
    EXPECT_EQ(traced.reduce_async({}, {}, {}, 0.5, 2).stale_applied, 7U);
    EXPECT_DOUBLE_EQ(traced.evaluate(), 0.5);
    traced.save_state(w);
    traced.load_state(r);
    traced.save_update(0, w);
    traced.load_update(0, r);
    for (const char* name :
         {"begin_round", "run_client", "reduce", "reduce_async", "evaluate",
          "save_state", "load_state", "save_update", "load_update"}) {
      EXPECT_EQ(inner.calls[name], 1) << name;
    }
    // run_client, save/load_state and save/load_update are the timed steps.
    EXPECT_EQ(tracer.spans().size(), 5U);
  }
}

class MockDriver final : public fl::RoundDriver {
 public:
  int drives = 0;
  int commits = 0;
  fl::RoundProtocol* seen = nullptr;
  void drive(fl::RoundProtocol& protocol, const fhdnn::Rng& round_rng, int,
             const std::vector<std::size_t>& participants,
             const std::vector<char>&, const std::vector<char>&,
             std::vector<fl::ClientReport>& reports) override {
    ++drives;
    seen = &protocol;
    for (std::size_t s = 0; s < participants.size(); ++s) {
      reports[s] = protocol.run_client(s, participants[s], round_rng, true);
    }
  }
  void round_committed(const fl::RoundMetrics&) override { ++commits; }
};

TEST(TracingDriver, ForwardsAndTimesTheRoundParts) {
  MockProtocol protocol;
  MockDriver inner;
  Tracer tracer;
  TracingDriver traced(inner, tracer, TracingProtocol::Side::kServer);
  const std::uint64_t round_span = tracer.new_id();
  traced.begin_round(round_span, 1, Tracer::now_ns());
  std::vector<fl::ClientReport> reports(2);
  traced.drive(protocol, fhdnn::Rng(1), 1, {5, 9}, {1, 1}, {}, reports);
  traced.round_committed(fl::RoundMetrics{});
  EXPECT_EQ(inner.drives, 1);
  EXPECT_EQ(inner.commits, 1);
  EXPECT_NE(inner.seen, &protocol);  // the inner driver got the decorator
  EXPECT_EQ(protocol.calls["run_client"], 2);
  EXPECT_DOUBLE_EQ(reports[1].loss, 9.0);
  std::map<std::string, const Span*> by;
  const std::vector<Span> spans = tracer.spans();
  std::uint64_t drive_id = 0;
  for (const Span& s : spans) {
    by[s.name] = &s;
    if (std::string(s.name) == "fl.engine.drive") drive_id = s.id;
  }
  for (const char* name :
       {"fl.engine.prologue", "fl.engine.drive", "fl.engine.epilogue"}) {
    ASSERT_TRUE(by.count(name)) << name;
    EXPECT_EQ(by[name]->parent, round_span) << name;
  }
  for (const Span& s : spans) {
    if (std::string(s.name) == "fl.client.run_client") {
      EXPECT_EQ(s.parent, drive_id);
    }
  }
}

class MockConnection final : public fhdnn::net::Connection {
 public:
  std::map<std::string, int> calls;
  std::size_t read_some(std::uint8_t*, std::size_t len) override {
    ++calls["read_some"];
    return len / 2;
  }
  std::size_t write_some(const std::uint8_t*, std::size_t len) override {
    ++calls["write_some"];
    return len > 4 ? 4 : len;
  }
  bool peer_closed() const override {
    ++mutable_calls;
    return true;
  }
  void close() override { ++calls["close"]; }
  int fd() const override {
    ++mutable_calls;
    return 42;
  }
  bool wait_readable(int) override {
    ++calls["wait_readable"];
    return true;
  }
  std::string describe() const override {
    ++mutable_calls;
    return "mock";
  }
  mutable int mutable_calls = 0;
};

TEST(CountingConnection, ForwardsEveryVirtualAndCounts) {
  auto owned = std::make_unique<MockConnection>();
  MockConnection& inner = *owned;
  NetCounters counters;
  CountingConnection conn(std::move(owned), counters);
  std::uint8_t buf[16] = {};
  EXPECT_EQ(conn.read_some(buf, 8), 4U);
  EXPECT_EQ(conn.read_some(buf, 1), 0U);
  EXPECT_EQ(conn.write_some(buf, 10), 4U);  // short
  EXPECT_EQ(conn.write_some(buf, 3), 3U);
  EXPECT_TRUE(conn.peer_closed());
  EXPECT_EQ(conn.fd(), 42);  // epoll keeps working through the decorator
  EXPECT_TRUE(conn.wait_readable(1));
  EXPECT_EQ(conn.describe(), "mock");
  conn.close();
  EXPECT_EQ(inner.calls["read_some"], 2);
  EXPECT_EQ(inner.calls["write_some"], 2);
  EXPECT_EQ(inner.calls["close"], 1);
  EXPECT_EQ(inner.calls["wait_readable"], 1);
  EXPECT_EQ(inner.mutable_calls, 3);  // peer_closed, fd, describe
  EXPECT_EQ(counters.reads.load(), 2U);
  EXPECT_EQ(counters.read_hits.load(), 1U);
  EXPECT_EQ(counters.bytes_in.load(), 4U);
  EXPECT_EQ(counters.writes.load(), 2U);
  EXPECT_EQ(counters.short_writes.load(), 1U);
  EXPECT_EQ(counters.bytes_out.load(), 7U);
}

}  // namespace
