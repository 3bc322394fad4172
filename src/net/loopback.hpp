// Deterministic in-process loopback: a pair of Connection endpoints joined
// by two byte queues, for tests and the single-process serving path.
//
// Semantics match a healthy TCP stream: writes are accepted up to a
// capacity cap (then backpressure: write_some returns 0), reads drain in
// FIFO order, closing one end makes the other's reads hit EOF once the
// queue drains.  Fully thread-safe — the server pumps one end from its
// round-driver thread while a worker thread pumps the other — and carries
// no timing or randomness, so loopback integration runs are bit-identical
// across machines and under TSan.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>

#include "net/connection.hpp"

namespace fhdnn::net {

struct LoopbackOptions {
  /// Per-direction queue capacity before write_some reports backpressure.
  std::size_t capacity_bytes = 1 << 20;
  std::string name = "loopback";
};

/// Create a connected pair (first = "client" end, second = "server" end).
/// Either endpoint may outlive the other; the shared pipe state is
/// reference-counted.
// fhdnn-lint: allow(test-only-api) the in-process transport fake of the tests
std::pair<std::unique_ptr<Connection>, std::unique_ptr<Connection>>
make_loopback_pair(const LoopbackOptions& options = {});

}  // namespace fhdnn::net
