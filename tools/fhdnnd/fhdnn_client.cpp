// fhdnn-client — an fhdnnd worker.
//
// Builds the same golden workload as the server (the hello handshake
// enforces a matching config fingerprint), dials the server, and serves
// rounds through fl::WorkerLoop: reconstruct the protocol state from each
// RoundAssign, train the assigned slots through the exact run_client code
// path, ship the updates back. If the server dies mid-run (kill -9 under
// test, say), serve() returns false and the client reconnects — riding
// out a checkpoint-restored server restart transparently.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <thread>  // fhdnn-lint: allow(raw-thread) — sleep_for only, no spawning

#include "fl/serving.hpp"
#include "net/socket.hpp"
#include "util/bytes.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "workload.hpp"

namespace {

std::uint16_t resolve_port(const fhdnn::CliFlags& flags) {
  using namespace fhdnn;
  if (flags.get_int("port") != 0) {
    return static_cast<std::uint16_t>(flags.get_int("port"));
  }
  // Poll the server's --port-file until it appears (the server writes it
  // atomically after bind, so a successful read is always complete).
  const std::string path = flags.get_string("port-file");
  FHDNN_CHECK(!path.empty(), "fhdnn-client needs --port or --port-file");
  const int timeout_ms =
      static_cast<int>(flags.get_int("connect-timeout-ms"));
  for (int waited = 0; waited < timeout_ms; waited += 50) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f != nullptr) {
      long port = 0;
      const int got = std::fscanf(f, "%ld", &port);
      std::fclose(f);
      if (got == 1 && port > 0 && port <= 65535) {
        return static_cast<std::uint16_t>(port);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  FHDNN_CHECK(false, "port file " << path << " did not appear within "
                                  << timeout_ms << "ms");
  return 0;
}

int run(int argc, char** argv) {
  using namespace fhdnn;

  CliFlags flags;
  flags.define_string("protocol", "fedhd", "workload: fedavg | fedhd");
  flags.define_int("rounds", 3, "federated rounds (must match the server)");
  flags.define_string("host", "127.0.0.1", "server address");
  flags.define_int("port", 0, "server port (0 = read --port-file)");
  flags.define_string("port-file", "", "file the server publishes its port to");
  flags.define_int("threads", 0, "worker threads (0 = library default)");
  flags.define_int("connect-timeout-ms", 60000, "dial timeout per attempt");
  flags.define_int("max-reconnects", 100,
                   "give up after this many dropped connections");
  if (!flags.parse(argc, argv)) return 0;

  if (flags.get_int("threads") > 0) {
    parallel::set_num_threads(static_cast<int>(flags.get_int("threads")));
  }

  workload::Options opt;
  opt.protocol = flags.get_string("protocol");
  opt.rounds = static_cast<int>(flags.get_int("rounds"));
  auto wl = workload::make_workload(opt);

  const std::string host = flags.get_string("host");
  const std::uint16_t port = resolve_port(flags);
  const int dial_timeout =
      static_cast<int>(flags.get_int("connect-timeout-ms"));

  std::int64_t served_total = 0;
  for (std::int64_t attempt = 0;
       attempt <= flags.get_int("max-reconnects"); ++attempt) {
    try {
      auto conn = net::connect_tcp(host, port, dial_timeout);
      fl::WorkerLoop loop(*conn, wl->protocol(), wl->config_fingerprint(),
                          opt.protocol);
      loop.handshake();
      const bool shutdown = loop.serve();
      served_total += loop.rounds_served();
      if (shutdown) {
        log_info("fhdnn-client")
            << "shutdown after " << served_total << " rounds served ("
            << loop.shutdown_rounds() << " rounds completed server-side)";
        return 0;
      }
      log_warn("fhdnn-client") << "server connection dropped after "
                               << loop.rounds_served()
                               << " rounds this connection; reconnecting";
    } catch (const net::NetError& e) {
      // Dial races while the server is restarting from its checkpoint can
      // fail in odd ways (a localhost connect with no listener can even
      // self-connect on the ephemeral port and die in the handshake);
      // every such failure is just "server not back yet" — retry.
      log_warn("fhdnn-client") << "attempt failed (" << e.what()
                               << "); retrying";
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    } catch (const util::DecodeError& e) {
      log_warn("fhdnn-client") << "attempt failed (" << e.what()
                               << "); retrying";
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  FHDNN_CHECK(false, "fhdnn-client: gave up after "
                         << flags.get_int("max-reconnects") << " reconnects");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "fhdnn-client: " << e.what() << "\n";
    return 1;
  }
}
