#include "net/loopback.hpp"

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>

namespace fhdnn::net {
namespace {

// One direction of the pipe: a bounded FIFO of bytes.
struct Queue {
  std::vector<std::uint8_t> data;
  std::size_t head = 0;

  [[nodiscard]] std::size_t readable() const { return data.size() - head; }
};

struct Pipe {
  std::mutex mu;
  std::condition_variable cv;
  Queue dir[2];         // dir[s]: bytes written by side s
  bool closed[2] = {false, false};
  std::size_t capacity;
  std::string name;
};

class LoopbackConnection final : public Connection {
 public:
  LoopbackConnection(std::shared_ptr<Pipe> pipe, int side)
      : pipe_(std::move(pipe)), side_(side) {}

  ~LoopbackConnection() override { LoopbackConnection::close(); }

  std::size_t read_some(std::uint8_t* out, std::size_t len) override {
    const std::scoped_lock lock(pipe_->mu);
    Queue& in = pipe_->dir[1 - side_];
    const std::size_t n = len < in.readable() ? len : in.readable();
    if (n == 0) return 0;
    std::memcpy(out, in.data.data() + in.head, n);
    in.head += n;
    if (in.head == in.data.size()) {
      in.data.clear();
      in.head = 0;
    }
    // Draining frees capacity: wake a writer blocked in wait_writable.
    pipe_->cv.notify_all();
    return n;
  }

  std::size_t write_some(const std::uint8_t* data, std::size_t len) override {
    const std::scoped_lock lock(pipe_->mu);
    if (pipe_->closed[side_]) {
      throw NetError("write on closed " + describe_locked());
    }
    if (pipe_->closed[1 - side_]) {
      throw NetError("peer closed on " + describe_locked());
    }
    Queue& out = pipe_->dir[side_];
    const std::size_t used = out.data.size() - out.head;
    const std::size_t avail =
        used < pipe_->capacity ? pipe_->capacity - used : 0;
    const std::size_t n = len < avail ? len : avail;
    if (n == 0) return 0;  // backpressure
    out.data.insert(out.data.end(), data, data + n);
    pipe_->cv.notify_all();
    return n;
  }

  [[nodiscard]] bool peer_closed() const override {
    const std::scoped_lock lock(pipe_->mu);
    const Queue& in = pipe_->dir[1 - side_];
    return pipe_->closed[1 - side_] && in.readable() == 0;
  }

  void close() override {
    const std::scoped_lock lock(pipe_->mu);
    pipe_->closed[side_] = true;
    pipe_->cv.notify_all();
  }

  bool wait_readable(int timeout_ms) override {
    std::unique_lock lock(pipe_->mu);
    const auto ready = [this] {
      return pipe_->dir[1 - side_].readable() > 0 || pipe_->closed[1 - side_];
    };
    if (timeout_ms <= 0) return ready();
    pipe_->cv.wait_for(lock, std::chrono::milliseconds(timeout_ms), ready);
    return ready();
  }

  bool wait_writable(int timeout_ms) override {
    std::unique_lock lock(pipe_->mu);
    const auto ready = [this] {
      return pipe_->dir[side_].readable() < pipe_->capacity ||
             pipe_->closed[0] || pipe_->closed[1];
    };
    if (timeout_ms <= 0) return ready();
    pipe_->cv.wait_for(lock, std::chrono::milliseconds(timeout_ms), ready);
    return ready();
  }

  [[nodiscard]] std::string describe() const override {
    const std::scoped_lock lock(pipe_->mu);
    return describe_locked();
  }

 private:
  [[nodiscard]] std::string describe_locked() const {
    return pipe_->name + (side_ == 0 ? ":client" : ":server");
  }

  std::shared_ptr<Pipe> pipe_;
  int side_;
};

}  // namespace

std::pair<std::unique_ptr<Connection>, std::unique_ptr<Connection>>
make_loopback_pair(const LoopbackOptions& options) {
  FHDNN_CHECK(options.capacity_bytes > 0, "loopback capacity must be > 0");
  auto pipe = std::make_shared<Pipe>();
  pipe->capacity = options.capacity_bytes;
  pipe->name = options.name;
  return {std::make_unique<LoopbackConnection>(pipe, 0),
          std::make_unique<LoopbackConnection>(pipe, 1)};
}

}  // namespace fhdnn::net
