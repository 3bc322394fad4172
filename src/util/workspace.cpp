#include "util/workspace.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/error.hpp"

namespace fhdnn::util {

namespace {

/// Bump granularity: keeps every returned pointer 16-byte aligned.
constexpr std::size_t kAlign = 16;

std::size_t round_up(std::size_t bytes) {
  return (bytes + kAlign - 1) & ~(kAlign - 1);
}

}  // namespace

void* Workspace::allocate(std::size_t bytes) {
  const std::size_t need = round_up(bytes);
  ++stats_.alloc_calls;
  // Bump the active block, or advance to a later (already rewound) block
  // that fits. Skipped tail space is reclaimed at the next reset().
  while (active_ < blocks_.size()) {
    Block& b = blocks_[active_];
    if (b.size - b.used >= need) {
      void* p = b.data.get() + b.used;
      b.used += need;
      stats_.bytes_in_use += need;
      stats_.high_water_bytes =
          std::max(stats_.high_water_bytes, stats_.bytes_in_use);
      return p;
    }
    if (active_ + 1 == blocks_.size()) break;
    ++active_;
  }
  // Warmup growth. A request larger than the growth step gets a block of
  // its own size; any other gets a block of the step, which then doubles,
  // so a run of small requests converges in O(log(high water)) blocks. The
  // step does not follow the capacity: a small request after a large one
  // costs one small block, not a second copy of the whole arena.
  const std::size_t size = std::max(need, grow_step_);
  if (size == grow_step_) grow_step_ *= 2;
  blocks_.push_back(
      Block{std::make_unique_for_overwrite<std::byte[]>(size), size, need});
  active_ = blocks_.size() - 1;
  ++stats_.heap_allocations;
  stats_.capacity_bytes += size;
  stats_.bytes_in_use += need;
  stats_.high_water_bytes =
      std::max(stats_.high_water_bytes, stats_.bytes_in_use);
  return blocks_.back().data.get();
}

float* Workspace::floats(std::int64_t n) {
  FHDNN_CHECK(n >= 0, "workspace floats(" << n << ")");
  return static_cast<float*>(
      allocate(static_cast<std::size_t>(n) * sizeof(float)));
}

std::int64_t* Workspace::indices(std::int64_t n) {
  FHDNN_CHECK(n >= 0, "workspace indices(" << n << ")");
  return static_cast<std::int64_t*>(
      allocate(static_cast<std::size_t>(n) * sizeof(std::int64_t)));
}

double* Workspace::doubles(std::int64_t n) {
  FHDNN_CHECK(n >= 0, "workspace doubles(" << n << ")");
  return static_cast<double*>(
      allocate(static_cast<std::size_t>(n) * sizeof(double)));
}

void Workspace::reset() {
  FHDNN_CHECKED_ASSERT(scope_depth_ == 0,
                       "workspace reset() with "
                           << scope_depth_
                           << " Scope(s) still open — a Scope leaked across "
                              "a client/batch boundary");
  ++stats_.resets;
  grow_step_ = kMinBlock;
  if (blocks_.size() > 1) {
    // Coalesce fragmented warmup growth into one contiguous block so the
    // steady state never needs to hop blocks again.
    const auto total = static_cast<std::size_t>(stats_.capacity_bytes);
    blocks_.clear();
    blocks_.push_back(
        Block{std::make_unique_for_overwrite<std::byte[]>(total), total, 0});
    ++stats_.heap_allocations;
  } else if (!blocks_.empty()) {
    blocks_.front().used = 0;
  }
  active_ = 0;
  stats_.bytes_in_use = 0;
}

Workspace::Scope::Scope(Workspace& ws)
    : ws_(ws),
      block_(ws.active_),
      used_(ws.blocks_.empty() ? 0 : ws.blocks_[ws.active_].used) {
  ++ws_.scope_depth_;
}

Workspace::Scope::~Scope() {
  --ws_.scope_depth_;
  auto& blocks = ws_.blocks_;
  for (std::size_t i = block_ + 1; i < blocks.size(); ++i) {
    ws_.stats_.bytes_in_use -= blocks[i].used;
    blocks[i].used = 0;
  }
  if (!blocks.empty()) {
    ws_.stats_.bytes_in_use -= blocks[block_].used - used_;
    blocks[block_].used = used_;
    ws_.active_ = block_;
  }
}

Workspace& tls_workspace() {
  thread_local Workspace ws;
  return ws;
}

}  // namespace fhdnn::util
