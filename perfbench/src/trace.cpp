#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <sstream>
#include <unordered_map>

#include "measure.hpp"

namespace perfbench {

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {}

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t Tracer::thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

void Tracer::record(const Span& span) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    out = spans_;
  }
  std::stable_sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return out;
}

std::size_t Tracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name, std::uint64_t parent,
                       std::int64_t round)
    : tracer_(tracer) {
  span_.name = name;
  span_.id = tracer.new_id();
  span_.parent = parent;
  span_.thread = Tracer::thread_index();
  span_.round = round;
  span_.start_ns = Tracer::now_ns();
}

ScopedSpan::~ScopedSpan() {
  span_.end_ns = Tracer::now_ns();
  tracer_.record(span_);
}

std::vector<LayerTime> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<Interval>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<std::string, LayerTime> by_name;
  for (const Span& s : spans) {
    LayerTime& layer = by_name[s.name];
    layer.name = s.name;
    ++layer.count;
    const std::int64_t dur = s.end_ns - s.start_ns;
    std::int64_t kids = 0;
    if (const auto it = children.find(s.id); it != children.end()) {
      kids = covered(it->second, {s.start_ns, s.end_ns});
    }
    layer.total_ms += static_cast<double>(dur) * 1e-6;
    layer.self_ms += static_cast<double>(dur - kids) * 1e-6;
  }
  std::vector<LayerTime> out;
  out.reserve(by_name.size());
  for (auto& [name, layer] : by_name) out.push_back(layer);
  return out;
}

std::string chrome_trace_json(const std::vector<Span>& spans,
                              const std::string& metadata_json,
                              std::size_t max_events) {
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::ostringstream out;
  out.precision(15);
  out << "{\"displayTimeUnit\":\"ms\",\"metadata\":" << metadata_json
      << ",\"traceEvents\":[";
  const std::size_t n = std::min(spans.size(), max_events);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << static_cast<double>(s.start_ns - origin) * 1e-3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"round\":" << s.round << "}}";
  }
  out << "\n]}\n";
  return out.str();
}

std::string self_time_json(const std::vector<LayerTime>& layers) {
  std::ostringstream out;
  out.precision(10);
  out << "{";
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const LayerTime& l = layers[i];
    out << (i ? ",\n" : "\n") << "  \"" << l.name << "\": {\"count\": "
        << l.count << ", \"total_ms\": " << l.total_ms
        << ", \"self_ms\": " << l.self_ms << "}";
  }
  out << "\n}\n";
  return out.str();
}

}  // namespace perfbench
