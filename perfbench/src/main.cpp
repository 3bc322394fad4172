// perfbench: one workload per process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Untraced (--trace 0): set the workload up several times (setup_s is the
// median), replay the campaigns that fit S seconds with no decorators
// installed, run the correctness gate, and print every end-to-end metric.
// Traced (--trace 1): set up the same way, replay the untraced campaigns
// that fit S/2 seconds (so the two halves start from the same warm process),
// set up again with the decorators installed, replay traced campaigns for
// S/2 seconds, run the probes and the gate, write the spans as Chrome
// trace-event JSON plus a self-time table under .bench_out/, and print
// every per-layer metric, trace.overhead included.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": rounds, "failed": rounds, "metrics": {...}}
// A failed check counts its round as failed and the exit code is 1.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_workload.hpp"
#include "env.hpp"
#include "fl/history.hpp"
#include "measure.hpp"
#include "trace.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "util/snapshot.hpp"
#include "workload.hpp"  // tools/fhdnnd: format_history

namespace perfbench {
std::unique_ptr<Workload> make_fedhd_paper();
std::unique_ptr<Workload> make_fedavg_cnn();
std::unique_ptr<Workload> make_fedhd_served();
std::unique_ptr<Workload> make_fleet_async();

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "fedhd_paper") return make_fedhd_paper();
  if (name == "fedavg_cnn") return make_fedavg_cnn();
  if (name == "fedhd_served") return make_fedhd_served();
  if (name == "fleet_async") return make_fleet_async();
  return nullptr;
}
}  // namespace perfbench

namespace {

using namespace perfbench;
namespace fl = fhdnn::fl;

/// setup_s is the median of at least kMinSetups set-ups, repeated (up to
/// kMaxSetups) until kSetupSeconds have passed, so a set-up of
/// microseconds is still measured many times.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 200;
constexpr double kSetupSeconds = 1.5;
/// A traced round's prologue + drive + epilogue must cover its wall time to
/// within this share of the round or kCoverSlackMs, whichever is larger.
constexpr double kCoverShare = 0.02;
constexpr double kCoverSlackMs = 1.0;
constexpr std::size_t kMaxTraceEvents = 200'000;

double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-6;
}

/// What one stretch of campaigns measured.
struct Phase {
  std::vector<double> round_ms;
  std::vector<fl::RoundMetrics> rounds;  // every measured round
  std::string first_history;             // format_history of campaign 1
  std::vector<fl::RoundMetrics> first;   // campaign 1's rounds
  double campaign_seconds = 0.0;
  int campaigns = 0;
  std::uint64_t wire_bytes = 0;
};

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

/// Replay the whole campaigns that fit `seconds` (at least one), counting
/// rounds into `attempted` and adding one message per failed round to
/// `failures`. A round that throws ends the run: the exception
/// propagates and the caller records it.
Phase run_campaigns(Workload& w, double seconds, Tracer* tracer,
                    std::size_t& attempted,
                    std::vector<std::string>& failures) {
  Phase p;
  const int rounds = w.campaign_rounds();
  const std::uint64_t wire_start = w.wire_bytes();
  const int campaigns = std::max(
      1, static_cast<int>(std::lround(seconds / w.nominal_campaign_seconds())));
  while (p.campaigns < campaigns) {
    w.begin_campaign();
    fl::TrainingHistory history;
    for (int r = 1; r <= rounds; ++r) {
      ++attempted;
      const std::uint64_t span_id = tracer ? tracer->new_id() : 0;
      const std::int64_t t0 = Tracer::now_ns();
      if (TracingDriver* d = w.tracing_driver()) d->begin_round(span_id, r, t0);
      const fl::RoundMetrics m = w.round(r);
      const std::int64_t t1 = Tracer::now_ns();
      w.after_round(r);
      const std::int64_t t2 = Tracer::now_ns();
      if (tracer) {
        Span s;
        s.name = "fl.round";
        s.id = span_id;
        s.thread = Tracer::thread_index();
        s.round = r;
        s.start_ns = t0;
        s.end_ns = t1;
        tracer->record(s);
      }
      p.round_ms.push_back(ms_between(t0, t1));
      p.campaign_seconds += static_cast<double>(t2 - t0) * 1e-9;
      if (m.clients + m.dropped + m.timed_out != m.sampled) {
        failures.push_back("round " + std::to_string(r) +
                           ": clients + dropped + timed_out != sampled");
      }
      p.rounds.push_back(m);
      history.add(m);
    }
    const std::string text = fhdnn::workload::format_history(history);
    if (p.campaigns == 0) {
      p.first_history = text;
      p.first = history.rounds();
    } else if (text != p.first_history) {
      const auto a = lines_of(p.first_history);
      const auto b = lines_of(text);
      for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
        if (i >= a.size() || i >= b.size() || a[i] != b[i]) {
          failures.push_back("campaign " + std::to_string(p.campaigns + 1) +
                             " round " + std::to_string(i + 1) +
                             " differs from campaign 1");
        }
      }
    }
    ++p.campaigns;
  }
  p.wire_bytes = w.wire_bytes() - wire_start;
  return p;
}

// ---- metric tables -------------------------------------------------------

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"round_p50_ms", "ms"},
    {"round_tail_ms", "ms"},
    {"client_updates_per_s", "1/s"},
    {"final_accuracy", "ratio"},
    {"uplink_bytes_per_round", "B"},
    {"peak_rss_mib", "MiB"},
};

constexpr Metric kPerLayer[] = {
    {"fl.engine.prologue_ms", "ms"},
    {"fl.engine.drive_ms", "ms"},
    {"fl.engine.epilogue_ms", "ms"},
    {"fl.round.unaccounted_share", "ratio"},
    {"util.parallel.idle_share", "ratio"},
    {"fl.client.run_ms_p50", "ms"},
    {"fl.client.run_ms_tail", "ms"},
    {"fl.client.count", "count"},
    {"fl.evaluate_ms", "ms"},
    {"core.encode_s", "s"},
    {"hdc.refine_us_per_sample", "us"},
    {"hdc.similarity_us_per_query", "us"},
    {"nn.step_ms", "ms"},
    {"nn.step_macs", "count"},
    {"channel.transmit_ms", "ms"},
    {"channel.goodput_ratio", "ratio"},
    {"channel.retransmissions_per_round", "count"},
    {"fl.serving.state_encode_ms", "ms"},
    {"fl.serving.update_install_ms", "ms"},
    {"fl.serving.collect_wait_ms", "ms"},
    {"fl.worker.state_restore_ms", "ms"},
    {"fl.worker.train_ms", "ms"},
    {"fl.worker.update_encode_ms", "ms"},
    {"fl.worker.idle_share", "ratio"},
    {"net.bytes_out_per_round", "B"},
    {"net.bytes_in_per_round", "B"},
    {"net.read_hit_ratio", "ratio"},
    {"net.short_write_ratio", "ratio"},
    {"wire.assign_encode_ms", "ms"},
    {"wire.assign_decode_ms", "ms"},
    {"util.snapshot.checkpoint_ms", "ms"},
    {"util.snapshot.bytes", "B"},
    {"util.snapshot.resume_ms", "ms"},
    {"fl.events.per_round", "count"},
    {"fl.engine.accepted_per_round", "count"},
    {"trace.overhead", "ratio"},
};

/// Per-layer metrics from the traced phase's spans and rounds.
void span_metrics(const std::vector<Span>& spans, const Phase& traced,
                  int threads, LayerMetrics& out,
                  std::vector<std::string>& failures) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  std::map<std::string, std::vector<const Span*>> by_name;
  for (const Span& s : spans) {
    by_name[s.name].push_back(&s);
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  auto durations = [&](const char* name) {
    std::vector<double> ms;
    for (const Span* s : by_name[name]) {
      ms.push_back(ms_between(s->start_ns, s->end_ns));
    }
    return ms;
  };
  auto child_ms = [&](const Span& parent, const char* name) {
    double total = 0.0;
    for (const Span* c : children[parent.id]) {
      if (std::string(c->name) == name) total += ms_between(c->start_ns, c->end_ns);
    }
    return total;
  };

  out["fl.engine.prologue_ms"] = median(durations("fl.engine.prologue"));
  out["fl.engine.drive_ms"] = median(durations("fl.engine.drive"));
  out["fl.engine.epilogue_ms"] = median(durations("fl.engine.epilogue"));

  std::vector<double> unaccounted;
  for (const Span* round : by_name["fl.round"]) {
    const double wall = ms_between(round->start_ns, round->end_ns);
    double parts = 0.0;
    for (const Span* c : children[round->id]) {
      parts += ms_between(c->start_ns, c->end_ns);
    }
    const double gap = std::abs(wall - parts);
    unaccounted.push_back(wall > 0.0 ? gap / wall : 0.0);
    if (gap > std::max(kCoverSlackMs, kCoverShare * wall)) {
      failures.push_back("round " + std::to_string(round->round) +
                         ": prologue + drive + epilogue miss its wall time by " +
                         std::to_string(gap) + " ms");
    }
  }
  out["fl.round.unaccounted_share"] = median(unaccounted);

  std::vector<double> idle;
  std::vector<double> state_encode;
  std::vector<double> install;
  std::vector<double> wait;
  double drive_total = 0.0;
  for (const Span* drive : by_name["fl.engine.drive"]) {
    const double ms = ms_between(drive->start_ns, drive->end_ns);
    drive_total += ms;
    idle.push_back(idle_share(child_ms(*drive, "fl.client.run_client"), threads, ms));
    const double enc = child_ms(*drive, "fl.serving.state_encode");
    const double ins = child_ms(*drive, "fl.serving.update_install");
    state_encode.push_back(enc);
    install.push_back(ins);
    wait.push_back(ms - enc - ins);
  }
  out["util.parallel.idle_share"] = median(idle);
  const bool served = !by_name["fl.worker.train"].empty();
  out["fl.serving.state_encode_ms"] = served ? median(state_encode) : 0.0;
  out["fl.serving.update_install_ms"] = served ? median(install) : 0.0;
  out["fl.serving.collect_wait_ms"] = served ? median(wait) : 0.0;

  std::vector<double> client = durations("fl.client.run_client");
  const std::vector<double> worker_train = durations("fl.worker.train");
  client.insert(client.end(), worker_train.begin(), worker_train.end());
  out["fl.client.run_ms_p50"] = median(client);
  out["fl.client.run_ms_tail"] = tail(client).value;
  const auto n_rounds = static_cast<double>(by_name["fl.round"].size());
  out["fl.client.count"] =
      n_rounds > 0 ? static_cast<double>(client.size()) / n_rounds : 0.0;

  out["fl.worker.state_restore_ms"] = median(durations("fl.worker.state_restore"));
  out["fl.worker.train_ms"] = median(worker_train);
  out["fl.worker.update_encode_ms"] = median(durations("fl.worker.update_encode"));
  double worker_busy = 0.0;
  std::set<std::uint32_t> worker_threads;
  for (const char* name : {"fl.worker.state_restore", "fl.worker.train",
                           "fl.worker.update_encode"}) {
    for (const Span* s : by_name[name]) {
      worker_busy += ms_between(s->start_ns, s->end_ns);
      worker_threads.insert(s->thread);
    }
  }
  out["fl.worker.idle_share"] =
      worker_threads.empty()
          ? 0.0
          : idle_share(worker_busy, static_cast<int>(worker_threads.size()),
                       drive_total);

  out["util.snapshot.checkpoint_ms"] = median(durations("util.snapshot.checkpoint"));
  out["util.snapshot.resume_ms"] = median(durations("util.snapshot.resume"));
  const std::vector<double> encode = durations("core.encode");
  out["core.encode_s"] = encode.empty() ? 0.0 : median(encode) * 1e-3;

  double events = 0.0;
  double accepted = 0.0;
  double retx = 0.0;
  double payload_bits = 0.0;
  double air_bits = 0.0;
  for (const fl::RoundMetrics& m : traced.rounds) {
    events += static_cast<double>(m.events);
    accepted += static_cast<double>(m.clients);
    retx += static_cast<double>(m.retransmissions);
    payload_bits += 8.0 * static_cast<double>(m.bytes_uplink);
    air_bits += static_cast<double>(m.bits_on_air);
  }
  const auto rounds = static_cast<double>(traced.rounds.size());
  out["fl.events.per_round"] = events / rounds;
  out["fl.engine.accepted_per_round"] = accepted / rounds;
  out["channel.retransmissions_per_round"] = retx / rounds;
  out["channel.goodput_ratio"] = air_bits > 0.0 ? payload_bits / air_bits : 0.0;
}

void net_metrics(const NetCounters* server, const NetCounters* worker,
                 const NetCounters& server_start, double rounds,
                 LayerMetrics& out) {
  if (!server || !worker) return;
  out["net.bytes_out_per_round"] =
      static_cast<double>(server->bytes_out - server_start.bytes_out) / rounds;
  out["net.bytes_in_per_round"] =
      static_cast<double>(server->bytes_in - server_start.bytes_in) / rounds;
  const double reads = static_cast<double>(server->reads + worker->reads);
  const double writes = static_cast<double>(server->writes + worker->writes);
  out["net.read_hit_ratio"] =
      reads > 0 ? static_cast<double>(server->read_hits + worker->read_hits) / reads
                : 0.0;
  out["net.short_write_ratio"] =
      writes > 0
          ? static_cast<double>(server->short_writes + worker->short_writes) / writes
          : 0.0;
}

std::string metrics_json(const Metric* table, std::size_t n,
                         const LayerMetrics& values) {
  std::ostringstream out;
  out.precision(17);
  out << "{";
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = values.find(table[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    out << (i ? ", " : "") << "\"" << table[i].name << "\": {\"value\": " << v
        << ", \"unit\": \"" << table[i].unit << "\"}";
  }
  out << "}";
  return out.str();
}

void print_table(const Metric* table, std::size_t n, const LayerMetrics& values) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = values.find(table[i].name);
    std::cout << "  " << table[i].name << " = "
              << (it == values.end() ? 0.0 : it->second) << " " << table[i].unit
              << "\n";
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t process_start = Tracer::now_ns();
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n";
    return 2;
  }
  std::unique_ptr<Workload> w = make_workload(args.workload);
  if (!w) {
    std::cerr << "perfbench: unknown workload " << args.workload << "\n";
    return 2;
  }
  fhdnn::set_log_level(fhdnn::LogLevel::Warn);
  fhdnn::parallel::set_num_threads(w->threads());
  std::cout << "perfbench workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << "\n"
            << "env " << env_json() << "\n";

  std::vector<std::string> failures;  // one per failed round or check
  std::size_t attempted = 0;
  LayerMetrics values;
  try {
    std::vector<double> setup_s;
    double setup_total = 0.0;
    while (setup_s.empty() ||
           (static_cast<int>(setup_s.size()) < kMaxSetups &&
            (static_cast<int>(setup_s.size()) < kMinSetups ||
             setup_total < kSetupSeconds))) {
      const std::int64_t t0 = setup_s.empty() ? process_start : Tracer::now_ns();
      w->setup(args.seed, nullptr);
      setup_s.push_back(static_cast<double>(Tracer::now_ns() - t0) * 1e-9);
      setup_total += setup_s.back();
    }
    const double budget = args.trace ? args.seconds / 2 : args.seconds;
    const Phase plain = run_campaigns(*w, budget, nullptr, attempted, failures);
    const double rss = peak_rss_mib();

    if (!args.trace) {
      double accepted = 0.0;
      double uplink = 0.0;
      for (const fl::RoundMetrics& m : plain.rounds) {
        accepted += static_cast<double>(m.clients);
      }
      for (const fl::RoundMetrics& m : plain.first) {
        uplink += static_cast<double>(m.bytes_uplink);
      }
      const Tail t = tail(plain.round_ms);
      values["setup_s"] = median(setup_s);
      values["round_p50_ms"] = median(plain.round_ms);
      values["round_tail_ms"] = t.value;
      values["client_updates_per_s"] = accepted / plain.campaign_seconds;
      values["final_accuracy"] = plain.first.back().test_accuracy;
      values["uplink_bytes_per_round"] =
          uplink / static_cast<double>(plain.first.size());
      values["peak_rss_mib"] = rss;
      // setup_s is the median of warm repeats; the cold first set-up is
      // printed on its own (perfbench/METRICS.md says why).
      std::cout << "  setup_cold_s = " << setup_s.front() << " s\nsetups_s";
      for (const double s : setup_s) std::cout << " " << s;
      std::cout << "\nrounds=" << plain.round_ms.size()
                << " campaigns=" << plain.campaigns
                << " round_tail is p" << t.percentile << " of "
                << t.count << " rounds (" << t.beyond << " beyond)\nround_ms";
      for (const double ms : plain.round_ms) std::cout << " " << std::lround(ms);
      std::cout << "\n";
      // Framed server bytes; 0 in process. Not in the result line, whose
      // end-to-end metrics must never be 0.
      std::cout << "  wire_bytes_per_round = "
                << static_cast<double>(plain.wire_bytes) /
                       static_cast<double>(plain.round_ms.size())
                << " B\n";
      w->gate(plain.first_history, failures, nullptr);
    } else {
      Tracer tracer;
      w->setup(args.seed, &tracer);
      NetCounters start;
      if (const NetCounters* s = w->server_net()) {
        start.bytes_out = s->bytes_out.load();
        start.bytes_in = s->bytes_in.load();
      }
      const Phase traced =
          run_campaigns(*w, budget, &tracer, attempted, failures);
      if (traced.first_history != plain.first_history) {
        failures.push_back("the traced history differs from the untraced one");
      }
      values["fl.evaluate_ms"] = median_ms([&] { (void)w->evaluate(); }, 3);
      w->probe(values, tracer);
      net_metrics(w->server_net(), w->worker_net(), start,
                  static_cast<double>(traced.round_ms.size()), values);
      w->gate(plain.first_history, failures, &tracer);
      const std::vector<Span> spans = tracer.spans();
      span_metrics(spans, traced, w->threads(), values, failures);
      values["trace.overhead"] =
          median(traced.round_ms) / median(plain.round_ms) - 1.0;

      const std::string stem = output_dir() + "/" + args.workload + "-seed" +
                               std::to_string(args.seed);
      std::ostringstream meta;
      meta << "{\"workload\": \"" << args.workload << "\", \"seed\": "
           << args.seed << ", \"env\": " << env_json()
           << ", \"spans\": " << spans.size()
           << ", \"dropped\": " << tracer.dropped() << "}";
      fhdnn::util::atomic_write_text(
          stem + ".trace.json",
          chrome_trace_json(spans, meta.str(), kMaxTraceEvents));
      fhdnn::util::atomic_write_text(stem + ".selftime.json",
                                     self_time_json(self_times(spans)));
      std::cout << "trace: " << stem << ".trace.json (" << spans.size()
                << " spans), self time: " << stem << ".selftime.json\n";
    }
  } catch (const std::exception& e) {
    failures.push_back(std::string("aborted: ") + e.what());
  }
  // A check outside any round (resume, served history, worker errors)
  // counts as one more failed round.
  attempted = std::max<std::size_t>(attempted, 1);
  const std::size_t failed = std::min(failures.size(), attempted);
  for (const std::string& f : failures) std::cout << "FAIL " << f << "\n";
  std::cout << "  round_error_rate = "
            << static_cast<double>(failed) / static_cast<double>(attempted)
            << " ratio\n";
  const bool correct = failed == 0;
  if (args.trace) {
    print_table(kPerLayer, std::size(kPerLayer), values);
  } else {
    print_table(kEndToEnd, std::size(kEndToEnd), values);
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": "
            << (args.trace ? metrics_json(kPerLayer, std::size(kPerLayer), values)
                           : metrics_json(kEndToEnd, std::size(kEndToEnd), values))
            << "}" << std::endl;
  return correct ? 0 : 1;
}
