// One benchmark workload: the set-up it pays once, the campaign of rounds
// it replays, its correctness gate and its per-layer probes.
//
// A campaign is a fixed number of rounds on a fresh trainer, so every
// campaign of a run computes the same history; the runner replays as many
// campaigns as fit the run's seconds and checks that they agree.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "channel/hd_uplink.hpp"
#include "data/dataset.hpp"
#include "data/partition.hpp"
#include "decorators.hpp"
#include "fl/engine.hpp"
#include "fl/fedhd.hpp"
#include "hdc/classifier.hpp"
#include "trace.hpp"

namespace perfbench {

/// Per-layer metric name -> value, filled by probes.
using LayerMetrics = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Pool width the rounds run with (FHDNN_THREADS).
  [[nodiscard]] virtual int threads() const = 0;
  /// Rounds in one campaign.
  [[nodiscard]] virtual int campaign_rounds() const = 0;
  /// About how long one campaign takes on a 4-core x86-64 machine. A run
  /// of S seconds replays round(S / this) campaigns (at least one), so the
  /// round count, and with it the tail percentile, is the same in every
  /// run and on both sides of a comparison.
  [[nodiscard]] virtual double nominal_campaign_seconds() const = 0;

  /// Build everything up to the first round being ready, from `seed`,
  /// replacing whatever an earlier call built. With a tracer, install the
  /// decorators and record set-up spans; without one, install none.
  virtual void setup(std::uint64_t seed, Tracer* tracer) = 0;
  /// Start the next campaign on a fresh trainer (the first campaign after
  /// setup() uses the trainer setup() built).
  virtual void begin_campaign() = 0;
  virtual fhdnn::fl::RoundMetrics round(int round_index) = 0;
  /// Work a deployment does after each committed round (a checkpoint on
  /// fedhd_served); part of the campaign's wall time.
  virtual void after_round(int round_index) { (void)round_index; }
  /// The trainer's public evaluate() on the current global model.
  virtual double evaluate() = 0;

  /// The round decorator setup() installed, or null in an untraced run.
  virtual TracingDriver* tracing_driver() = 0;
  /// Counters of the server's and the workers' connection ends (null for
  /// in-process workloads or in an untraced run).
  virtual const NetCounters* server_net() const { return nullptr; }
  virtual const NetCounters* worker_net() const { return nullptr; }
  /// Framed bytes the server sent plus received so far (0 in process).
  [[nodiscard]] virtual std::uint64_t wire_bytes() const { return 0; }

  /// Workload-specific correctness checks after the measured campaigns;
  /// appends one message per failed check. `first_history` is the first
  /// campaign's history as fhdnnd's hexfloat format_history text; `tracer`
  /// (may be null) records the resume span.
  virtual void gate(const std::string& first_history,
                    std::vector<std::string>& failures, Tracer* tracer) = 0;
  /// Per-layer probes: time direct calls to module functions at this
  /// workload's shapes and record them into `out` (and `tracer`).
  virtual void probe(LayerMetrics& out, Tracer& tracer) = 0;
};

/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

// ---- helpers shared by the workloads ------------------------------------

/// Synthetic MNIST with an IID partition over kPaperClients clients of
/// `per_client` examples plus a `test`-image test set: the data both paper
/// workloads (fedhd_paper, fedavg_cnn) train on, generated from `seed`.
struct PaperData {
  fhdnn::data::Dataset train;
  fhdnn::data::Dataset test;
  fhdnn::data::ClientIndices parts;
};
PaperData make_paper_data(std::uint64_t seed, std::int64_t per_client,
                          std::int64_t test);
inline constexpr std::size_t kPaperClients = 50;

/// Median wall milliseconds of `fn` over at least `min_reps` calls and at
/// least `min_seconds` of calls.
double median_ms(const std::function<void()>& fn, int min_reps = 5,
                 double min_seconds = 0.2);

/// Checkpoint path for `tag` under the run's output directory.
std::string checkpoint_path(const std::string& tag);
/// Remove a checkpoint and its `.prev` generation.
void remove_checkpoint(const std::string& path);
/// Whole-file byte comparison (false when either file is unreadable).
bool same_file_bytes(const std::string& a, const std::string& b);
std::uint64_t file_size(const std::string& path);

/// hdc.refine_us_per_sample (one refine_epoch of a copy of `global` over
/// `shard`), hdc.similarity_us_per_query (similarities on `test`) and
/// channel.transmit_ms (transmit_hd_model of the prototypes over `uplink`).
void probe_hd(const fhdnn::hdc::HdClassifier& global,
              const fhdnn::fl::HdClientData& shard,
              const fhdnn::fl::HdClientData& test,
              const fhdnn::channel::HdUplinkConfig& uplink, LayerMetrics& out);

/// nn.step_ms / nn.step_macs: one B = 10 forward, loss, backward and SGD
/// step of Cnn2 on 28x28 images. The op count is 3x the forward MACs of
/// perf::cnn2_fwd_macs per image (backward ~ twice the forward).
void probe_cnn2_step(LayerMetrics& out);

/// wire.assign_encode_ms / wire.assign_decode_ms: a RoundAssign carrying
/// this protocol's state blob, framed and unframed.
void probe_wire(fhdnn::fl::RoundProtocol& protocol, std::size_t slots,
                LayerMetrics& out);

/// The resume gate for any trainer with checkpoint()/resume(): checkpoint
/// `trained`, resume the file into `fresh`, checkpoint that, and require
/// the two snapshot images to be byte-identical. Records
/// util.snapshot.resume (when `tracer` is set).
template <typename Trainer>
void gate_resume(Trainer& trained, Trainer& fresh, const std::string& tag,
                 std::vector<std::string>& failures, Tracer* tracer) {
  const std::string a = checkpoint_path(tag + "-a");
  const std::string b = checkpoint_path(tag + "-b");
  trained.checkpoint(a);
  {
    std::unique_ptr<ScopedSpan> span;
    if (tracer) {
      span = std::make_unique<ScopedSpan>(*tracer, "util.snapshot.resume", 0, 0);
    }
    fresh.resume(a);
  }
  fresh.checkpoint(b);
  if (!same_file_bytes(a, b)) {
    failures.push_back("resume() did not reproduce the checkpointed state");
  }
  remove_checkpoint(a);
  remove_checkpoint(b);
}

/// util.snapshot.checkpoint spans and util.snapshot.bytes for workloads
/// that do not checkpoint every round.
template <typename Trainer>
void probe_checkpoint(Trainer& trainer, const std::string& tag,
                      LayerMetrics& out, Tracer& tracer) {
  const std::string path = checkpoint_path(tag + "-probe");
  for (int i = 0; i < 5; ++i) {
    const ScopedSpan span(tracer, "util.snapshot.checkpoint", 0, 0);
    trainer.checkpoint(path);
  }
  out["util.snapshot.bytes"] = static_cast<double>(file_size(path));
  remove_checkpoint(path);
}

}  // namespace perfbench
