#include "hdc/classifier.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"
#include "util/workspace.hpp"

namespace fhdnn::hdc {

namespace {

void check_batch(const Tensor& h, std::int64_t d) {
  FHDNN_CHECK(h.ndim() == 2 && h.dim(1) == d,
              "expected (N, " << d << ") hypervectors, got "
                              << shape_to_string(h.shape()));
  FHDNN_CHECKED_TENSOR(h);
}

/// Validates every label before the caller mutates anything, so a bad
/// label leaves the prototypes untouched.
void check_labels(const std::vector<std::int64_t>& labels, std::int64_t n,
                  std::int64_t k, const char* op) {
  FHDNN_CHECK(static_cast<std::int64_t>(labels.size()) == n,
              op << " labels size mismatch");
  for (const std::int64_t y : labels) {
    FHDNN_CHECK(y >= 0 && y < k, "label " << y << " out of range " << k);
  }
}

/// Query rows per dot kernel call: the tallest register tile of any tier,
/// so a masked readout gathers at most this many rows at a time.
constexpr std::int64_t kQueryBlock = 8;

/// Dots of rows x (row stride x_rs) against the k prototypes in `panel`
/// (ops::pack_panel's layout over d columns) into dot (rows x k), and each
/// row's own squared norm into x_sq unless it is null.
void dots(const float* x, std::int64_t x_rs, std::int64_t rows,
          const float* panel, std::int64_t k, std::int64_t d, double* dot,
          double* x_sq) {
  simd::kernels().gemm_dot_norm_f64(
      {.x = x, .x_rs = x_rs, .x_ks = 1, .p = panel, .p_ks = k, .c = dot,
       .c_rs = k, .c_ls = 1, .rows = rows, .lanes = k, .k = d},
      x_sq);
}

/// Cosine similarities of n query rows against the k prototypes in `panel`
/// (over d columns, with row norms cnorm), written as floats to sim
/// (n x k). `rows_at(i0, nb, scratch)` returns query rows [i0, i0 + nb) as
/// a pointer and a row stride; with Gather set it builds them in `scratch`
/// (nb x d floats). Each kernel call runs one block of rows against every
/// class, the rows' own norms included. Rows are split across the pool;
/// each row is private output, so the result is the same at any thread
/// count.
template <bool Gather, typename RowsAt>
void cosine_rows(std::int64_t n, const RowsAt& rows_at, const float* panel,
                 const double* cnorm, std::int64_t k, std::int64_t d,
                 float* sim) {
  parallel::parallel_for(0, n, parallel::grain_for(k * d),
                         [&](std::int64_t i0, std::int64_t i1) {
    util::Workspace& tws = util::tls_workspace();
    const util::Workspace::Scope chunk_scope(tws);
    double* dot = tws.doubles(kQueryBlock * k);
    double* x_sq = tws.doubles(kQueryBlock);
    float* scratch = Gather ? tws.floats(kQueryBlock * d) : nullptr;
    for (std::int64_t b = i0; b < i1; b += kQueryBlock) {
      const std::int64_t nb = std::min(kQueryBlock, i1 - b);
      const auto [x, x_rs] = rows_at(b, nb, scratch);
      dots(x, x_rs, nb, panel, k, d, dot, x_sq);
      for (std::int64_t r = 0; r < nb; ++r) {
        const double hnorm = std::sqrt(x_sq[r]);
        float* out = sim + (b + r) * k;
        for (std::int64_t l = 0; l < k; ++l) {
          const double denom = hnorm * cnorm[l];
          out[l] = denom > 0.0 ? static_cast<float>(dot[r * k + l] / denom)
                               : 0.0F;
        }
      }
    }
  });
}

/// Panel lane up gains x and lane down loses it, and their squared norms in
/// cn are recomputed from the updated values, one chain each in ascending j
/// as ops::pack_panel runs them. Every other lane keeps its bits.
void update_lanes(float* panel, std::int64_t k, std::int64_t d,
                  const float* x, std::int64_t up, std::int64_t down,
                  double* cn) {
  double nu = 0.0, nd = 0.0;
  for (std::int64_t j = 0; j < d; ++j) {
    float* pj = panel + j * k;
    pj[up] += x[j];
    pj[down] -= x[j];
    nu += static_cast<double>(pj[up]) * pj[up];
    nd += static_cast<double>(pj[down]) * pj[down];
  }
  cn[up] = nu;
  cn[down] = nd;
}

/// Online refinement, as in standard HD retraining: each update affects
/// every later prediction. For the epoch the prototypes live in a k-major
/// float panel, so each sample's dots against every class take one pass
/// of the dispatched dot kernel, and an update touches two lanes of it.
std::int64_t refine(float* pc, std::int64_t k, std::int64_t d, const Tensor& h,
                    const std::vector<std::int64_t>& labels) {
  const float* ph = h.data().data();
  util::Workspace& ws = util::tls_workspace();
  const util::Workspace::Scope scope(ws);
  // Squared prototype norms, kept current: an update recomputes the two
  // lanes it touched, with the same chains. The small arrays come first,
  // so a cold arena grows by one block of exactly the panel's size.
  double* cn = ws.doubles(k);
  double* dot = ws.doubles(k);
  float* panel = ws.floats(k * d);
  ops::pack_panel(pc, d, k, d, nullptr, panel, k, cn);
  std::int64_t updates = 0;
  for (std::int64_t i = 0; i < h.dim(0); ++i) {
    const std::int64_t y = labels[static_cast<std::size_t>(i)];
    const float* x = ph + i * d;
    dots(x, d, 1, panel, k, d, dot, nullptr);
    // The query's own norm scales every class alike, so the argmax skips it.
    std::int64_t best = 0;
    double best_sim = -2.0;
    for (std::int64_t l = 0; l < k; ++l) {
      const double sim = cn[l] > 0.0 ? dot[l] / std::sqrt(cn[l]) : 0.0;
      if (sim > best_sim) {
        best_sim = sim;
        best = l;
      }
    }
    if (best != y) {
      update_lanes(panel, k, d, x, y, best, cn);
      ++updates;
    }
  }
  if (updates > 0) ops::pack_panel(panel, k, d, k, nullptr, pc, d);
  return updates;
}

}  // namespace

HdClassifier::HdClassifier(std::int64_t num_classes, std::int64_t hd_dim)
    : k_(num_classes), d_(hd_dim), c_(Shape{num_classes, hd_dim}) {
  FHDNN_CHECK(num_classes > 1 && hd_dim > 0,
              "HdClassifier(K=" << num_classes << ", d=" << hd_dim << ")");
}

HdClassifier::HdClassifier(Tensor prototypes)
    : k_(prototypes.ndim() == 2 ? prototypes.dim(0) : 0),
      d_(prototypes.ndim() == 2 ? prototypes.dim(1) : 0),
      c_(std::move(prototypes)) {
  FHDNN_CHECK(k_ > 1 && d_ > 0,
              "HdClassifier prototypes " << shape_to_string(c_.shape()));
}

void HdClassifier::bundle(const Tensor& h,
                          const std::vector<std::int64_t>& labels) {
  check_batch(h, d_);
  check_labels(labels, h.dim(0), k_, "bundle");
  FHDNN_CHECKED_TENSOR(c_);
  const float* ph = h.data().data();
  float* pc = c_.data().data();
  for (std::int64_t i = 0; i < h.dim(0); ++i) {
    const float* x = ph + i * d_;
    float* cy = pc + labels[static_cast<std::size_t>(i)] * d_;
    for (std::int64_t j = 0; j < d_; ++j) cy[j] += x[j];
  }
}

Tensor HdClassifier::similarities(const Tensor& h) const {
  check_batch(h, d_);
  FHDNN_CHECKED_TENSOR(c_);
  util::Workspace& ws = util::tls_workspace();
  const util::Workspace::Scope scope(ws);
  double* cnorm = ws.doubles(k_);
  float* panel = ws.floats(k_ * d_);
  ops::pack_panel(c_.data().data(), d_, k_, d_, nullptr, panel, k_, cnorm);
  for (std::int64_t l = 0; l < k_; ++l) cnorm[l] = std::sqrt(cnorm[l]);
  const float* ph = h.data().data();
  Tensor sim(Shape{h.dim(0), k_});
  cosine_rows<false>(
      h.dim(0),
      [&](std::int64_t i0, std::int64_t, float*) {
        return std::pair{ph + i0 * d_, d_};
      },
      panel, cnorm, k_, d_, sim.data().data());
  return sim;
}

Tensor HdClassifier::masked_similarities(const Tensor& h,
                                         const std::vector<bool>& mask) const {
  check_batch(h, d_);
  FHDNN_CHECK(static_cast<std::int64_t>(mask.size()) == d_,
              "mask size " << mask.size() << " != d " << d_);
  FHDNN_CHECKED_TENSOR(c_);
  // Dropping the masked-out columns of h and C leaves every norm and dot a
  // sum over the kept dimensions in ascending order, exactly as skipping
  // them in place would, so the dense kernel gives the same bits.
  util::Workspace& ws = util::tls_workspace();
  const util::Workspace::Scope scope(ws);
  std::int64_t kept = 0;
  std::int64_t* cols = ws.indices(d_);
  for (std::int64_t j = 0; j < d_; ++j) {
    if (mask[static_cast<std::size_t>(j)]) cols[kept++] = j;
  }
  double* cnorm = ws.doubles(k_);
  float* panel = ws.floats(k_ * kept);
  ops::pack_panel(c_.data().data(), d_, k_, kept, cols, panel, k_, cnorm);
  for (std::int64_t l = 0; l < k_; ++l) cnorm[l] = std::sqrt(cnorm[l]);
  const float* ph = h.data().data();
  Tensor sim(Shape{h.dim(0), k_});
  cosine_rows<true>(
      h.dim(0),
      [&](std::int64_t i0, std::int64_t nb, float* scratch) {
        for (std::int64_t r = 0; r < nb; ++r) {
          const float* row = ph + (i0 + r) * d_;
          for (std::int64_t t = 0; t < kept; ++t) {
            scratch[r * kept + t] = row[cols[t]];
          }
        }
        return std::pair<const float*, std::int64_t>{scratch, kept};
      },
      panel, cnorm, k_, kept, sim.data().data());
  return sim;
}

std::vector<std::int64_t> HdClassifier::predict(const Tensor& h) const {
  const Tensor sim = similarities(h);
  const float* ps = sim.data().data();
  std::vector<std::int64_t> out(static_cast<std::size_t>(sim.dim(0)));
  for (std::int64_t i = 0; i < sim.dim(0); ++i) {
    const float* row = ps + i * k_;
    std::int64_t best = 0;
    for (std::int64_t k = 1; k < k_; ++k) {
      if (row[k] > row[best]) best = k;
    }
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

std::int64_t HdClassifier::refine_epoch(
    const Tensor& h, const std::vector<std::int64_t>& labels) {
  check_batch(h, d_);
  check_labels(labels, h.dim(0), k_, "refine");
  FHDNN_CHECKED_TENSOR(c_);
  return refine(c_.data().data(), k_, d_, h, labels);
}

double HdClassifier::accuracy(const Tensor& h,
                              const std::vector<std::int64_t>& labels) const {
  const auto preds = predict(h);
  FHDNN_CHECK(preds.size() == labels.size(), "accuracy size mismatch");
  if (preds.empty()) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(preds.size());
}

std::vector<std::int64_t> classify_packed(const PackedModel& prototypes,
                                          const PackedModel& queries) {
  FHDNN_CHECK(prototypes.d == queries.d, "classify_packed dim mismatch: "
                                             << prototypes.d << " vs "
                                             << queries.d);
  FHDNN_CHECK(prototypes.rows > 0, "classify_packed with no prototypes");
  const auto& k = simd::kernels();
  const std::int64_t nw = prototypes.words_per_row();
  std::vector<std::int64_t> out(static_cast<std::size_t>(queries.rows));
  for (std::int64_t i = 0; i < queries.rows; ++i) {
    const std::uint64_t* q = queries.row(i).data();
    std::int64_t best = 0;
    std::uint64_t best_h = k.hamming_words(q, prototypes.row(0).data(), nw);
    for (std::int64_t c = 1; c < prototypes.rows; ++c) {
      const std::uint64_t h =
          k.hamming_words(q, prototypes.row(c).data(), nw);
      if (h < best_h) {
        best_h = h;
        best = c;
      }
    }
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

void HdClassifier::set_prototypes(Tensor c) {
  FHDNN_CHECK(c.ndim() == 2 && c.dim(0) == k_ && c.dim(1) == d_,
              "set_prototypes shape " << shape_to_string(c.shape()));
  c_ = std::move(c);
}

}  // namespace fhdnn::hdc
