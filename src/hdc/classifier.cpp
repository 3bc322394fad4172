#include "hdc/classifier.hpp"

#include <cmath>

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

double squared_norm(const float* x, std::int64_t d) {
  double s;
  ops::dot_rows(x, x, 1, d, &s);
  return s;
}

/// Cosine similarities of n query rows against k prototype rows, written
/// as floats to sim (n x k). `row_at(i, scratch)` returns query row i (of
/// length d), using `scratch` (d floats) if it must build it. Rows are
/// split across the pool; each row is private output, so the result is the
/// same at any thread count.
template <typename RowAt>
void cosine_rows(std::int64_t n, const RowAt& row_at, const float* c,
                 std::int64_t k, std::int64_t d, float* sim) {
  util::Workspace& ws = util::tls_workspace();
  const util::Workspace::Scope scope(ws);
  double* cnorm = ws.doubles(k);
  for (std::int64_t r = 0; r < k; ++r) {
    cnorm[r] = std::sqrt(squared_norm(c + r * d, d));
  }
  parallel::parallel_for(0, n, parallel::grain_for(k * d),
                         [&](std::int64_t i0, std::int64_t i1) {
    util::Workspace& tws = util::tls_workspace();
    const util::Workspace::Scope chunk_scope(tws);
    double* dot = tws.doubles(k);
    float* scratch = tws.floats(d);
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* x = row_at(i, scratch);
      const double hnorm = std::sqrt(squared_norm(x, d));
      ops::dot_rows(x, c, k, d, dot);
      for (std::int64_t r = 0; r < k; ++r) {
        const double denom = hnorm * cnorm[r];
        sim[i * k + r] =
            denom > 0.0 ? static_cast<float>(dot[r] / denom) : 0.0F;
      }
    }
  });
}

}  // namespace

HdClassifier::HdClassifier(std::int64_t num_classes, std::int64_t hd_dim)
    : k_(num_classes), d_(hd_dim), c_(Shape{num_classes, hd_dim}) {
  FHDNN_CHECK(num_classes > 1 && hd_dim > 0,
              "HdClassifier(K=" << num_classes << ", d=" << hd_dim << ")");
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
  const float* ph = h.data().data();
  Tensor sim(Shape{h.dim(0), k_});
  cosine_rows(
      h.dim(0), [&](std::int64_t i, float*) { return ph + i * d_; },
      c_.data().data(), k_, d_, sim.data().data());
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
  const auto gather = [&](const float* row, float* dst) {
    for (std::int64_t t = 0; t < kept; ++t) dst[t] = row[cols[t]];
    return dst;
  };
  float* ck = ws.floats(k_ * kept);
  for (std::int64_t r = 0; r < k_; ++r) {
    gather(c_.data().data() + r * d_, ck + r * kept);
  }
  const float* ph = h.data().data();
  Tensor sim(Shape{h.dim(0), k_});
  cosine_rows(
      h.dim(0),
      [&](std::int64_t i, float* scratch) {
        return gather(ph + i * d_, scratch);
      },
      ck, k_, kept, sim.data().data());
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

std::int64_t HdClassifier::refine_epoch(const Tensor& h,
                                        const std::vector<std::int64_t>& labels,
                                        float lr) {
  check_batch(h, d_);
  check_labels(labels, h.dim(0), k_, "refine");
  FHDNN_CHECKED_TENSOR(c_);
  const float* ph = h.data().data();
  float* pc = c_.data().data();
  util::Workspace& ws = util::tls_workspace();
  const util::Workspace::Scope scope(ws);
  // Squared prototype norms, kept current across updates: an update
  // recomputes only the two rows it touched, with the same sum.
  double* cn = ws.doubles(k_);
  double* dot = ws.doubles(k_);
  for (std::int64_t k = 0; k < k_; ++k) cn[k] = squared_norm(pc + k * d_, d_);
  std::int64_t updates = 0;
  // Sequential (online) refinement: each update immediately affects later
  // predictions, as in standard HD retraining.
  for (std::int64_t i = 0; i < h.dim(0); ++i) {
    const std::int64_t y = labels[static_cast<std::size_t>(i)];
    const float* x = ph + i * d_;
    ops::dot_rows(x, pc, k_, d_, dot);
    std::int64_t best = 0;
    double best_sim = -2.0;
    for (std::int64_t k = 0; k < k_; ++k) {
      const double sim = cn[k] > 0.0 ? dot[k] / std::sqrt(cn[k]) : 0.0;
      if (sim > best_sim) {
        best_sim = sim;
        best = k;
      }
    }
    if (best != y) {
      float* cy = pc + y * d_;
      float* cb = pc + best * d_;
      double ny = 0.0, nb = 0.0;
      for (std::int64_t j = 0; j < d_; ++j) {
        const float v = lr * x[j];
        cy[j] += v;
        cb[j] -= v;
        ny += static_cast<double>(cy[j]) * cy[j];
        nb += static_cast<double>(cb[j]) * cb[j];
      }
      cn[y] = ny;
      cn[best] = nb;
      ++updates;
    }
  }
  return updates;
}

std::int64_t HdClassifier::refine_epoch_adaptive(
    const Tensor& h, const std::vector<std::int64_t>& labels, float lr) {
  check_batch(h, d_);
  check_labels(labels, h.dim(0), k_, "refine");
  FHDNN_CHECKED_TENSOR(c_);
  const float* ph = h.data().data();
  float* pc = c_.data().data();
  util::Workspace& ws = util::tls_workspace();
  const util::Workspace::Scope scope(ws);
  double* cn = ws.doubles(k_);  // squared prototype norms, as in refine_epoch
  double* dot = ws.doubles(k_);
  for (std::int64_t k = 0; k < k_; ++k) cn[k] = squared_norm(pc + k * d_, d_);
  std::int64_t updates = 0;
  for (std::int64_t i = 0; i < h.dim(0); ++i) {
    const std::int64_t y = labels[static_cast<std::size_t>(i)];
    const float* x = ph + i * d_;
    // Cosine similarity of this row against every prototype.
    const double hnorm = std::sqrt(squared_norm(x, d_));
    ops::dot_rows(x, pc, k_, d_, dot);
    std::int64_t best = 0;
    double best_sim = -2.0, y_sim = 0.0;
    for (std::int64_t k = 0; k < k_; ++k) {
      const double denom = hnorm * std::sqrt(cn[k]);
      const double sim = denom > 0.0 ? dot[k] / denom : 0.0;
      if (sim > best_sim) {
        best_sim = sim;
        best = k;
      }
      if (k == y) y_sim = sim;
    }
    if (best != y) {
      const float gain_y = lr * static_cast<float>(1.0 - y_sim);
      const float gain_b = lr * static_cast<float>(1.0 - best_sim);
      float* cy = pc + y * d_;
      float* cb = pc + best * d_;
      double ny = 0.0, nb = 0.0;
      for (std::int64_t j = 0; j < d_; ++j) {
        cy[j] += gain_y * x[j];
        cb[j] -= gain_b * x[j];
        ny += static_cast<double>(cy[j]) * cy[j];
        nb += static_cast<double>(cb[j]) * cb[j];
      }
      cn[y] = ny;
      cn[best] = nb;
      ++updates;
    }
  }
  return updates;
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
