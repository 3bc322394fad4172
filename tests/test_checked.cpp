// FHDNN_CHECKED contract-build tests (DESIGN.md §10).
//
// Proves the checked-build instrumentation actually fires: workspace Scope
// leaks are caught by reset(), broken Tensor invariants are caught at
// at()/kernel entry, and the FP-environment guard accepts a clean process.
// The CHECKED-only assertions skip (not silently pass) in plain builds so
// the same test binary is honest in both configurations; CI runs it with
// -DFHDNN_CHECKED=ON plus ASan/UBSan.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "hdc/classifier.hpp"
#include "nn/layers.hpp"
#include "tensor/tensor.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/fpenv.hpp"
#include "util/rng.hpp"
#include "util/workspace.hpp"

namespace fhdnn {
namespace {

TEST(Checked, BuildFlagMatchesMacro) {
#ifdef FHDNN_CHECKED
  EXPECT_TRUE(util::checked_build());
#else
  EXPECT_FALSE(util::checked_build());
#endif
}

// ---- workspace Scope leak detection --------------------------------------

TEST(Checked, WorkspaceResetThrowsWithOpenScope) {
  if (!util::checked_build()) {
    GTEST_SKIP() << "Scope-leak detection is FHDNN_CHECKED-only";
  }
  util::Workspace ws;
  auto leaked = std::make_unique<util::Workspace::Scope>(ws);
  EXPECT_EQ(ws.scope_depth(), 1);
  EXPECT_THROW(ws.reset(), Error);
  // Closing the Scope restores the contract; reset() works again.
  leaked.reset();
  EXPECT_EQ(ws.scope_depth(), 0);
  EXPECT_NO_THROW(ws.reset());
}

TEST(Checked, WorkspaceResetThrowsUnderNestedScopes) {
  if (!util::checked_build()) {
    GTEST_SKIP() << "Scope-leak detection is FHDNN_CHECKED-only";
  }
  util::Workspace ws;
  const util::Workspace::Scope outer(ws);
  {
    const util::Workspace::Scope inner(ws);
    EXPECT_EQ(ws.scope_depth(), 2);
    EXPECT_THROW(ws.reset(), Error);
  }
  // Still one open Scope: still a contract violation.
  EXPECT_EQ(ws.scope_depth(), 1);
  EXPECT_THROW(ws.reset(), Error);
}

TEST(Checked, ScopeDepthTracksNestingInEveryBuild) {
  // scope_depth() itself is always maintained — only the reset() throw is
  // gated on FHDNN_CHECKED.
  util::Workspace ws;
  EXPECT_EQ(ws.scope_depth(), 0);
  {
    const util::Workspace::Scope a(ws);
    EXPECT_EQ(ws.scope_depth(), 1);
    {
      const util::Workspace::Scope b(ws);
      EXPECT_EQ(ws.scope_depth(), 2);
      (void)ws.floats(128);
    }
    EXPECT_EQ(ws.scope_depth(), 1);
  }
  EXPECT_EQ(ws.scope_depth(), 0);
  EXPECT_NO_THROW(ws.reset());
}

TEST(Checked, CheckedAssertThrowsOnlyInCheckedBuilds) {
  bool evaluated = false;
  const auto probe = [&] {
    evaluated = true;
    return false;
  };
  if (util::checked_build()) {
    EXPECT_THROW(FHDNN_CHECKED_ASSERT(probe(), "must fire"), Error);
    EXPECT_TRUE(evaluated);
  } else {
    // Compiled out: the condition must not even be evaluated.
    FHDNN_CHECKED_ASSERT(probe(), "must not fire");
    EXPECT_FALSE(evaluated);
  }
}

// ---- bounds-checked Tensor access ----------------------------------------

TEST(Checked, TensorAtOutOfBoundsThrows) {
  // The bounds FHDNN_CHECK is always on, in every build type.
  Tensor t(Shape{2, 3});
  EXPECT_NO_THROW(t.at(0));
  EXPECT_NO_THROW(t.at(5));
  EXPECT_THROW(t.at(6), Error);
  EXPECT_THROW(t.at(-1), Error);
  const Tensor& ct = t;
  EXPECT_THROW(ct.at(6), Error);
  EXPECT_THROW((void)t(2, 0), Error);
  EXPECT_THROW((void)t(0, 3), Error);
}

TEST(Checked, BrokenInvariantCaughtAtAccess) {
  if (!util::checked_build()) {
    GTEST_SKIP() << "invariant re-validation on at() needs FHDNN_CHECKED "
                    "(or a debug build)";
  }
  // vec() can resize the buffer behind the shape's back (serialization
  // layers do); checked builds re-validate on every at().
  Tensor t(Shape{2, 3});
  t.vec().resize(4);
  EXPECT_THROW(t.assert_invariant(), Error);
  EXPECT_THROW((void)t.at(0), Error);
  const Tensor& ct = t;
  EXPECT_THROW((void)ct.at(0), Error);
}

TEST(Checked, BrokenInvariantCaughtAtClassifierEntry) {
  if (!util::checked_build()) {
    GTEST_SKIP() << "classifier entry re-validation is FHDNN_CHECKED-only";
  }
  // The classifier loops run on raw row pointers with no per-element
  // bounds checks, so checked builds re-validate h and the prototypes on
  // entry instead.
  const std::vector<std::int64_t> labels = {0, 1};
  const Tensor h(Shape{2, 8});
  hdc::HdClassifier clf(2, 8);
  clf.prototypes().vec().resize(4);
  EXPECT_THROW(clf.bundle(h, labels), Error);
  EXPECT_THROW((void)clf.similarities(h), Error);
  EXPECT_THROW((void)clf.predict(h), Error);
  EXPECT_THROW((void)clf.refine_epoch(h, labels), Error);

  hdc::HdClassifier ok(2, 8);
  Tensor broken(Shape{2, 8});
  broken.vec().resize(3);
  EXPECT_THROW((void)ok.similarities(broken), Error);
  EXPECT_THROW((void)ok.refine_epoch(broken, labels), Error);
}

// ---- Conv2d kept im2col columns ------------------------------------------

TEST(Checked, Conv2dBackwardNeedsItsTrainingForward) {
  if (!util::checked_build()) {
    GTEST_SKIP() << "kept-cols provenance is asserted in FHDNN_CHECKED only";
  }
  Rng rng(41);
  nn::Conv2d conv(2, 3, 3, 1, 1, rng);
  const Tensor x = Tensor::randn(Shape{2, 2, 5, 5}, rng);
  const Tensor g = Tensor::randn(Shape{2, 3, 5, 5}, rng);
  // No forward yet: there are no columns to read.
  EXPECT_THROW((void)conv.backward(g), Error);
  (void)conv.forward(x);
  EXPECT_NO_THROW((void)conv.backward(g));
  // A second backward would read columns another backward consumed.
  EXPECT_THROW((void)conv.backward(g), Error);
  // An eval-mode forward keeps no columns, so the older ones are stale.
  (void)conv.forward(x);
  conv.set_training(false);
  (void)conv.forward(x);
  EXPECT_THROW((void)conv.backward(g), Error);
  // A gradient for another batch size does not match the kept columns.
  conv.set_training(true);
  (void)conv.forward(x);
  const Tensor g1 = Tensor::randn(Shape{1, 3, 5, 5}, rng);
  EXPECT_THROW((void)conv.backward(g1), Error);
}

// ---- Linear's viewed input -------------------------------------------------

TEST(Checked, LinearBackwardRejectsAnInputChangedSinceForward) {
  if (!util::checked_build()) {
    GTEST_SKIP() << "the input-lifetime CRC is kept in FHDNN_CHECKED only";
  }
  Rng rng(42);
  nn::Linear lin(4, 3, rng);
  Tensor x = Tensor::randn(Shape{2, 4}, rng);
  const Tensor g = Tensor::randn(Shape{2, 3}, rng);
  (void)lin.forward(x);
  EXPECT_NO_THROW((void)lin.backward(g));
  // Backward reads the forward's input through a view: overwriting that
  // buffer in between breaks Module::forward's input-lifetime contract.
  (void)lin.forward(x);
  x.at(5) += 1.0F;
  EXPECT_THROW((void)lin.backward(g), Error);
}

// ---- FP-environment guard ------------------------------------------------

TEST(Checked, FpEnvironmentIsStrictInTests) {
  // The test process runs without fast-math/FTZ, so the guard must agree —
  // this is the same call the engines make via checked_startup().
  EXPECT_EQ(util::fp_environment_issues(), "");
  EXPECT_NO_THROW(util::assert_fp_environment());
  EXPECT_NO_THROW(util::checked_startup());
}

TEST(Checked, SubnormalsSurviveArithmetic) {
  // Behavioural cross-check of what fp_environment_issues() probes: FTZ
  // would flush these to zero and silently fork the golden histories.
  volatile float min_norm = 1.17549435e-38F;
  volatile float half = 0.5F;
  const float sub = min_norm * half;
  EXPECT_GT(sub, 0.0F);
  volatile float denorm = sub;
  volatile float two = 2.0F;
  EXPECT_EQ(denorm * two, min_norm);
}

}  // namespace
}  // namespace fhdnn
