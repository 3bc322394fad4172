// Unit tests for the whole-program phase of fhdnn-lint (tools/lint/graph):
// every graph rule gets at least one positive (violating) fixture and one
// suppressed fixture, plus a deliberate include cycle, a hidden transitive
// allocation reached from an `_into` kernel, and the --json schema.
//
// Fixtures are (path, content) pairs fed through lint_program_sources, so
// the include resolver sees a synthetic repo layout; paths are chosen to
// land in real manifest modules (util, fl, nn, hdc, ...).
#include "graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace lint = fhdnn::lint;

namespace {

using Sources = std::vector<std::pair<std::string, std::string>>;

std::vector<lint::Diagnostic> run(const Sources& sources) {
  static const auto rules = lint::default_graph_rules();
  return lint::lint_program_sources(sources, rules);
}

int count_rule(const std::vector<lint::Diagnostic>& diags,
               std::string_view rule) {
  return static_cast<int>(
      std::count_if(diags.begin(), diags.end(),
                    [&](const lint::Diagnostic& d) { return d.rule == rule; }));
}

const lint::Diagnostic* find_rule(const std::vector<lint::Diagnostic>& diags,
                                  std::string_view rule) {
  const auto it =
      std::find_if(diags.begin(), diags.end(),
                   [&](const lint::Diagnostic& d) { return d.rule == rule; });
  return it == diags.end() ? nullptr : &*it;
}

}  // namespace

// ---- layer-dag -----------------------------------------------------------

TEST(LayerDag, LowerLayerIncludingHigherIsViolation) {
  const auto diags = run({
      {"src/util/timing.hpp",
       "#pragma once\n"
       "#include \"fl/loop.hpp\"\n"
       "namespace fhdnn::util { int tick(); }\n"},
      {"src/fl/loop.hpp",
       "#pragma once\n"
       "namespace fhdnn::fl { int spin(); }\n"},
  });
  ASSERT_EQ(count_rule(diags, "layer-dag"), 1);
  const auto* d = find_rule(diags, "layer-dag");
  EXPECT_EQ(d->path, "src/util/timing.hpp");
  EXPECT_EQ(d->line, 2);
  EXPECT_NE(d->message.find("layering violation"), std::string::npos);
}

TEST(LayerDag, HigherLayerIncludingLowerIsFine) {
  const auto diags = run({
      {"src/fl/loop.hpp",
       "#pragma once\n"
       "#include \"util/timing.hpp\"\n"
       "namespace fhdnn::fl { int spin() { return fhdnn::util::tick(); } }\n"},
      {"src/util/timing.hpp",
       "#pragma once\n"
       "namespace fhdnn::util { int tick(); }\n"},
  });
  EXPECT_EQ(count_rule(diags, "layer-dag"), 0);
}

TEST(LayerDag, FlIncludingCoreIsAViolation) {
  // core assembles trainers from fl/, so it ranks above it: the edge back
  // down from fl into core is still an upward include.
  const auto diags = run({
      {"src/fl/x.hpp",
       "#pragma once\n"
       "#include \"core/y.hpp\"\n"},
      {"src/core/y.hpp",
       "#pragma once\n"
       "#include \"fl/z.hpp\"\n"},
      {"src/fl/z.hpp", "#pragma once\n"},
  });
  // Only the fl -> core edge is reported; core -> fl is the ordering.
  ASSERT_EQ(count_rule(diags, "layer-dag"), 1);
  const auto* d = find_rule(diags, "layer-dag");
  EXPECT_EQ(d->path, "src/fl/x.hpp");
  EXPECT_EQ(d->line, 2);
  EXPECT_NE(d->message.find("layering violation"), std::string::npos);
}

TEST(LayerDag, ConsumerDirectoriesAreUnconstrained) {
  const auto diags = run({
      {"tests/test_widget.cpp",
       "#include \"fl/loop.hpp\"\n"
       "int main() { return 0; }\n"},
      {"src/fl/loop.hpp", "#pragma once\n"},
  });
  EXPECT_EQ(count_rule(diags, "layer-dag"), 0);
}

TEST(LayerDag, SuppressedViolationIsSilent) {
  const auto diags = run({
      {"src/util/timing.hpp",
       "#pragma once\n"
       "// fhdnn-lint: allow(layer-dag)\n"
       "#include \"fl/loop.hpp\"\n"},
      {"src/fl/loop.hpp", "#pragma once\n"},
  });
  EXPECT_EQ(count_rule(diags, "layer-dag"), 0);
}

TEST(LayerDag, SameBandCycleIsReportedOnce) {
  // nn and hdc sit in the same layer band, so neither include edge is an
  // ordering violation — but together they close a cycle, which is.
  const auto diags = run({
      {"src/nn/a.hpp",
       "#pragma once\n"
       "#include \"hdc/b.hpp\"\n"
       "namespace fhdnn::nn { fhdnn::hdc::B make_b(); }\n"},
      {"src/hdc/b.hpp",
       "#pragma once\n"
       "#include \"nn/a.hpp\"\n"
       "namespace fhdnn::hdc { struct B { int make_b; }; }\n"},
  });
  ASSERT_EQ(count_rule(diags, "layer-dag"), 1);
  const auto* d = find_rule(diags, "layer-dag");
  EXPECT_NE(d->message.find("include cycle"), std::string::npos);
  EXPECT_NE(d->message.find("src/nn/a.hpp"), std::string::npos);
  EXPECT_NE(d->message.find("src/hdc/b.hpp"), std::string::npos);
}

TEST(LayerDag, UnknownModuleIsReported) {
  const auto diags = run({
      {"src/mystery/x.hpp",
       "#pragma once\n"
       "#include \"util/timing.hpp\"\n"},
      {"src/util/timing.hpp", "#pragma once\n"},
  });
  ASSERT_EQ(count_rule(diags, "layer-dag"), 1);
  EXPECT_NE(find_rule(diags, "layer-dag")->message.find("layering manifest"),
            std::string::npos);
}

// ---- det-effects ---------------------------------------------------------

TEST(DetEffects, RoundRootReachingWallClockIsViolation) {
  const auto diags = run({
      {"src/fl/eng.cpp",
       "void helper_time() {\n"
       "  auto t = std::chrono::steady_clock::now();\n"
       "}\n"
       "void RoundEngine::round(int r) {\n"
       "  helper_time();\n"
       "}\n"},
  });
  ASSERT_EQ(count_rule(diags, "det-effects"), 1);
  const auto* d = find_rule(diags, "det-effects");
  EXPECT_EQ(d->path, "src/fl/eng.cpp");
  EXPECT_EQ(d->line, 2);
  EXPECT_NE(d->message.find("wall-clock"), std::string::npos);
  EXPECT_NE(d->message.find("round path"), std::string::npos);
  EXPECT_NE(d->message.find("RoundEngine::round -> helper_time"),
            std::string::npos);
}

TEST(DetEffects, HiddenTransitiveAllocationInIntoKernel) {
  // The allocation hides two hops below the `_into` entry point; only the
  // transitive traversal can see it.
  const auto diags = run({
      {"src/hdc/enc.cpp",
       "static float* grow(unsigned n) {\n"
       "  return static_cast<float*>(malloc(n * 4));\n"
       "}\n"
       "static float* scratch(unsigned n) {\n"
       "  return grow(n);\n"
       "}\n"
       "void encode_batch_into(float* dst, unsigned n) {\n"
       "  float* tmp = scratch(n);\n"
       "  dst[0] = tmp[0];\n"
       "}\n"},
  });
  ASSERT_EQ(count_rule(diags, "det-effects"), 1);
  const auto* d = find_rule(diags, "det-effects");
  EXPECT_EQ(d->line, 2);
  EXPECT_NE(d->message.find("alloc"), std::string::npos);
  EXPECT_NE(d->message.find("_into kernel"), std::string::npos);
  EXPECT_NE(d->message.find("encode_batch_into -> scratch -> grow"),
            std::string::npos);
}

TEST(DetEffects, UnreachableEffectIsSilent) {
  // An effect in a function no root can reach is per-file rules' business,
  // not det-effects'.
  const auto diags = run({
      {"src/hdc/enc.cpp",
       "void offline_setup() {\n"
       "  void* p = malloc(64);\n"
       "  (void)p;\n"
       "}\n"
       "void encode_batch_into(float* dst) {\n"
       "  dst[0] = 0.0f;\n"
       "}\n"},
  });
  EXPECT_EQ(count_rule(diags, "det-effects"), 0);
}

TEST(DetEffects, RoundPathAllowsAllocationButNotNondet) {
  // Per-round allocation is legitimate on the round path (only `_into`
  // kernels ban alloc); nondeterminism is not.
  const auto diags = run({
      {"src/fl/eng.cpp",
       "void run_client(int cid) {\n"
       "  void* arena = malloc(1024);\n"
       "  (void)arena;\n"
       "  unsigned seed = std::random_device{}();\n"
       "  (void)seed;\n"
       "}\n"},
  });
  ASSERT_EQ(count_rule(diags, "det-effects"), 1);
  const auto* d = find_rule(diags, "det-effects");
  EXPECT_EQ(d->line, 4);
  EXPECT_NE(d->message.find("nondet"), std::string::npos);
}

TEST(DetEffects, WorkspaceAllocationIsExempt) {
  const auto diags = run({
      {"src/util/workspace.cpp",
       "void* workspace_grow(unsigned n) {\n"
       "  return malloc(n);\n"
       "}\n"},
      {"src/hdc/enc.cpp",
       "void encode_batch_into(float* dst, unsigned n) {\n"
       "  dst[0] = *static_cast<float*>(workspace_grow(n));\n"
       "}\n"},
  });
  EXPECT_EQ(count_rule(diags, "det-effects"), 0);
}

TEST(DetEffects, SuppressedViolationIsSilent) {
  const auto diags = run({
      {"src/fl/eng.cpp",
       "void RoundEngine::round(int r) {\n"
       "  // fhdnn-lint: allow(det-effects)\n"
       "  auto t = std::chrono::steady_clock::now();\n"
       "}\n"},
  });
  EXPECT_EQ(count_rule(diags, "det-effects"), 0);
}

// ---- include-graph-hygiene -----------------------------------------------

TEST(IncludeGraphHygiene, UnusedHeaderIsViolation) {
  const auto diags = run({
      {"src/fl/a.cpp",
       "#include \"util/helpers.hpp\"\n"
       "int local_work() { return 7; }\n"},
      {"src/util/helpers.hpp",
       "#pragma once\n"
       "int helper_fn();\n"
       "struct HelperState { int x; };\n"},
  });
  ASSERT_EQ(count_rule(diags, "include-graph-hygiene"), 1);
  const auto* d = find_rule(diags, "include-graph-hygiene");
  EXPECT_EQ(d->path, "src/fl/a.cpp");
  EXPECT_EQ(d->line, 1);
  EXPECT_NE(d->message.find("none of its"), std::string::npos);
}

TEST(IncludeGraphHygiene, QualifiedUseCounts) {
  // `util::HelperState` must register as a use of HelperState even though
  // the per-file token matcher rejects ':' on the left boundary.
  const auto diags = run({
      {"src/fl/a.cpp",
       "#include \"util/helpers.hpp\"\n"
       "int local_work() { util::HelperState s{3}; return s.x; }\n"},
      {"src/util/helpers.hpp",
       "#pragma once\n"
       "int helper_fn();\n"
       "struct HelperState { int x; };\n"},
  });
  EXPECT_EQ(count_rule(diags, "include-graph-hygiene"), 0);
}

TEST(IncludeGraphHygiene, OwnHeaderIsNeverUnused) {
  const auto diags = run({
      {"src/fl/a.cpp",
       "#include \"fl/a.hpp\"\n"
       "int local_work() { return 7; }\n"},
      {"src/fl/a.hpp",
       "#pragma once\n"
       "int exported_entry();\n"},
  });
  EXPECT_EQ(count_rule(diags, "include-graph-hygiene"), 0);
}

TEST(IncludeGraphHygiene, TuPrivateHeaderCrossingModuleIsViolation) {
  const auto diags = run({
      {"src/fl/b.cpp",
       "#include \"hdc/detail/simd.hpp\"\n"
       "int local_work() { return simd_width(); }\n"},
      {"src/hdc/detail/simd.hpp",
       "#pragma once\n"
       "int simd_width();\n"},
  });
  ASSERT_EQ(count_rule(diags, "include-graph-hygiene"), 1);
  const auto* d = find_rule(diags, "include-graph-hygiene");
  EXPECT_NE(d->message.find("TU-private"), std::string::npos);
  EXPECT_NE(d->message.find("module boundary"), std::string::npos);
}

TEST(IncludeGraphHygiene, TuPrivateHeaderWithinModuleIsFine) {
  const auto diags = run({
      {"src/hdc/encoder.cpp",
       "#include \"hdc/detail/simd.hpp\"\n"
       "int local_work() { return simd_width(); }\n"},
      {"src/hdc/detail/simd.hpp",
       "#pragma once\n"
       "int simd_width();\n"},
  });
  EXPECT_EQ(count_rule(diags, "include-graph-hygiene"), 0);
}

TEST(IncludeGraphHygiene, SuppressedViolationIsSilent) {
  const auto diags = run({
      {"src/fl/a.cpp",
       "// umbrella forward, on purpose\n"
       "// fhdnn-lint: allow(include-graph-hygiene)\n"
       "#include \"util/helpers.hpp\"\n"
       "int local_work() { return 7; }\n"},
      {"src/util/helpers.hpp",
       "#pragma once\n"
       "int helper_fn();\n"},
  });
  EXPECT_EQ(count_rule(diags, "include-graph-hygiene"), 0);
}

// ---- test-only-api -------------------------------------------------------

namespace {

const Sources kWidgetApi = {
    {"src/fl/widget.hpp",
     "#pragma once\n"
     "namespace fhdnn::fl {\n"
     "struct Widget {\n"
     "  int tick(int n) const;\n"
     "  int size() const {\n"
     "    std::lock_guard<std::mutex> lock(mu_);\n"
     "    return n_;\n"
     "  }\n"
     "};\n"
     "}  // namespace fhdnn::fl\n"},
    {"src/fl/widget.cpp",
     "#include \"fl/widget.hpp\"\n"
     "namespace fhdnn::fl {\n"
     "int Widget::tick(int n) const {\n"
     "  return n + size();\n"
     "}\n"
     "}  // namespace fhdnn::fl\n"},
};

Sources with(Sources sources, std::string path, std::string content) {
  sources.emplace_back(std::move(path), std::move(content));
  return sources;
}

}  // namespace

TEST(TestOnlyApi, HeaderFunctionCalledOnlyFromTestsIsViolation) {
  // Neither its own out-of-line definition nor the test's call counts; the
  // RAII local `lock(mu_)` inside an inline body is not API.
  const auto diags =
      run(with(kWidgetApi, "tests/test_widget.cpp",
               "#include \"fl/widget.hpp\"\n"
               "int main() { return fhdnn::fl::Widget{}.tick(2); }\n"));
  ASSERT_EQ(count_rule(diags, "test-only-api"), 1);
  const auto* d = find_rule(diags, "test-only-api");
  EXPECT_EQ(d->path, "src/fl/widget.hpp");
  EXPECT_EQ(d->line, 4);
  EXPECT_NE(d->message.find("'tick'"), std::string::npos);
}

TEST(TestOnlyApi, FunctionWithNoCallerIsViolation) {
  const auto diags = run(kWidgetApi);
  ASSERT_EQ(count_rule(diags, "test-only-api"), 1);
  EXPECT_EQ(find_rule(diags, "test-only-api")->line, 4);
}

TEST(TestOnlyApi, ProductionReferenceFromAnyConsumerDirectoryCounts) {
  for (const std::string path :
       {"src/core/run.cpp", "tools/fhdnnd/main.cpp", "bench/micro_widget.cpp",
        "examples/widget.cpp", "perfbench/src/workload_widget.cpp"}) {
    const auto diags =
        run(with(kWidgetApi, path,
                 "#include \"fl/widget.hpp\"\n"
                 "int drive(const fhdnn::fl::Widget& w) {\n"
                 "  return w.tick(5);\n"
                 "}\n"));
    EXPECT_EQ(count_rule(diags, "test-only-api"), 0) << path;
  }
}

TEST(TestOnlyApi, ReferenceThatIsNotACallCounts) {
  // The comparator case: std::sort(..., event_before) names the function
  // without calling it.
  const auto diags = run({
      {"src/fl/events.hpp",
       "#pragma once\n"
       "bool event_before(const Event& a, const Event& b);\n"},
      {"src/fl/events.cpp",
       "#include \"fl/events.hpp\"\n"
       "bool event_before(const Event& a, const Event& b) {\n"
       "  return a.t < b.t;\n"
       "}\n"
       "void order(std::vector<Event>& q) {\n"
       "  std::sort(q.begin(), q.end(), event_before);\n"
       "}\n"},
  });
  EXPECT_EQ(count_rule(diags, "test-only-api"), 0);
}

TEST(TestOnlyApi, SuppressedViolationIsSilent) {
  const auto diags = run({
      {"src/net/fake.hpp",
       "#pragma once\n"
       "// fhdnn-lint: allow(test-only-api) in-process fake for the tests\n"
       "Connection make_fake_pair();\n"},
  });
  EXPECT_EQ(count_rule(diags, "test-only-api"), 0);
}

TEST(TestOnlyApi, PerfbenchIsReadButNeverReported) {
  // perfbench/src/ is the benchmark's own tree, not the library's src/: it
  // is neither a layering module nor API, and no rule anchors a finding in
  // it (here: an unused include), yet its call keeps `tick` alive.
  const auto diags =
      run(with(with(kWidgetApi, "perfbench/src/workload_widget.cpp",
                    "#include \"fl/widget.hpp\"\n"
                    "#include \"util/helpers.hpp\"\n"
                    "int drive(const fhdnn::fl::Widget& w) {\n"
                    "  return w.tick(5);\n"
                    "}\n"),
               "src/util/helpers.hpp",
               "#pragma once\n"
               "// fhdnn-lint: allow(test-only-api)\n"
               "int helper_fn();\n"));
  EXPECT_TRUE(diags.empty())
      << diags.front().path << ": " << diags.front().rule;
}

// ---- --json schema -------------------------------------------------------

TEST(LintJson, SchemaAndEscaping) {
  std::vector<lint::Diagnostic> diags;
  diags.push_back({"src/util/timing.hpp", 2, "layer-dag",
                   "layering violation: \"quoted\" and \\slash"});
  const std::string json = lint::diagnostics_json(diags, 5);
  EXPECT_NE(json.find("\"version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"files\":5"), std::string::npos);
  EXPECT_NE(json.find("\"path\":\"src/util/timing.hpp\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":2"), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"layer-dag\""), std::string::npos);
  // Quotes and backslashes inside messages must be escaped.
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\\\\slash"), std::string::npos);
}

TEST(LintJson, EmptyDiagnostics) {
  const std::string json = lint::diagnostics_json({}, 3);
  EXPECT_NE(json.find("\"files\":3"), std::string::npos);
  EXPECT_NE(json.find("\"diagnostics\":[]"), std::string::npos);
}

TEST(LintJson, EndToEndFromFixtures) {
  const auto diags = run({
      {"src/util/timing.hpp",
       "#pragma once\n"
       "#include \"fl/loop.hpp\"\n"},
      {"src/fl/loop.hpp", "#pragma once\n"},
  });
  const std::string json = lint::diagnostics_json(diags, 2);
  EXPECT_NE(json.find("\"rule\":\"layer-dag\""), std::string::npos);
  EXPECT_NE(json.find("\"files\":2"), std::string::npos);
}
