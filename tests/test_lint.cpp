// Unit tests for fhdnn-lint (tools/lint): every built-in rule is exercised
// against embedded fixture sources with at least one positive (violating)
// case and one suppressed case, plus scanner/token-matcher edge cases.
//
// Fixtures are raw string literals; the linter's own comment/string
// stripper blanks literal contents before token matching, which is also
// why this file does not flag itself when the tree lint runs over tests/.
#include "lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace lint = fhdnn::lint;

namespace {

std::vector<lint::Diagnostic> run(std::string path, std::string_view src) {
  static const auto rules = lint::default_rules();
  return lint::lint_source(std::move(path), src, rules);
}

int count_rule(const std::vector<lint::Diagnostic>& diags,
               std::string_view rule) {
  return static_cast<int>(
      std::count_if(diags.begin(), diags.end(),
                    [&](const lint::Diagnostic& d) { return d.rule == rule; }));
}

}  // namespace

TEST(LintScanner, StripsCommentsAndStrings) {
  const auto f = lint::scan_source("src/fl/x.cpp",
                                   "int a; // std::thread in comment\n"
                                   "const char* s = \"std::thread\";\n"
                                   "std::thread t;\n");
  EXPECT_FALSE(lint::has_token(f.code[0], "std::thread"));
  EXPECT_FALSE(lint::has_token(f.code[1], "std::thread"));
  EXPECT_TRUE(lint::has_token(f.code[2], "std::thread"));
  // Comment text is preserved separately for doc-comment rules.
  EXPECT_NE(f.comment[0].find("comment"), std::string::npos);
}

TEST(LintScanner, HandlesBlockCommentsAndRawStrings) {
  const auto f = lint::scan_source("src/fl/x.cpp",
                                   "/* std::thread\n"
                                   "   still comment */ int a;\n"
                                   "auto s = R\"(std::thread)\";\n");
  EXPECT_FALSE(lint::has_token(f.code[0], "std::thread"));
  EXPECT_FALSE(lint::has_token(f.code[1], "std::thread"));
  EXPECT_TRUE(lint::has_token(f.code[1], "int"));
  EXPECT_FALSE(lint::has_token(f.code[2], "std::thread"));
}

TEST(LintScanner, TokenBoundaries) {
  // `Tensor::rand` must not match a ban on `rand`; `srand` must not match
  // `rand` either, but a standalone `rand` does.
  EXPECT_FALSE(lint::has_token("Tensor::rand(shape)", "rand"));
  EXPECT_FALSE(lint::has_token("srand(1)", "rand"));
  EXPECT_FALSE(lint::has_token("randint(0, 5)", "rand"));
  EXPECT_TRUE(lint::has_token("rand()", "rand"));
  EXPECT_TRUE(lint::has_token("std::thread t;", "std::thread"));
  EXPECT_FALSE(lint::has_token("mystd::thread t;", "std::thread"));
}

// ---- raw-thread ----------------------------------------------------------

TEST(LintRules, RawThreadPositive) {
  const auto d = run("src/fl/worker.cpp", "std::thread t([] {});\n");
  EXPECT_EQ(count_rule(d, "raw-thread"), 1);
  const auto a = run("src/core/x.cpp", "auto f = std::async(g);\n");
  EXPECT_EQ(count_rule(a, "raw-thread"), 1);
}

TEST(LintRules, RawThreadSuppressedAndExempt) {
  const auto d = run("src/fl/worker.cpp",
                     "// fhdnn-lint: allow(raw-thread)\n"
                     "std::thread t([] {});\n");
  EXPECT_EQ(count_rule(d, "raw-thread"), 0);
  const auto same_line = run("src/fl/worker.cpp",
                             "std::thread t;  // fhdnn-lint: allow(raw-thread)\n");
  EXPECT_EQ(count_rule(same_line, "raw-thread"), 0);
  // util/parallel is the one place raw threads are the point.
  const auto exempt = run("src/util/parallel.cpp", "std::thread t([] {});\n");
  EXPECT_EQ(count_rule(exempt, "raw-thread"), 0);
}

TEST(LintRules, AllowAboveMultiLineDeclarationCoversEveryLine) {
  // The diagnostic lands on the std::thread line, two lines below the
  // allow() comment; the suppression must walk up to the declaration's
  // first line instead of stranding at line - 1.
  const auto d = run("src/fl/worker.cpp",
                     "// fhdnn-lint: allow(raw-thread)\n"
                     "auto worker =\n"
                     "    std::make_unique<\n"
                     "        std::thread>([] {});\n");
  EXPECT_EQ(count_rule(d, "raw-thread"), 0);
  // A terminated statement above fences the walk: the same comment must
  // NOT leak past a ';' onto an unrelated later declaration.
  const auto fenced = run("src/fl/worker.cpp",
                          "// fhdnn-lint: allow(raw-thread)\n"
                          "int unrelated = 0;\n"
                          "std::thread t([] {});\n");
  EXPECT_EQ(count_rule(fenced, "raw-thread"), 1);
}

// ---- nondet-rng ----------------------------------------------------------

TEST(LintRules, NondetRngPositive) {
  const auto d = run("src/data/x.cpp",
                     "std::random_device rd;\n"
                     "std::mt19937 gen(rd());\n"
                     "srand(42);\n");
  EXPECT_EQ(count_rule(d, "nondet-rng"), 3);
}

TEST(LintRules, NondetRngSuppressedAndExempt) {
  const auto d = run("src/data/x.cpp",
                     "// fhdnn-lint: allow(nondet-rng)\n"
                     "std::random_device rd;\n");
  EXPECT_EQ(count_rule(d, "nondet-rng"), 0);
  const auto exempt = run("src/util/rng.cpp", "std::mt19937 gen;\n");
  EXPECT_EQ(count_rule(exempt, "nondet-rng"), 0);
  // Tensor::rand and fhdnn::Rng draws are fine.
  const auto ok = run("src/data/x.cpp",
                      "auto t = Tensor::rand(shape, rng);\n"
                      "auto i = rng.randint(0, 5);\n");
  EXPECT_EQ(count_rule(ok, "nondet-rng"), 0);
}

// ---- unordered-container -------------------------------------------------

TEST(LintRules, UnorderedContainerPositive) {
  const auto d = run("src/fl/agg.cpp",
                     "std::unordered_map<int, float> acc;\n");
  EXPECT_EQ(count_rule(d, "unordered-container"), 1);
  const auto h = run("src/hdc/x.hpp", "std::unordered_set<int> seen;\n");
  EXPECT_EQ(count_rule(h, "unordered-container"), 1);
}

TEST(LintRules, UnorderedContainerSuppressedAndOutOfScope) {
  const auto d = run("src/fl/agg.cpp",
                     "// lookup only, never iterated\n"
                     "// fhdnn-lint: allow(unordered-container)\n"
                     "std::unordered_map<int, float> acc;\n");
  EXPECT_EQ(count_rule(d, "unordered-container"), 0);
  // Outside the deterministic aggregation dirs the rule does not apply.
  const auto ok = run("src/util/x.cpp", "std::unordered_map<int, int> m;\n");
  EXPECT_EQ(count_rule(ok, "unordered-container"), 0);
}

// ---- simd-isolation ------------------------------------------------------

TEST(LintRules, SimdIsolationPositive) {
  const auto d = run("src/hdc/packed.cpp", "#include <immintrin.h>\n");
  EXPECT_EQ(count_rule(d, "simd-isolation"), 1);
  const auto n = run("bench/micro_packed_hd.cpp", "#include <arm_neon.h>\n");
  EXPECT_EQ(count_rule(n, "simd-isolation"), 1);
}

TEST(LintRules, SimdIsolationExemptAndSuppressed) {
  // The per-tier TUs are where intrinsics belong.
  const auto avx = run("src/util/simd_avx2.cpp", "#include <immintrin.h>\n");
  EXPECT_EQ(count_rule(avx, "simd-isolation"), 0);
  const auto neon = run("src/util/simd_neon.cpp", "#include <arm_neon.h>\n");
  EXPECT_EQ(count_rule(neon, "simd-isolation"), 0);
  const auto allowed = run("src/hdc/packed.cpp",
                           "// fhdnn-lint: allow(simd-isolation)\n"
                           "#include <immintrin.h>\n");
  EXPECT_EQ(count_rule(allowed, "simd-isolation"), 0);
}

// ---- arena-discipline ----------------------------------------------------

TEST(LintRules, ArenaDisciplinePositive) {
  const auto d = run("src/tensor/x.cpp",
                     "void scale_into(ConstTensorView a, TensorView out) {\n"
                     "  Tensor tmp(a_shape);\n"
                     "  auto p = std::make_unique<float[]>(8);\n"
                     "}\n");
  EXPECT_EQ(count_rule(d, "arena-discipline"), 2);
}

TEST(LintRules, ArenaDisciplineForwardBodies) {
  const auto d = run("src/nn/x.cpp",
                     "const Tensor& Linear::forward(const Tensor& x) {\n"
                     "  float* raw = new float[16];\n"
                     "  return out_;\n"
                     "}\n");
  EXPECT_EQ(count_rule(d, "arena-discipline"), 1);
  // forward/backward bodies outside src/nn/ are not in scope.
  const auto ok = run("src/core/x.cpp",
                      "double forward(const Tensor& x) {\n"
                      "  Tensor tmp(x.shape());\n"
                      "  return tmp.sum();\n"
                      "}\n");
  EXPECT_EQ(count_rule(ok, "arena-discipline"), 0);
}

TEST(LintRules, ArenaDisciplineAllowsReferencesAndWrappers) {
  // References, view params, and calls are not constructions; and the
  // value-returning wrapper (no _into suffix) may allocate by design.
  const auto ok = run("src/tensor/x.cpp",
                      "void relu_into(ConstTensorView x, TensorView out) {\n"
                      "  const Tensor& ref = cache_;\n"
                      "  other_into(x, out);\n"
                      "}\n"
                      "Tensor relu(const Tensor& x) {\n"
                      "  Tensor y(x.shape());\n"
                      "  relu_into(x, y);\n"
                      "  return y;\n"
                      "}\n");
  EXPECT_EQ(count_rule(ok, "arena-discipline"), 0);
}

TEST(LintRules, ArenaDisciplineSuppressed) {
  const auto d = run("src/tensor/x.cpp",
                     "void warmup_into(ConstTensorView a, TensorView out) {\n"
                     "  // one-time warmup growth, measured by test_memory\n"
                     "  // fhdnn-lint: allow(arena-discipline)\n"
                     "  Tensor tmp(a_shape);\n"
                     "}\n");
  EXPECT_EQ(count_rule(d, "arena-discipline"), 0);
}

// ---- into-alias-doc ------------------------------------------------------

TEST(LintRules, IntoAliasDocPositive) {
  const auto d = run("src/tensor/x.hpp",
                     "#pragma once\n"
                     "\n"
                     "/// c = a + b.\n"
                     "void add_into(ConstTensorView a, TensorView out);\n");
  EXPECT_EQ(count_rule(d, "into-alias-doc"), 1);
}

TEST(LintRules, IntoAliasDocSatisfiedAndSuppressed) {
  const auto ok = run("src/tensor/x.hpp",
                      "#pragma once\n"
                      "\n"
                      "/// c = a + b. Aliasing: out may alias a.\n"
                      "Tensor add(const Tensor& a);\n"
                      "void add_into(ConstTensorView a, TensorView out);\n");
  EXPECT_EQ(count_rule(ok, "into-alias-doc"), 0);
  const auto sup = run("src/tensor/x.hpp",
                       "#pragma once\n"
                       "\n"
                       "// fhdnn-lint: allow(into-alias-doc)\n"
                       "void add_into(ConstTensorView a, TensorView out);\n");
  EXPECT_EQ(count_rule(sup, "into-alias-doc"), 0);
  // Definitions in .cpp files need no doc comment.
  const auto cpp = run("src/tensor/x.cpp",
                       "void add_into(ConstTensorView a, TensorView out) {\n"
                       "}\n");
  EXPECT_EQ(count_rule(cpp, "into-alias-doc"), 0);
}

// ---- pragma-once ---------------------------------------------------------

TEST(LintRules, PragmaOncePositive) {
  const auto d = run("src/util/x.hpp", "#include <vector>\nint a;\n");
  EXPECT_EQ(count_rule(d, "pragma-once"), 1);
  const auto empty = run("src/util/y.hpp", "// only a comment\n");
  EXPECT_EQ(count_rule(empty, "pragma-once"), 1);
}

TEST(LintRules, PragmaOnceSatisfiedAndSuppressed) {
  const auto ok = run("src/util/x.hpp",
                      "// leading comment is fine\n"
                      "#pragma once\n"
                      "#include <vector>\n");
  EXPECT_EQ(count_rule(ok, "pragma-once"), 0);
  const auto sup = run("src/util/x.hpp",
                       "// fhdnn-lint: allow(pragma-once)\n"
                       "#include <vector>\n");
  EXPECT_EQ(count_rule(sup, "pragma-once"), 0);
  const auto cpp = run("src/util/x.cpp", "#include <vector>\n");
  EXPECT_EQ(count_rule(cpp, "pragma-once"), 0);
}

// ---- include-style -------------------------------------------------------

TEST(LintRules, IncludeStylePositive) {
  const auto d = run("src/fl/x.cpp", "#include <tensor/ops.hpp>\n");
  EXPECT_EQ(count_rule(d, "include-style"), 1);
}

TEST(LintRules, IncludeStyleSatisfiedAndSuppressed) {
  const auto ok = run("src/fl/x.cpp",
                      "#include \"tensor/ops.hpp\"\n"
                      "#include <vector>\n");
  EXPECT_EQ(count_rule(ok, "include-style"), 0);
  const auto sup = run("src/fl/x.cpp",
                       "// fhdnn-lint: allow(include-style)\n"
                       "#include <tensor/ops.hpp>\n");
  EXPECT_EQ(count_rule(sup, "include-style"), 0);
}

// ---- self-include-first --------------------------------------------------

TEST(LintRules, SelfIncludeFirstPositive) {
  const auto d = run("src/tensor/ops.cpp",
                     "#include <vector>\n"
                     "#include \"tensor/ops.hpp\"\n");
  EXPECT_EQ(count_rule(d, "self-include-first"), 1);
}

TEST(LintRules, SelfIncludeFirstSatisfiedAndSuppressed) {
  const auto ok = run("src/tensor/ops.cpp",
                      "#include \"tensor/ops.hpp\"\n"
                      "\n"
                      "#include <vector>\n");
  EXPECT_EQ(count_rule(ok, "self-include-first"), 0);
  const auto sup = run("src/tensor/ops.cpp",
                       "#include <vector>\n"
                       "// fhdnn-lint: allow(self-include-first)\n"
                       "#include \"tensor/ops.hpp\"\n");
  EXPECT_EQ(count_rule(sup, "self-include-first"), 0);
  // Files that never include their own header are out of scope.
  const auto none = run("tests/test_x.cpp", "#include <vector>\n");
  EXPECT_EQ(count_rule(none, "self-include-first"), 0);
}

// ---- sim-clock -----------------------------------------------------------

TEST(LintRules, SimClockPositive) {
  const auto d = run("src/fl/engine.cpp",
                     "auto t0 = std::chrono::steady_clock::now();\n");
  EXPECT_EQ(count_rule(d, "sim-clock"), 1);
  const auto sys = run("src/fl/timeline.cpp",
                       "auto t = std::chrono::system_clock::now();\n"
                       "auto h = std::chrono::high_resolution_clock::now();\n");
  EXPECT_EQ(count_rule(sys, "sim-clock"), 2);
}

TEST(LintRules, SimClockSuppressedAndOutOfScope) {
  // The sanctioned wall_seconds measurement sites carry inline allow()s.
  const auto sup = run("src/fl/engine.cpp",
                       "// fhdnn-lint: allow(sim-clock)\n"
                       "auto t0 = std::chrono::steady_clock::now();\n");
  EXPECT_EQ(count_rule(sup, "sim-clock"), 0);
  // Outside src/fl/ wall clocks are fine (benches, kernels, tests).
  const auto bench = run("bench/micro_memory.cpp",
                         "auto t0 = std::chrono::steady_clock::now();\n");
  EXPECT_EQ(count_rule(bench, "sim-clock"), 0);
  const auto util = run("src/util/log.cpp",
                        "auto t = std::chrono::system_clock::now();\n");
  EXPECT_EQ(count_rule(util, "sim-clock"), 0);
  // Durations and chrono types that read no clock are fine even in fl/.
  const auto dur = run("src/fl/engine.cpp",
                       "std::chrono::duration<double> d(seconds);\n");
  EXPECT_EQ(count_rule(dur, "sim-clock"), 0);
}

// ---- io-isolation --------------------------------------------------------

TEST(LintRules, IoIsolationPositive) {
  const auto d = run("src/fl/engine.cpp",
                     "std::ofstream os(path);\n"
                     "FILE* f = fopen(path.c_str(), \"wb\");\n"
                     "fwrite(buf, 1, n, f);\n");
  EXPECT_EQ(count_rule(d, "io-isolation"), 3);
  const auto fs = run("src/fl/history.cpp", "std::fstream io(path);\n");
  EXPECT_EQ(count_rule(fs, "io-isolation"), 1);
}

TEST(LintRules, IoIsolationSuppressedAndOutOfScope) {
  // A documented site may carry an inline allow().
  const auto sup = run("src/fl/engine.cpp",
                       "// fhdnn-lint: allow(io-isolation)\n"
                       "std::ofstream os(path);\n");
  EXPECT_EQ(count_rule(sup, "io-isolation"), 0);
  // The snapshot writer itself and everything outside src/fl/ are free to
  // open files (bench JSON, tests).
  const auto util = run("src/util/snapshot.cpp", "std::ofstream os(tmp);\n");
  EXPECT_EQ(count_rule(util, "io-isolation"), 0);
  const auto bench = run("bench/micro_memory.cpp",
                         "std::ofstream json(json_path);\n");
  EXPECT_EQ(count_rule(bench, "io-isolation"), 0);
  // Reads are not writes: ifstream stays legal inside src/fl/.
  const auto read = run("src/fl/engine.cpp", "std::ifstream is(path);\n");
  EXPECT_EQ(count_rule(read, "io-isolation"), 0);
}

TEST(LintRules, NetIsolationPositive) {
  // OS networking headers and epoll syscalls outside src/net/.
  const auto d = run("src/fl/serving.cpp",
                     "#include <sys/socket.h>\n"
                     "#include <netinet/tcp.h>\n"
                     "int e = epoll_create1(0);\n");
  EXPECT_EQ(count_rule(d, "net-isolation"), 3);
  const auto tool = run("tools/fhdnnd/fhdnnd.cpp",
                        "#include <sys/epoll.h>\n");
  EXPECT_EQ(count_rule(tool, "net-isolation"), 1);
  const auto hdr = run("src/channel/arq.cpp", "#include <poll.h>\n");
  EXPECT_EQ(count_rule(hdr, "net-isolation"), 1);
}

TEST(LintRules, NetIsolationSuppressedAndExempt) {
  // src/net/ is the one place OS networking lives.
  const auto net = run("src/net/socket.cpp",
                       "#include <sys/socket.h>\n"
                       "#include <arpa/inet.h>\n"
                       "int c = accept4(fd, nullptr, nullptr, 0);\n");
  EXPECT_EQ(count_rule(net, "net-isolation"), 0);
  const auto sup = run("src/fl/x.cpp",
                       "// fhdnn-lint: allow(net-isolation)\n"
                       "#include <sys/socket.h>\n");
  EXPECT_EQ(count_rule(sup, "net-isolation"), 0);
  // Token boundaries: <netinet/in.h> must not double-report for the
  // "netdb.h" or "poll.h" tokens; "epoll.h" inside sys/epoll.h must not
  // also match "poll.h".
  const auto one = run("src/fl/x.cpp", "#include <sys/epoll.h>\n");
  EXPECT_EQ(count_rule(one, "net-isolation"), 1);
}

TEST(LintRules, IncludeStyleCoversWireAndNet) {
  const auto d = run("src/fl/serving.cpp",
                     "#include <wire/messages.hpp>\n"
                     "#include <net/connection.hpp>\n"
                     "#include <netinet/in.h>  // fhdnn-lint: allow(net-isolation)\n");
  EXPECT_EQ(count_rule(d, "include-style"), 2);
}

// ---- framework behaviour -------------------------------------------------

TEST(LintFramework, SuppressionIsPerRule) {
  // An allow() for one rule must not silence another on the same line.
  const auto d = run("src/fl/x.cpp",
                     "// fhdnn-lint: allow(nondet-rng)\n"
                     "std::thread t;\n");
  EXPECT_EQ(count_rule(d, "raw-thread"), 1);
}

TEST(LintFramework, DiagnosticCarriesLocation) {
  const auto d = run("src/fl/x.cpp", "int a;\nstd::thread t;\n");
  ASSERT_EQ(d.size(), 1U);
  EXPECT_EQ(d[0].path, "src/fl/x.cpp");
  EXPECT_EQ(d[0].line, 2);
  EXPECT_EQ(d[0].rule, "raw-thread");
}

TEST(LintFramework, DefaultRulesCatalog) {
  const auto rules = lint::default_rules();
  EXPECT_GE(rules.size(), 6U);
  for (const auto& r : rules) {
    EXPECT_FALSE(r->name().empty());
    EXPECT_FALSE(r->description().empty());
  }
}

TEST(LintFramework, AbsolutePathsMapToRepoPaths) {
  // The tree lint passes absolute paths; path-scoped rules must still fire.
  const auto d = run("/root/repo/src/fl/x.cpp",
                     "std::unordered_map<int, int> m;\n");
  EXPECT_EQ(count_rule(d, "unordered-container"), 1);
}
