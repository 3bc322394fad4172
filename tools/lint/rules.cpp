// Built-in rule catalog for fhdnn-lint (see lint.hpp for the framework and
// DESIGN.md §10 for the contract each rule protects).
//
// Every rule here guards an invariant that PRs 1–4 paid for and that the
// compiler cannot see:
//   raw-thread          bit-identical histories at any thread count require
//                       all concurrency to flow through util/parallel
//   nondet-rng          reproducibility requires every random draw to come
//                       from seeded fhdnn::Rng streams (util/rng)
//   unordered-container aggregation paths in fl/, hdc/, channel/ must not
//                       iterate containers with unspecified order
//   arena-discipline    `_into` kernels and Module::forward/backward bodies
//                       are the zero-allocation steady state: no Tensor
//                       construction, new, make_unique/shared, or malloc
//   into-alias-doc      every `_into` kernel declaration documents whether
//                       its output may alias an input
//   simd-isolation      CPU intrinsics live only in the per-tier
//                       src/util/simd* translation units; everything else
//                       goes through the util/simd dispatch table
//   pragma-once         headers open with #pragma once
//   include-style       project headers are included with quotes, not <>
//   self-include-first  a .cpp that includes its own header includes it
//                       before anything else
//   sim-clock           src/fl/ runs on the engine's simulated event clock;
//                       wall-clock reads (std::chrono system/steady clocks)
//                       are confined to the documented wall_seconds
//                       measurement sites (suppressed inline)
//   io-isolation        src/fl/ persists state only through the
//                       crash-consistent util/snapshot writer (atomic
//                       commit + CRC framing); raw file writes there could
//                       tear and violate the kill-and-resume contract
//   net-isolation       OS networking (socket/epoll/poll headers, epoll
//                       syscalls) is confined to src/net/ behind the
//                       Connection seam; everything else speaks
//                       fhdnn::net
#include "lint.hpp"

#include <array>
#include <cctype>
#include <string>

namespace fhdnn::lint {

namespace {

bool path_starts_with(const SourceFile& f, std::string_view prefix) {
  return f.repo_path().starts_with(prefix);
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

bool line_blank(const SourceFile& f, std::size_t l) {
  return trim(f.raw[l]).empty();
}

/// Flag a fixed token list everywhere except under `exempt` path prefixes.
class TokenBanRule : public Rule {
 public:
  TokenBanRule(std::string name, std::string description,
               std::vector<std::string> tokens,
               std::vector<std::string> exempt_prefixes,
               std::vector<std::string> only_prefixes = {})
      : name_(std::move(name)),
        description_(std::move(description)),
        tokens_(std::move(tokens)),
        exempt_(std::move(exempt_prefixes)),
        only_(std::move(only_prefixes)) {}

  std::string_view name() const override { return name_; }
  std::string_view description() const override { return description_; }

  void check(const SourceFile& f, Diagnostics& diags) const override {
    for (const auto& prefix : exempt_) {
      if (path_starts_with(f, prefix)) return;
    }
    if (!only_.empty()) {
      bool in_scope = false;
      for (const auto& prefix : only_) {
        in_scope = in_scope || path_starts_with(f, prefix);
      }
      if (!in_scope) return;
    }
    for (std::size_t l = 0; l < f.code.size(); ++l) {
      for (const auto& token : tokens_) {
        if (has_token(f.code[l], token)) {
          diags.report(name_, static_cast<int>(l) + 1,
                       "'" + token + "' " + why_);
        }
      }
    }
  }

  TokenBanRule& why(std::string text) {
    why_ = std::move(text);
    return *this;
  }

 private:
  std::string name_;
  std::string description_;
  std::vector<std::string> tokens_;
  std::vector<std::string> exempt_;
  std::vector<std::string> only_;
  std::string why_ = "is banned here";
};

// ---- arena-discipline: function-body scanning ----------------------------
// (cursor helpers Pos/skip_space/skip_balanced/ident_at live in lint.cpp,
// shared with the whole-program extractor in graph.cpp)

/// Tokens that may never appear inside an arena-disciplined body.
constexpr std::array<std::string_view, 6> kArenaBanned = {
    "new",  "make_unique", "make_shared", "malloc", "calloc", "realloc"};

class ArenaDisciplineRule : public Rule {
 public:
  std::string_view name() const override { return "arena-discipline"; }
  std::string_view description() const override {
    return "no Tensor construction, new, make_unique/make_shared, or malloc "
           "inside `_into` kernel bodies or nn Module forward/backward "
           "bodies (zero-allocation steady state, DESIGN.md §9)";
  }

  void check(const SourceFile& f, Diagnostics& diags) const override {
    if (!path_starts_with(f, "src/")) return;
    const bool nn_file = path_starts_with(f, "src/nn/");
    for (std::size_t l = 0; l < f.code.size(); ++l) {
      const std::string& code = f.code[l];
      for (std::size_t c = 0; c < code.size(); ++c) {
        const std::string_view tok = ident_at(code, c);
        if (tok.empty()) continue;
        const bool candidate =
            (tok.size() > 5 && tok.ends_with("_into")) ||
            (nn_file && (tok == "forward" || tok == "backward"));
        if (candidate) {
          scan_candidate(f, diags, std::string(tok),
                         Pos{l, c + tok.size()});
        }
        c += tok.size() - 1;
      }
    }
  }

 private:
  /// `p` sits just past a candidate function name. If what follows is a
  /// parameter list and then a `{` body, lint the body.
  void scan_candidate(const SourceFile& f, Diagnostics& diags,
                      const std::string& func, Pos p) const {
    if (!skip_space(f, p) || char_at(f, p) != '(') return;
    if (!skip_balanced(f, p, '(', ')')) return;
    // Walk specifiers (const, noexcept, override, ...) until the body `{`
    // or a declaration terminator.
    while (skip_space(f, p)) {
      const char c = char_at(f, p);
      if (c == '{') break;
      if (c == ';' || c == '=' || c == ':' || c == ',' || c == ')') return;
      if (!advance(f, p)) return;
    }
    if (p.line >= f.code.size() || char_at(f, p) != '{') return;
    const Pos body_start = p;
    Pos body_end = p;
    if (!skip_balanced(f, body_end, '{', '}')) body_end.line = f.code.size();
    lint_body(f, diags, func, body_start, body_end);
  }

  void lint_body(const SourceFile& f, Diagnostics& diags,
                 const std::string& func, Pos from, Pos to) const {
    for (std::size_t l = from.line; l <= to.line && l < f.code.size(); ++l) {
      const std::string& code = f.code[l];
      const std::size_t c0 = (l == from.line) ? from.col : 0;
      const std::size_t c1 = (l == to.line) ? to.col : code.size();
      for (std::size_t c = c0; c < c1 && c < code.size(); ++c) {
        const std::string_view tok = ident_at(code, c);
        if (tok.empty()) continue;
        const bool qualified = c > 0 && code[c - 1] == ':';
        for (const std::string_view banned : kArenaBanned) {
          // `new` only as a raw keyword; the allocator calls also when
          // std::-qualified.
          if (tok == banned && (banned != "new" || !qualified)) {
            diags.report(name(), static_cast<int>(l) + 1,
                         "'" + std::string(tok) + "' inside " + func +
                             "() body breaks the zero-allocation contract");
          }
        }
        if (tok == "Tensor" && !qualified && constructs_tensor(f, l, c + 6)) {
          diags.report(name(), static_cast<int>(l) + 1,
                       "Tensor constructed inside " + func +
                           "() body; use an ensure_shape'd member buffer or "
                           "workspace scratch");
        }
        c += tok.size() - 1;
      }
    }
  }

  /// True when the token following `Tensor` reads as a construction
  /// (`Tensor t(...)`, `Tensor t{...}`, `Tensor(...)`, `Tensor t =`) rather
  /// than a reference/pointer/template mention.
  bool constructs_tensor(const SourceFile& f, std::size_t line,
                         std::size_t col) const {
    Pos p{line, col};
    if (!skip_space(f, p)) return false;
    char c = char_at(f, p);
    if (c == '(' || c == '{') return true;
    const std::string_view next = ident_at(f.code[p.line], p.col);
    if (next.empty()) return false;  // &, *, >, ::, ), ...
    p.col += next.size();
    if (!skip_space(f, p)) return false;
    c = char_at(f, p);
    return c == '(' || c == '{' || c == '=' || c == ';';
  }
};

// ---- into-alias-doc ------------------------------------------------------

class IntoAliasDocRule : public Rule {
 public:
  std::string_view name() const override { return "into-alias-doc"; }
  std::string_view description() const override {
    return "every `_into` kernel declaration in a src/ header documents its "
           "aliasing contract (the word 'alias' in the doc comment of its "
           "declaration group)";
  }

  void check(const SourceFile& f, Diagnostics& diags) const override {
    if (!f.is_header() || !path_starts_with(f, "src/")) return;
    for (std::size_t l = 0; l < f.code.size(); ++l) {
      const std::string& code = f.code[l];
      for (std::size_t c = 0; c < code.size(); ++c) {
        const std::string_view tok = ident_at(code, c);
        if (tok.empty()) continue;
        if (tok.size() > 5 && tok.ends_with("_into")) {
          Pos p{l, c + tok.size()};
          if (skip_space(f, p) && char_at(f, p) == '(' &&
              !group_mentions_alias(f, l)) {
            diags.report(name(), static_cast<int>(l) + 1,
                         std::string(tok) +
                             " declaration lacks an aliasing contract in its "
                             "doc comment (say whether out may alias inputs)");
          }
        }
        c += tok.size() - 1;
      }
    }
  }

 private:
  /// Collect comment text from the declaration's contiguous non-blank group
  /// (up to 24 lines above) plus the declaration line itself.
  bool group_mentions_alias(const SourceFile& f, std::size_t line) const {
    const auto mentions = [&](std::size_t l) {
      const std::string& s = f.comment[l];
      for (std::size_t i = 0; i + 5 <= s.size(); ++i) {
        if ((s[i] == 'a' || s[i] == 'A') && s.compare(i + 1, 4, "lias") == 0) {
          return true;
        }
      }
      return false;
    };
    if (mentions(line)) return true;
    std::size_t l = line;
    for (int steps = 0; l > 0 && steps < 24; ++steps) {
      --l;
      if (line_blank(f, l)) break;
      if (mentions(l)) return true;
    }
    return false;
  }
};

// ---- header / include hygiene --------------------------------------------

class PragmaOnceRule : public Rule {
 public:
  std::string_view name() const override { return "pragma-once"; }
  std::string_view description() const override {
    return "headers start with #pragma once (first non-comment line)";
  }

  void check(const SourceFile& f, Diagnostics& diags) const override {
    if (!f.is_header()) return;
    for (std::size_t l = 0; l < f.code.size(); ++l) {
      const std::string_view code = trim(f.code[l]);
      if (code.empty()) continue;
      if (code != "#pragma once") {
        diags.report(name(), static_cast<int>(l) + 1,
                     "first non-comment line of a header must be "
                     "'#pragma once'");
      }
      return;
    }
    diags.report(name(), 1, "header has no '#pragma once'");
  }
};

constexpr std::array<std::string_view, 13> kProjectPrefixes = {
    "tensor/", "util/", "nn/",       "hdc/",  "fl/",  "channel/",
    "core/",   "data/", "features/", "perf/", "lint", "wire/",
    "net/"};

class IncludeStyleRule : public Rule {
 public:
  std::string_view name() const override { return "include-style"; }
  std::string_view description() const override {
    return "project headers are included with \"quotes\"; angle brackets are "
           "for system and third-party headers";
  }

  void check(const SourceFile& f, Diagnostics& diags) const override {
    for (std::size_t l = 0; l < f.code.size(); ++l) {
      const std::string_view code = trim(f.code[l]);
      if (!code.starts_with("#include")) continue;
      const std::size_t open = code.find('<');
      if (open == std::string_view::npos) continue;
      const std::size_t close = code.find('>', open);
      if (close == std::string_view::npos) continue;
      const std::string_view target = code.substr(open + 1, close - open - 1);
      for (const std::string_view prefix : kProjectPrefixes) {
        if (target.starts_with(prefix)) {
          diags.report(name(), static_cast<int>(l) + 1,
                       "project header <" + std::string(target) +
                           "> must be included with quotes");
        }
      }
    }
  }
};

class SelfIncludeFirstRule : public Rule {
 public:
  std::string_view name() const override { return "self-include-first"; }
  std::string_view description() const override {
    return "a .cpp file that includes its own header includes it before any "
           "other #include";
  }

  void check(const SourceFile& f, Diagnostics& diags) const override {
    if (!f.path.ends_with(".cpp")) return;
    const std::size_t slash = f.path.rfind('/');
    const std::string stem =
        f.path.substr(slash + 1, f.path.size() - slash - 1 - 4);
    bool first = true;
    for (std::size_t l = 0; l < f.code.size(); ++l) {
      const std::string_view code = trim(f.code[l]);
      if (!code.starts_with("#include")) continue;
      // The include target, either "..." (from raw: code blanks literals)
      // or <...>.
      const std::string_view raw = trim(f.raw[l]);
      const std::size_t q0 = raw.find_first_of("\"<");
      if (q0 == std::string_view::npos) continue;
      const std::size_t q1 = raw.find_first_of("\">", q0 + 1);
      if (q1 == std::string_view::npos) continue;
      const std::string_view target = raw.substr(q0 + 1, q1 - q0 - 1);
      const std::size_t tslash = target.rfind('/');
      const std::string_view fname =
          tslash == std::string_view::npos ? target : target.substr(tslash + 1);
      const bool own =
          fname == stem + ".hpp" || fname == stem + ".h";
      if (own && !first) {
        diags.report(name(), static_cast<int>(l) + 1,
                     "own header '" + std::string(target) +
                         "' must be the first #include");
      }
      if (own) return;  // first include is the own header: fine
      first = false;
    }
  }
};

}  // namespace

std::vector<std::unique_ptr<Rule>> default_rules() {
  std::vector<std::unique_ptr<Rule>> rules;

  {
    auto r = std::make_unique<TokenBanRule>(
        "raw-thread",
        "all concurrency flows through util/parallel (deterministic pool, "
        "bit-identical schedules); no raw std::thread/std::async elsewhere",
        std::vector<std::string>{"std::thread", "std::jthread", "std::async",
                                 "pthread_create"},
        std::vector<std::string>{"src/util/parallel"});
    r->why("spawns threads outside util/parallel; use parallel_for or the "
           "pool so schedules stay deterministic");
    rules.push_back(std::move(r));
  }
  {
    auto r = std::make_unique<TokenBanRule>(
        "nondet-rng",
        "all randomness comes from seeded fhdnn::Rng streams (util/rng); "
        "std::random_device, std:: distributions, srand/std::rand, and "
        "time()-seeding are nondeterministic or platform-dependent",
        std::vector<std::string>{
            "std::random_device", "std::mt19937", "std::mt19937_64",
            "std::minstd_rand", "std::minstd_rand0",
            "std::default_random_engine", "std::uniform_int_distribution",
            "std::uniform_real_distribution", "std::normal_distribution",
            "std::bernoulli_distribution", "std::discrete_distribution",
            "srand", "std::rand"},
        std::vector<std::string>{"src/util/rng"});
    r->why("bypasses the seeded fhdnn::Rng streams; fork a named sub-stream "
           "from the experiment root seed instead");
    rules.push_back(std::move(r));
  }
  {
    auto r = std::make_unique<TokenBanRule>(
        "unordered-container",
        "fl/, hdc/, and channel/ aggregation paths must not use containers "
        "with unspecified iteration order (histories must be bit-identical "
        "across platforms and thread counts)",
        std::vector<std::string>{"std::unordered_map", "std::unordered_set",
                                 "std::unordered_multimap",
                                 "std::unordered_multiset"},
        std::vector<std::string>{},
        std::vector<std::string>{"src/fl/", "src/hdc/", "src/channel/"});
    r->why("has unspecified iteration order; use std::map, a sorted vector, "
           "or index-addressed storage on aggregation paths");
    rules.push_back(std::move(r));
  }
  {
    auto r = std::make_unique<TokenBanRule>(
        "simd-isolation",
        "CPU intrinsics headers (immintrin.h, arm_neon.h, ...) are included "
        "only by the per-tier src/util/simd* translation units; all other "
        "code reaches SIMD through the util/simd kernel table, so the "
        "bit-exactness contract has one enforcement point per tier",
        std::vector<std::string>{"immintrin", "x86intrin", "emmintrin",
                                 "arm_neon", "arm_sve"},
        std::vector<std::string>{"src/util/simd"});
    r->why("pulls CPU intrinsics outside src/util/simd*; add a kernel to the "
           "util/simd dispatch table instead so every tier stays pinned "
           "against the scalar oracle");
    rules.push_back(std::move(r));
  }
  {
    auto r = std::make_unique<TokenBanRule>(
        "sim-clock",
        "federated-round logic in src/fl/ is simulated-time only (the "
        "EventQueue clock); reading wall clocks there breaks the "
        "bit-identical history contract — the sanctioned wall_seconds "
        "measurement sites carry inline allow() suppressions",
        std::vector<std::string>{"std::chrono::steady_clock",
                                 "std::chrono::system_clock",
                                 "std::chrono::high_resolution_clock"},
        std::vector<std::string>{},
        std::vector<std::string>{"src/fl/"});
    r->why("reads a wall clock inside src/fl/; round logic must use the "
           "engine's simulated event clock (fl/events.hpp), except the "
           "documented wall_seconds sites");
    rules.push_back(std::move(r));
  }
  {
    auto r = std::make_unique<TokenBanRule>(
        "io-isolation",
        "src/fl/ writes files only through util/snapshot (SnapshotWriter "
        "commit / atomic_write_file), whose temp+fsync+rename protocol is "
        "what makes checkpoints crash-consistent; raw ofstream/fopen writes "
        "there can be observed torn after a kill",
        std::vector<std::string>{"std::ofstream", "std::fstream", "fopen",
                                 "fwrite"},
        std::vector<std::string>{},
        std::vector<std::string>{"src/fl/"});
    r->why("writes a file from src/fl/ outside util/snapshot; route it "
           "through SnapshotWriter::commit or util::atomic_write_* so a "
           "mid-write kill cannot leave a torn artifact");
    rules.push_back(std::move(r));
  }
  {
    auto r = std::make_unique<TokenBanRule>(
        "net-isolation",
        "OS networking primitives (socket/epoll/poll headers and epoll "
        "syscalls) live only in src/net/, behind the Connection seam; "
        "everywhere else — including src/fl/ serving and the fhdnnd "
        "tools — speaks fhdnn::net so TCP, the tests' socket pairs, and "
        "portability shims have exactly one integration point",
        std::vector<std::string>{"sys/socket.h", "sys/epoll.h",
                                 "netinet/in.h", "netinet/tcp.h",
                                 "arpa/inet.h", "sys/un.h", "netdb.h",
                                 "poll.h", "epoll_create1", "epoll_ctl",
                                 "epoll_wait", "accept4"},
        std::vector<std::string>{"src/net/"});
    r->why("touches OS networking outside src/net/; go through the "
           "net::Connection seam instead");
    rules.push_back(std::move(r));
  }
  rules.push_back(std::make_unique<ArenaDisciplineRule>());
  rules.push_back(std::make_unique<IntoAliasDocRule>());
  rules.push_back(std::make_unique<PragmaOnceRule>());
  rules.push_back(std::make_unique<IncludeStyleRule>());
  rules.push_back(std::make_unique<SelfIncludeFirstRule>());
  return rules;
}

}  // namespace fhdnn::lint
