// Whole-program rule catalog for fhdnn-lint (framework in graph.hpp,
// DESIGN.md §15 for the analysis model and its approximations).
//
//   layer-dag             the module graph respects the architecture
//                         ordering util -> tensor -> {nn, hdc, data,
//                         features, perf} -> core -> channel -> fl ->
//                         {wire, net} -> fl/serving -> tools (higher
//                         layers include lower ones; same-layer bands may
//                         interdepend but never cyclically), and the
//                         file-level include graph is acyclic
//   det-effects           no call chain from the RoundEngine client loop
//                         or the WorkerLoop round path reaches wall-clock
//                         or nondeterministic sources, and no chain from
//                         an `_into` kernel reaches heap allocation
//                         outside util/workspace — the transitive
//                         complement of sim-clock/nondet-rng/
//                         arena-discipline, which see lines it does not
//                         (DESIGN.md §15)
//   include-graph-hygiene headers included but unused-by-symbol, and
//                         TU-private headers (detail/, *_impl, *_private)
//                         included from outside their module
//   test-only-api         functions declared in a src/ header whose name
//                         nothing outside tests/ uses: no other src/ code,
//                         and nothing under tools/, bench/, examples/ or
//                         perfbench/, references it, as a call or not
#include "graph.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

namespace fhdnn::lint {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

// ---- layer-dag -----------------------------------------------------------

class LayerDagRule : public GraphRule {
 public:
  std::string_view name() const override { return "layer-dag"; }
  std::string_view description() const override {
    return "[whole-program] module includes respect the architecture "
           "ordering util -> tensor -> {nn,hdc,data,features,perf} -> "
           "channel -> fl -> {wire,net,core} -> fl/serving -> tools, and the "
           "file-level include graph is acyclic";
  }

  void check(const Program& p, GraphDiagnostics& diags) const override {
    check_layering(p, diags);
    check_cycles(p, diags);
  }

 private:
  void check_layering(const Program& p, GraphDiagnostics& diags) const {
    for (std::size_t i = 0; i < p.files.size(); ++i) {
      const std::string& from = p.modules[i];
      const int lf = module_layer(from);
      if (lf == kConsumerLayer) continue;  // tests/bench/examples
      for (const IncludeRef& inc : p.includes[i]) {
        const std::string& to = p.modules[inc.target];
        if (from == to) continue;
        const int lt = module_layer(to);
        if (lf < 0) {
          diags.report(name(), i, inc.line,
                       "module '" + from +
                           "' is not in the layering manifest; add it to "
                           "kLayers in tools/lint/graph.cpp");
          continue;
        }
        if (lt < 0) {
          diags.report(name(), i, inc.line,
                       "includes module '" + to +
                           "' which is not in the layering manifest");
          continue;
        }
        if (lt == kConsumerLayer || lt > lf) {
          diags.report(
              name(), i, inc.line,
              "layering violation: '" + from + "' (layer " +
                  std::to_string(lf) + ") may not include '" + to +
                  "' (layer " + std::to_string(lt) +
                  "); the architecture ordering flows util -> ... -> tools");
        }
      }
    }
  }

  void check_cycles(const Program& p, GraphDiagnostics& diags) const {
    // Iterative DFS over the file-level include graph; a back edge to a
    // node on the current stack closes a cycle. Each cycle is reported
    // once, at the include line that closes it.
    enum : unsigned char { kWhite, kGrey, kBlack };
    std::vector<unsigned char> color(p.files.size(), kWhite);
    std::vector<std::size_t> parent(p.files.size(), SIZE_MAX);
    for (std::size_t root = 0; root < p.files.size(); ++root) {
      if (color[root] != kWhite) continue;
      // Stack of (node, next-edge-index).
      std::vector<std::pair<std::size_t, std::size_t>> stack;
      stack.emplace_back(root, 0);
      color[root] = kGrey;
      while (!stack.empty()) {
        auto& [node, edge] = stack.back();
        if (edge >= p.includes[node].size()) {
          color[node] = kBlack;
          stack.pop_back();
          continue;
        }
        const IncludeRef inc = p.includes[node][edge++];
        if (color[inc.target] == kGrey) {
          // Walk the stack to spell the cycle path.
          std::string cycle = p.repo_paths[inc.target];
          bool in_cycle = false;
          for (const auto& [n, unused_e] : stack) {
            (void)unused_e;
            if (n == inc.target) in_cycle = true;
            if (in_cycle && n != inc.target) {
              cycle += " -> " + p.repo_paths[n];
            }
          }
          cycle += " -> " + p.repo_paths[inc.target];
          diags.report(name(), node, inc.line,
                       "include cycle: " + cycle);
        } else if (color[inc.target] == kWhite) {
          color[inc.target] = kGrey;
          parent[inc.target] = node;
          stack.emplace_back(inc.target, 0);
        }
      }
    }
  }
};

// ---- det-effects ---------------------------------------------------------

/// A root family: which definitions seed the traversal and which effect
/// kinds are forbidden along every chain from them.
struct RootFamily {
  std::string_view label;
  std::vector<EffectKind> banned;
  std::vector<std::size_t> roots;  ///< indices into Program::functions
};

class DetEffectsRule : public GraphRule {
 public:
  std::string_view name() const override { return "det-effects"; }
  std::string_view description() const override {
    return "[whole-program] transitive effect check: call chains from the "
           "RoundEngine client loop / WorkerLoop round path must not reach "
           "wall-clock or nondeterministic sources, and chains from `_into` "
           "kernels must not reach heap allocation outside util/workspace";
  }

  void check(const Program& p, GraphDiagnostics& diags) const override {
    std::vector<RootFamily> families = collect_roots(p);
    // Dedup across families: one (file, line, effect token) is one finding
    // even when several roots reach it; the first (shortest) chain wins.
    std::set<std::tuple<std::size_t, int, std::string>> reported;
    for (RootFamily& fam : families) {
      traverse(p, fam, diags, reported);
    }
  }

 private:
  static bool is_round_root(const Function& fn) {
    // The RoundEngine client loop and everything the server/worker round
    // path runs per round.
    if (fn.name == "run_client") return true;
    if (fn.qualifier == "RoundEngine" && (fn.name == "round" || fn.name == "run")) {
      return true;
    }
    if (fn.qualifier == "WorkerLoop" &&
        (fn.name == "run" || fn.name == "serve_round")) {
      return true;
    }
    if ((fn.qualifier == "LocalRoundDriver" ||
         fn.qualifier == "ServerRoundDriver") &&
        fn.name == "drive") {
      return true;
    }
    return false;
  }

  std::vector<RootFamily> collect_roots(const Program& p) const {
    RootFamily round{"round path",
                     {EffectKind::kWallClock, EffectKind::kNondet},
                     {}};
    RootFamily kernel{"_into kernel",
                      {EffectKind::kWallClock, EffectKind::kNondet,
                       EffectKind::kAlloc},
                      {}};
    for (std::size_t fi = 0; fi < p.functions.size(); ++fi) {
      const Function& fn = p.functions[fi];
      const std::string_view rp = p.repo_paths[fn.file];
      if (!rp.starts_with("src/")) continue;
      if (is_round_root(fn)) round.roots.push_back(fi);
      if (fn.name.size() > 5 && fn.name.ends_with("_into")) {
        kernel.roots.push_back(fi);
      }
    }
    return {std::move(round), std::move(kernel)};
  }

  /// Allocation inside util/workspace is the sanctioned arena growth path.
  static bool alloc_exempt(const Program& p, const Function& fn) {
    return p.repo_paths[fn.file].starts_with("src/util/workspace");
  }

  void traverse(
      const Program& p, const RootFamily& fam, GraphDiagnostics& diags,
      std::set<std::tuple<std::size_t, int, std::string>>& reported) const {
    // BFS from every root at once; predecessor links reconstruct one
    // shortest chain per reached function for the message.
    std::vector<int> pred(p.functions.size(), -2);  // -2 unvisited, -1 root
    std::deque<std::size_t> queue;
    for (const std::size_t r : fam.roots) {
      if (pred[r] == -2) {
        pred[r] = -1;
        queue.push_back(r);
      }
    }
    while (!queue.empty()) {
      const std::size_t fi = queue.front();
      queue.pop_front();
      const Function& fn = p.functions[fi];
      for (const Effect& e : fn.effects) {
        if (std::find(fam.banned.begin(), fam.banned.end(), e.kind) ==
            fam.banned.end()) {
          continue;
        }
        if (e.kind == EffectKind::kAlloc && alloc_exempt(p, fn)) continue;
        const auto key = std::make_tuple(fn.file, e.line, e.token);
        if (!reported.insert(key).second) continue;
        diags.report(name(), fn.file, e.line,
                     std::string(effect_kind_name(e.kind)) + " ('" + e.token +
                         "') reachable from " + std::string(fam.label) +
                         ": " + chain(p, pred, fi));
      }
      for (const CallSite& call : fn.calls) {
        const auto it = p.by_name.find(call.name);
        if (it == p.by_name.end()) continue;
        for (const std::size_t callee : it->second) {
          if (pred[callee] == -2) {
            pred[callee] = static_cast<int>(fi);
            queue.push_back(callee);
          }
        }
      }
    }
  }

  static std::string chain(const Program& p, const std::vector<int>& pred,
                           std::size_t fi) {
    std::vector<std::string> names;
    for (int cur = static_cast<int>(fi); cur >= 0; cur = pred[cur]) {
      names.push_back(p.functions[cur].display_name());
      if (names.size() > 12) {
        names.push_back("...");
        break;
      }
    }
    std::reverse(names.begin(), names.end());
    std::string out;
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i) out += " -> ";
      out += names[i];
    }
    return out;
  }
};

// ---- include-graph-hygiene -----------------------------------------------

class IncludeGraphHygieneRule : public GraphRule {
 public:
  std::string_view name() const override { return "include-graph-hygiene"; }
  std::string_view description() const override {
    return "[whole-program] project headers included but unused-by-symbol, "
           "and TU-private headers (detail/ dirs, *_impl / *_private "
           "stems) included from outside their module";
  }

  void check(const Program& p, GraphDiagnostics& diags) const override {
    // Exported-name sets per header, built lazily.
    std::vector<std::vector<std::string>> exported(p.files.size());
    std::vector<char> built(p.files.size(), 0);
    for (std::size_t i = 0; i < p.files.size(); ++i) {
      for (const IncludeRef& inc : p.includes[i]) {
        const std::string& hpath = p.repo_paths[inc.target];
        if (!p.files[inc.target].is_header()) continue;
        check_private(p, diags, i, inc, hpath);
        check_unused(p, diags, i, inc, exported, built);
      }
    }
  }

 private:
  static bool tu_private(std::string_view hpath) {
    if (hpath.find("/detail/") != std::string_view::npos) return true;
    const std::size_t slash = hpath.rfind('/');
    std::string_view stem =
        slash == std::string_view::npos ? hpath : hpath.substr(slash + 1);
    const std::size_t dot = stem.rfind('.');
    if (dot != std::string_view::npos) stem = stem.substr(0, dot);
    return stem.ends_with("_impl") || stem.ends_with("_private");
  }

  void check_private(const Program& p, GraphDiagnostics& diags, std::size_t i,
                     const IncludeRef& inc, const std::string& hpath) const {
    if (!tu_private(hpath)) return;
    if (p.modules[i] == p.modules[inc.target]) return;
    diags.report(name(), i, inc.line,
                 "TU-private header '" + hpath + "' (module '" +
                     p.modules[inc.target] +
                     "') included from module '" + p.modules[i] +
                     "'; private headers never cross a module boundary");
  }

  void check_unused(const Program& p, GraphDiagnostics& diags, std::size_t i,
                    const IncludeRef& inc,
                    std::vector<std::vector<std::string>>& exported,
                    std::vector<char>& built) const {
    // A .cpp including its own header is the interface export, not a use.
    const std::string& fpath = p.repo_paths[i];
    const std::string& hpath = p.repo_paths[inc.target];
    if (own_header(fpath, hpath)) return;
    if (!built[inc.target]) {
      exported[inc.target] = exported_names(p, inc.target);
      built[inc.target] = 1;
    }
    const std::vector<std::string>& names = exported[inc.target];
    // No extractable symbols (umbrella headers, pure-macro headers beyond
    // #define, operator-only headers): stay silent rather than guess.
    if (names.empty()) return;
    for (const std::string& n : names) {
      for (const std::string& line : p.files[i].code) {
        if (uses_token(line, n)) return;  // used
      }
    }
    diags.report(name(), i, inc.line,
                 "header '" + hpath + "' is included but none of its " +
                     std::to_string(names.size()) +
                     " declared symbols are used in this file");
  }

  /// Whole-token occurrence that, unlike has_token, accepts qualified
  /// spellings: `nn::ResNetHD` is a use of ResNetHD.
  static bool uses_token(std::string_view code_line, std::string_view token) {
    std::size_t at = code_line.find(token);
    while (at != std::string_view::npos) {
      const std::size_t after = at + token.size();
      const bool left_ok = at == 0 || !ident_char(code_line[at - 1]);
      const bool right_ok =
          after >= code_line.size() || !ident_char(code_line[after]);
      if (left_ok && right_ok) return true;
      at = code_line.find(token, at + 1);
    }
    return false;
  }

  static bool own_header(std::string_view cpp, std::string_view hpp) {
    if (!cpp.ends_with(".cpp")) return false;
    const auto stem = [](std::string_view s) {
      const std::size_t slash = s.rfind('/');
      if (slash != std::string_view::npos) s = s.substr(slash + 1);
      const std::size_t dot = s.rfind('.');
      return dot == std::string_view::npos ? s : s.substr(0, dot);
    };
    return stem(cpp) == stem(hpp);
  }

  /// Names a header exports, token-extracted: type names after
  /// class/struct/enum/union, using aliases, #define names, and function
  /// (incl. member) names spelled `ident(` at any nesting. Deliberately
  /// over-extracts — a name that is really a call inside an inline body
  /// only makes the "unused" verdict harder to reach, never easier.
  static std::vector<std::string> exported_names(const Program& p,
                                                 std::size_t h) {
    std::set<std::string> names;
    bool has_operator = false;
    const SourceFile& f = p.files[h];
    for (std::size_t l = 0; l < f.code.size(); ++l) {
      const std::string& code = f.code[l];
      const std::string_view t = trim(code);
      if (t.starts_with("#define")) {
        Pos q{l, code.find("#define") + 7};
        if (skip_space(f, q) && q.line == l) {
          const std::string_view n = ident_at(code, q.col);
          if (!n.empty()) names.insert(std::string(n));
        }
        continue;
      }
      for (std::size_t c = 0; c < code.size(); ++c) {
        const std::string_view tok = ident_at(code, c);
        if (tok.empty()) continue;
        if (tok == "operator") has_operator = true;
        if (tok == "class" || tok == "struct" || tok == "enum" ||
            tok == "union" || tok == "using" || tok == "namespace" ||
            tok == "typename" || tok == "concept") {
          Pos q{l, c + tok.size()};
          if (skip_space(f, q)) {
            std::string_view n = ident_at(f.code[q.line], q.col);
            if (n == "class" || n == "struct") {  // enum class X
              Pos q2{q.line, q.col + n.size()};
              if (skip_space(f, q2)) n = ident_at(f.code[q2.line], q2.col);
            }
            if (!n.empty() && tok != "namespace" && tok != "typename") {
              names.insert(std::string(n));
            }
          }
          c += tok.size() - 1;
          continue;
        }
        // Function-ish: ident followed by '(' (declaration, definition, or
        // inline-body call — over-extraction is the safe direction here).
        Pos q{l, c + tok.size()};
        if (skip_space(f, q) && char_at(f, q) == '(') {
          names.insert(std::string(tok));
        } else if (skip_space(f, q) && char_at(f, q) == '=') {
          // `constexpr int kFoo = ...`, `using X = ...` handled above;
          // namespace-scope constants matter for hygiene checks.
          names.insert(std::string(tok));
        }
        c += tok.size() - 1;
      }
    }
    // Headers exporting operators cannot be token-matched for use; report
    // nothing rather than false positives.
    if (has_operator) return {};
    // Drop noise words that appear in nearly every file and would mark any
    // header as "used".
    static constexpr std::array<std::string_view, 14> kNoise = {
        "if", "for", "while", "return", "const", "void", "int", "bool",
        "auto", "size_t", "std", "size", "begin", "end"};
    std::vector<std::string> out;
    for (const std::string& n : names) {
      if (std::find(kNoise.begin(), kNoise.end(), n) == kNoise.end()) {
        out.push_back(n);
      }
    }
    return out;
  }
};

// ---- test-only-api -------------------------------------------------------

/// Keywords after which `name(` is an expression, never a declaration.
bool expression_keyword(std::string_view tok) {
  static constexpr std::array<std::string_view, 12> kKeywords = {
      "return", "co_return", "co_await", "co_yield", "throw",  "new",
      "delete", "else",      "case",     "do",       "sizeof", "typeid"};
  return std::find(kKeywords.begin(), kKeywords.end(), tok) != kKeywords.end();
}

/// Keywords spelled `kw(` that can stand where a declared name would.
bool paren_keyword(std::string_view tok) {
  static constexpr std::array<std::string_view, 9> kKeywords = {
      "alignas",  "alignof",  "decltype", "noexcept",     "static_assert",
      "requires", "explicit", "operator", "__attribute__"};
  return std::find(kKeywords.begin(), kKeywords.end(), tok) != kKeywords.end();
}

/// The last non-blank character before column `c` of line `l`, looking
/// back across lines. False at the start of the file or at a preprocessor
/// line, which ends whatever statement came before it.
bool char_before(const SourceFile& f, std::size_t l, std::size_t c, Pos& out) {
  for (;;) {
    const std::string& s = f.code[l];
    while (c > 0) {
      --c;
      if (std::isspace(static_cast<unsigned char>(s[c])) == 0) {
        out = {l, c};
        return true;
      }
    }
    if (l == 0 || trim(f.code[l - 1]).starts_with("#")) return false;
    --l;
    c = f.code[l].size();
  }
}

/// True when the identifier at (l, c), which is followed by `(`, names the
/// function being declared or defined rather than using it: the token
/// before it, past any `Qual::` qualifiers, is a type. That is an
/// identifier other than an expression keyword, a `~`, or a `*`, `&` or
/// `>` glued to the type on its left (`T* f(`, `std::vector<T> f(`), which
/// tells it apart from `a * f(x)` and `p->f(x)`.
bool declarator(const SourceFile& f, std::size_t l, std::size_t c) {
  const std::string& s = f.code[l];
  while (c >= 2 && s[c - 1] == ':' && s[c - 2] == ':') {
    std::size_t b = c - 2;
    while (b > 0 && ident_char(s[b - 1])) --b;
    if (b == c - 2) return false;  // `::name(`: a global-qualified use
    c = b;
  }
  Pos q;
  if (!char_before(f, l, c, q)) return false;
  const std::string& t = f.code[q.line];
  std::size_t at = q.col;
  const char ch = t[at];
  if (ch == '~') return true;
  if (ch == '*' || ch == '&' || ch == '>') {
    while (at > 0 && t[at - 1] == ch) --at;  // `&&`, `>>`
    if (at == 0) return false;
    const char left = t[at - 1];
    return ident_char(left) || left == '>' || left == '*' || left == '&';
  }
  if (!ident_char(ch)) return false;
  std::size_t b = at;
  while (b > 0 && ident_char(t[b - 1])) --b;
  return !expression_keyword(std::string_view(t).substr(b, at + 1 - b));
}

bool before(Pos a, Pos b) {
  return a.line < b.line || (a.line == b.line && a.col < b.col);
}

class TestOnlyApiRule : public GraphRule {
 public:
  std::string_view name() const override { return "test-only-api"; }
  std::string_view description() const override {
    return "[whole-program] functions declared in a src/ header whose name "
           "nothing outside tests/ references: no other src/ code and "
           "nothing under tools/, bench/, examples/ or perfbench/ calls it "
           "or names it";
  }

  void check(const Program& p, GraphDiagnostics& diags) const override {
    // One pass over every file outside tests/: an identifier is either the
    // declarator of a function declaration or definition, or a use of the
    // name. Names link unqualified, so a same-named function elsewhere can
    // hide a finding but never invent one.
    std::set<std::string, std::less<>> used;
    std::vector<Declaration> declared;
    for (std::size_t i = 0; i < p.files.size(); ++i) {
      if (p.repo_paths[i].starts_with("tests/")) continue;
      const bool api =
          p.repo_paths[i].starts_with("src/") && p.files[i].is_header();
      scan_file(p, i, api, used, declared);
    }
    for (const Declaration& d : declared) {
      if (used.contains(d.name)) continue;
      diags.report(name(), d.file, d.line,
                   "'" + d.name +
                       "' is declared in a src/ header but only tests/ "
                       "reference it; delete it with its tests, or mark a "
                       "deliberate test seam allow(test-only-api)");
    }
  }

 private:
  struct Declaration {
    std::size_t file;
    int line;
    std::string name;
  };

  static void scan_file(const Program& p, std::size_t i, bool api,
                        std::set<std::string, std::less<>>& used,
                        std::vector<Declaration>& declared) {
    const SourceFile& f = p.files[i];
    // Function bodies of this file, in source order: a declarator inside
    // one is a local variable, not API.
    std::vector<std::pair<Pos, Pos>> bodies;
    for (const Function& fn : p.functions) {
      if (fn.file == i) bodies.emplace_back(fn.body_begin, fn.body_end);
    }
    std::size_t next_body = 0;
    for (std::size_t l = 0; l < f.code.size(); ++l) {
      const std::string& code = f.code[l];
      const bool directive = trim(code).starts_with("#");
      for (std::size_t c = 0; c < code.size(); ++c) {
        const std::string_view tok = ident_at(code, c);
        if (tok.empty()) continue;
        const Pos here{l, c};
        c += tok.size() - 1;
        Pos after{l, here.col + tok.size()};
        const bool called =
            !directive && skip_space(f, after) && char_at(f, after) == '(';
        if (!called || !declarator(f, l, here.col)) {
          if (!used.contains(tok)) used.emplace(tok);
          continue;
        }
        if (!api || paren_keyword(tok)) continue;
        while (next_body < bodies.size() &&
               !before(here, bodies[next_body].second)) {
          ++next_body;
        }
        const bool in_body = next_body < bodies.size() &&
                             !before(here, bodies[next_body].first);
        if (!in_body) {
          declared.push_back({i, static_cast<int>(l) + 1, std::string(tok)});
        }
      }
    }
  }
};

}  // namespace

std::vector<std::unique_ptr<GraphRule>> default_graph_rules() {
  std::vector<std::unique_ptr<GraphRule>> rules;
  rules.push_back(std::make_unique<LayerDagRule>());
  rules.push_back(std::make_unique<DetEffectsRule>());
  rules.push_back(std::make_unique<IncludeGraphHygieneRule>());
  rules.push_back(std::make_unique<TestOnlyApiRule>());
  return rules;
}

}  // namespace fhdnn::lint
