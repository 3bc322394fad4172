#include "graph.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <set>
#include <sstream>

namespace fhdnn::lint {

namespace {

// ---- layering manifest ---------------------------------------------------

struct LayerEntry {
  std::string_view module;
  int layer;
};

/// The architecture ordering (DESIGN.md §15):
///   util -> tensor -> {nn, hdc, data, features, perf} -> channel -> fl
///   -> {wire, net, core} -> fl/serving -> tools
/// core assembles whole trainers from channel/ and fl/, and nothing in
/// src/ includes it. tests/, bench/, examples/, perfbench/ are unconstrained
/// consumers.
constexpr std::array<LayerEntry, 14> kLayers = {{
    {"util", 0},
    {"tensor", 1},
    {"nn", 2},
    {"hdc", 2},
    {"data", 2},
    {"features", 2},
    {"perf", 2},
    {"channel", 3},
    {"fl", 4},
    {"wire", 5},
    {"net", 5},
    {"core", 5},
    {"fl/serving", 6},
    {"tools", 7},
}};

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// The quoted target of a `#include "..."` line, or empty. Reads the raw
/// line because the stripper blanks string-literal contents in `code`.
std::string_view quoted_include(const SourceFile& f, std::size_t l) {
  const std::string_view code = trim(f.code[l]);
  if (!code.starts_with("#include")) return {};
  const std::string_view raw = trim(f.raw[l]);
  const std::size_t q0 = raw.find('"');
  if (q0 == std::string_view::npos) return {};
  const std::size_t q1 = raw.find('"', q0 + 1);
  if (q1 == std::string_view::npos) return {};
  return raw.substr(q0 + 1, q1 - q0 - 1);
}

std::string dirname_of(std::string_view path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string_view::npos ? std::string()
                                         : std::string(path.substr(0, slash));
}

/// Lexically normalize "a/b/../c" and "a/./b".
std::string normalize(std::string_view path) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (start <= path.size()) {
    std::size_t end = path.find('/', start);
    if (end == std::string_view::npos) end = path.size();
    const std::string_view part = path.substr(start, end - start);
    if (part == "..") {
      if (!parts.empty()) parts.pop_back();
    } else if (!part.empty() && part != ".") {
      parts.push_back(part);
    }
    if (end == path.size()) break;
    start = end + 1;
  }
  std::string out;
  for (const auto& p : parts) {
    if (!out.empty()) out += '/';
    out += p;
  }
  return out;
}

// ---- declaration / call / effect extraction ------------------------------

/// Keywords that read as `ident (` but are not calls or definitions.
bool control_keyword(std::string_view tok) {
  static constexpr std::array<std::string_view, 18> kKeywords = {
      "if",     "for",      "while",    "switch",      "return",  "sizeof",
      "catch",  "alignof",  "alignas",  "decltype",    "static_assert",
      "delete", "noexcept", "operator", "static_cast", "const_cast",
      "typeid", "throw"};
  return std::find(kKeywords.begin(), kKeywords.end(), tok) != kKeywords.end();
}

struct EffectToken {
  EffectKind kind;
  std::string_view token;
  bool call_only;  ///< only counts when spelled as a call `token(`
};

/// The effect vocabulary. `call_only` tokens are common words (`time`)
/// that must appear as a call to count; the chrono clock types count on
/// sight because reading `now()` goes through the type name.
constexpr std::array<EffectToken, 16> kEffectTokens = {{
    {EffectKind::kWallClock, "std::chrono::system_clock", false},
    {EffectKind::kWallClock, "std::chrono::steady_clock", false},
    {EffectKind::kWallClock, "std::chrono::high_resolution_clock", false},
    {EffectKind::kWallClock, "time", true},
    {EffectKind::kWallClock, "gettimeofday", true},
    {EffectKind::kWallClock, "clock_gettime", true},
    {EffectKind::kNondet, "std::random_device", false},
    {EffectKind::kNondet, "rand", true},
    {EffectKind::kNondet, "getentropy", true},
    {EffectKind::kNondet, "getrandom", true},
    {EffectKind::kAlloc, "malloc", true},
    {EffectKind::kAlloc, "calloc", true},
    {EffectKind::kAlloc, "realloc", true},
    {EffectKind::kAlloc, "strdup", true},
    {EffectKind::kAlloc, "make_unique", true},
    {EffectKind::kAlloc, "make_shared", true},
}};

/// `p` sits just past a candidate function name. Returns true (and the
/// body span) when what follows is `(params)` then specifiers then a `{`
/// body — the same walk ArenaDisciplineRule uses. Constructors with init
/// lists (`Foo() : a_(1) {`) terminate at ':' and are not extracted; the
/// documented approximation keeps the walk from misreading `a ? b(c) : d`.
bool match_definition(const SourceFile& f, Pos p, Pos& body_begin,
                      Pos& body_end) {
  if (!skip_space(f, p) || char_at(f, p) != '(') return false;
  if (!skip_balanced(f, p, '(', ')')) return false;
  while (skip_space(f, p)) {
    const char c = char_at(f, p);
    if (c == '{') break;
    if (c == ';' || c == '=' || c == ':' || c == ',' || c == ')' || c == '(') {
      return false;
    }
    if (!advance(f, p)) return false;
  }
  if (p.line >= f.code.size() || char_at(f, p) != '{') return false;
  body_begin = p;
  body_end = p;
  if (!skip_balanced(f, body_end, '{', '}')) {
    body_end.line = f.code.size();
    body_end.col = 0;
  }
  return true;
}

/// The `Qual` of `Qual::name` when the token at (l, c) is preceded by `::`;
/// empty otherwise (including template qualifiers like `Foo<T>::`).
std::string qualifier_before(const std::string& code, std::size_t c) {
  if (c < 2 || code[c - 1] != ':' || code[c - 2] != ':') return {};
  std::size_t e = c - 2;
  std::size_t b = e;
  while (b > 0 && ident_char(code[b - 1])) --b;
  if (b == e) return {};
  return code.substr(b, e - b);
}

/// Scan one function body for call sites and direct effects.
void scan_body(const SourceFile& f, Pos from, Pos to, Function& fn) {
  for (std::size_t l = from.line; l <= to.line && l < f.code.size(); ++l) {
    const std::string& code = f.code[l];
    const std::size_t c0 = (l == from.line) ? from.col : 0;
    const std::size_t c1 = (l == to.line) ? to.col : code.size();
    // Token-level effects that need no call syntax (chrono clock types).
    for (const auto& et : kEffectTokens) {
      if (et.call_only) continue;
      std::size_t at = find_token(code, et.token);
      while (at != std::string_view::npos) {
        if (at >= c0 && at < c1) {
          fn.effects.push_back(
              {et.kind, std::string(et.token), static_cast<int>(l) + 1});
        }
        at = find_token(code, et.token, at + 1);
      }
    }
    for (std::size_t c = c0; c < c1 && c < code.size(); ++c) {
      const std::string_view tok = ident_at(code, c);
      if (tok.empty()) continue;
      const bool qualified = c > 0 && code[c - 1] == ':';
      if (tok == "new" && !qualified) {
        fn.effects.push_back(
            {EffectKind::kAlloc, "new", static_cast<int>(l) + 1});
        c += tok.size() - 1;
        continue;
      }
      // A call: identifier directly followed (over whitespace) by '('.
      Pos p{l, c + tok.size()};
      const bool is_call = skip_space(f, p) && char_at(f, p) == '(' &&
                           !control_keyword(tok);
      if (is_call) {
        fn.calls.push_back({std::string(tok), static_cast<int>(l) + 1});
        for (const auto& et : kEffectTokens) {
          if (et.call_only && tok == et.token) {
            fn.effects.push_back(
                {et.kind, std::string(et.token), static_cast<int>(l) + 1});
          }
        }
      }
      c += tok.size() - 1;
    }
  }
}

/// Extract every function definition in `f` into `out`.
void extract_functions(const SourceFile& f, std::size_t file_index,
                       std::vector<Function>& out) {
  for (std::size_t l = 0; l < f.code.size(); ++l) {
    // Preprocessor lines never open definitions (and `#define F(x) ...`
    // would misread as one).
    if (trim(f.code[l]).starts_with("#")) continue;
    for (std::size_t c = 0; c < f.code[l].size(); ++c) {
      // Re-bound every iteration: the resume path below moves `l` past a
      // multi-line body, and a reference captured before the inner loop
      // would keep reading tokens from the line the definition STARTED on.
      const std::string& code = f.code[l];
      const std::string_view tok = ident_at(code, c);
      if (tok.empty()) continue;
      if (control_keyword(tok)) {
        c += tok.size() - 1;
        continue;
      }
      Pos body_begin;
      Pos body_end;
      if (match_definition(f, Pos{l, c + tok.size()}, body_begin, body_end)) {
        Function fn;
        fn.name = std::string(tok);
        fn.qualifier = qualifier_before(code, c);
        fn.file = file_index;
        fn.line = static_cast<int>(l) + 1;
        fn.body_begin = body_begin;
        fn.body_end = body_end;
        scan_body(f, body_begin, body_end, fn);
        out.push_back(std::move(fn));
        // Resume exactly at body_end (skip_balanced already stepped past
        // the closing '}') so inner calls are not re-read as top-level
        // definitions.
        if (body_end.line >= f.code.size()) return;
        if (body_end.col == 0) {
          // Body ended at a line boundary: hand the next line back to the
          // outer loop so it gets the preprocessor check too.
          l = body_end.line - 1;
          break;
        }
        l = body_end.line;
        c = body_end.col - 1;  // loop increment lands on body_end.col
        continue;
      }
      c += tok.size() - 1;
    }
  }
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

int module_layer(std::string_view module) {
  for (const auto& e : kLayers) {
    if (module == e.module) return e.layer;
  }
  if (module == "tests" || module == "bench" || module == "examples" ||
      module == "perfbench") {
    return kConsumerLayer;
  }
  return -1;
}

std::string module_of(std::string_view repo_path) {
  if (repo_path.starts_with("src/")) {
    const std::string_view rest = repo_path.substr(4);
    if (rest.starts_with("fl/serving.")) return "fl/serving";
    const std::size_t slash = rest.find('/');
    return std::string(slash == std::string_view::npos ? rest
                                                       : rest.substr(0, slash));
  }
  for (const std::string_view top : {"tools", "tests", "bench", "examples"}) {
    if (repo_path.starts_with(top) &&
        (repo_path.size() == top.size() || repo_path[top.size()] == '/')) {
      return std::string(top);
    }
  }
  const std::size_t slash = repo_path.find('/');
  return std::string(
      slash == std::string_view::npos ? repo_path : repo_path.substr(0, slash));
}

std::string_view effect_kind_name(EffectKind kind) {
  switch (kind) {
    case EffectKind::kWallClock: return "wall-clock";
    case EffectKind::kNondet: return "nondeterminism";
    case EffectKind::kAlloc: return "heap allocation";
  }
  return "effect";
}

Program build_program(std::vector<SourceFile> files) {
  Program p;
  p.files = std::move(files);
  p.repo_paths.reserve(p.files.size());
  p.modules.reserve(p.files.size());
  std::map<std::string, std::size_t, std::less<>> by_path;
  for (std::size_t i = 0; i < p.files.size(); ++i) {
    p.repo_paths.emplace_back(p.files[i].repo_path());
    p.modules.push_back(module_of(p.repo_paths[i]));
    by_path.emplace(p.repo_paths[i], i);
  }
  // Include resolution: same-directory first (matches the preprocessor's
  // quoted-include search), then the src/ convention, then repo root.
  p.includes.resize(p.files.size());
  for (std::size_t i = 0; i < p.files.size(); ++i) {
    const SourceFile& f = p.files[i];
    for (std::size_t l = 0; l < f.code.size(); ++l) {
      const std::string_view target = quoted_include(f, l);
      if (target.empty()) continue;
      const std::string dir = dirname_of(p.repo_paths[i]);
      std::size_t resolved = p.files.size();
      for (const std::string& candidate :
           {normalize(dir.empty() ? std::string(target)
                                  : dir + "/" + std::string(target)),
            normalize("src/" + std::string(target)),
            normalize(std::string(target))}) {
        const auto it = by_path.find(candidate);
        if (it != by_path.end()) {
          resolved = it->second;
          break;
        }
      }
      if (resolved < p.files.size() && resolved != i) {
        p.includes[i].push_back({resolved, static_cast<int>(l) + 1});
      }
    }
  }
  // Function extraction: src/ and tools/ only. tests/, bench/, and
  // examples/ hold fixtures and drivers whose names (run, main, ...) would
  // pollute name-linked call resolution without guarding any invariant.
  for (std::size_t i = 0; i < p.files.size(); ++i) {
    const std::string_view rp = p.repo_paths[i];
    if (!rp.starts_with("src/") && !rp.starts_with("tools/")) continue;
    extract_functions(p.files[i], i, p.functions);
  }
  for (std::size_t fi = 0; fi < p.functions.size(); ++fi) {
    p.by_name[p.functions[fi].name].push_back(fi);
  }
  return p;
}

void GraphDiagnostics::report(std::string_view rule, std::size_t file,
                              int line, std::string message) {
  const SourceFile& f = program_.files[file];
  if (f.reference_only() || f.suppressed(rule, line)) return;
  out_.push_back(
      Diagnostic{f.path, line, std::string(rule), std::move(message)});
}

void lint_program(const Program& program,
                  const std::vector<std::unique_ptr<GraphRule>>& rules,
                  std::vector<Diagnostic>& out) {
  GraphDiagnostics diags(program, out);
  for (const auto& rule : rules) rule->check(program, diags);
}

std::vector<Diagnostic> lint_program_sources(
    const std::vector<std::pair<std::string, std::string>>& sources,
    const std::vector<std::unique_ptr<GraphRule>>& rules) {
  std::vector<SourceFile> files;
  files.reserve(sources.size());
  for (const auto& [path, content] : sources) {
    files.push_back(scan_source(path, content));
  }
  std::vector<Diagnostic> out;
  lint_program(build_program(std::move(files)), rules, out);
  return out;
}

std::string graph_dot(const Program& program) {
  // Module-level edge counts, sorted for stable output.
  std::map<std::pair<std::string, std::string>, int> edges;
  std::set<std::string> nodes;
  for (std::size_t i = 0; i < program.files.size(); ++i) {
    nodes.insert(program.modules[i]);
    for (const IncludeRef& inc : program.includes[i]) {
      const std::string& from = program.modules[i];
      const std::string& to = program.modules[inc.target];
      if (from != to) ++edges[{from, to}];
    }
  }
  std::ostringstream os;
  os << "digraph fhdnn_modules {\n"
     << "  rankdir=BT;\n"
     << "  node [shape=box, fontname=\"Helvetica\"];\n";
  for (const auto& n : nodes) {
    const int layer = module_layer(n);
    os << "  \"" << n << "\" [label=\"" << n;
    if (layer >= 0 && layer != kConsumerLayer) os << "\\nlayer " << layer;
    os << "\"];\n";
  }
  for (const auto& [key, count] : edges) {
    const auto& [from, to] = key;
    const int lf = module_layer(from);
    const int lt = module_layer(to);
    const bool bad = lf >= 0 && lf != kConsumerLayer &&
                     (lt < 0 || (lt > lf && lt != kConsumerLayer));
    os << "  \"" << from << "\" -> \"" << to << "\" [label=\"" << count
       << "\"";
    if (bad) os << ", color=red, penwidth=2";
    os << "];\n";
  }
  os << "}\n";
  return os.str();
}

std::string diagnostics_json(const std::vector<Diagnostic>& diags,
                             std::size_t n_files) {
  std::ostringstream os;
  os << "{\"version\":1,\"files\":" << n_files << ",\"diagnostics\":[";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    if (i) os << ",";
    os << "\n  {\"path\":\"" << json_escape(diags[i].path) << "\","
       << "\"line\":" << diags[i].line << ","
       << "\"rule\":\"" << json_escape(diags[i].rule) << "\","
       << "\"message\":\"" << json_escape(diags[i].message) << "\"}";
  }
  if (!diags.empty()) os << "\n";
  os << "]}\n";
  return os.str();
}

}  // namespace fhdnn::lint
