#include "lint.hpp"

#include <algorithm>
#include <cctype>

namespace fhdnn::lint {

namespace {

/// Cross-line scanner state: the stripper is a tiny state machine fed one
/// line at a time so block comments and raw strings spanning lines work.
struct ScanState {
  bool in_block_comment = false;
  bool in_raw_string = false;
  std::string raw_delim;  ///< the `)delim"` terminator being searched for
};

/// Strip one line: emit `code` (literals/comments blanked to spaces, same
/// length as input) and `comment` (comment text only, blanks elsewhere).
void strip_line(const std::string& line, ScanState& st, std::string& code,
                std::string& comment) {
  const std::size_t n = line.size();
  code.assign(n, ' ');
  comment.assign(n, ' ');
  std::size_t i = 0;
  while (i < n) {
    if (st.in_block_comment) {
      if (line.compare(i, 2, "*/") == 0) {
        st.in_block_comment = false;
        i += 2;
      } else {
        comment[i] = line[i];
        ++i;
      }
      continue;
    }
    if (st.in_raw_string) {
      const std::size_t end = line.find(st.raw_delim, i);
      if (end == std::string::npos) {
        i = n;
      } else {
        i = end + st.raw_delim.size();
        st.in_raw_string = false;
      }
      continue;
    }
    const char c = line[i];
    if (c == '/' && i + 1 < n && line[i + 1] == '/') {
      for (std::size_t j = i + 2; j < n; ++j) comment[j] = line[j];
      break;
    }
    if (c == '/' && i + 1 < n && line[i + 1] == '*') {
      st.in_block_comment = true;
      i += 2;
      continue;
    }
    if (c == 'R' && i + 1 < n && line[i + 1] == '"' &&
        (i == 0 || !ident_char(line[i - 1]))) {
      // Raw string literal R"delim( ... )delim".
      const std::size_t open = line.find('(', i + 2);
      if (open != std::string::npos) {
        st.raw_delim = ")" + line.substr(i + 2, open - (i + 2)) + "\"";
        st.in_raw_string = true;
        i = open + 1;
        continue;
      }
    }
    if (c == '"' || c == '\'') {
      // Skip the literal body; backslash escapes the next character.
      code[i] = c;
      std::size_t j = i + 1;
      while (j < n && line[j] != c) {
        j += (line[j] == '\\' && j + 1 < n) ? 2 : 1;
      }
      if (j < n) code[j] = c;
      i = (j < n) ? j + 1 : n;
      continue;
    }
    code[i] = c;
    ++i;
  }
}

/// Parse the rule list out of a `fhdnn-lint: allow(a, b)` comment; returns
/// false when the line carries no allow() marker.
bool parse_allow(std::string_view comment, std::vector<std::string>& rules) {
  const std::size_t tag = comment.find("fhdnn-lint:");
  if (tag == std::string_view::npos) return false;
  const std::size_t allow = comment.find("allow(", tag);
  if (allow == std::string_view::npos) return false;
  const std::size_t open = allow + 5;
  const std::size_t close = comment.find(')', open);
  if (close == std::string_view::npos) return false;
  std::string name;
  for (std::size_t i = open + 1; i <= close; ++i) {
    const char c = comment[i];
    if (c == ',' || c == ')') {
      if (!name.empty()) rules.push_back(name);
      name.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      name.push_back(c);
    }
  }
  return true;
}

}  // namespace

namespace {

bool allow_matches(const SourceFile& f, std::string_view rule, std::size_t l) {
  std::vector<std::string> rules;
  return parse_allow(f.comment[l], rules) &&
         std::find(rules.begin(), rules.end(), rule) != rules.end();
}

std::string_view trimmed(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string_view(s).substr(b, e - b);
}

/// 0-based first line of the declaration/statement containing 0-based
/// `line`: walk upward while the line above is a code continuation (non
/// blank, not a preprocessor line, and not ending in ';', '{', or '}').
/// Bounded so a pathological unterminated construct stays cheap.
std::size_t statement_start(const SourceFile& f, std::size_t line) {
  std::size_t s = std::min(line, f.code.size() - 1);
  for (int steps = 0; s > 0 && steps < 16; ++steps) {
    const std::string_view above = trimmed(f.code[s - 1]);
    if (above.empty() || above.front() == '#') break;
    const char last = above.back();
    if (last == ';' || last == '{' || last == '}') break;
    --s;
  }
  return s;
}

}  // namespace

bool SourceFile::suppressed(std::string_view rule, int line) const {
  if (line < 1 || comment.empty()) return false;
  const std::size_t l0 = static_cast<std::size_t>(line - 1);
  if (l0 >= comment.size()) return false;
  // Inline on the reported line, or on the line directly above it.
  if (allow_matches(*this, rule, l0)) return true;
  if (l0 >= 1 && allow_matches(*this, rule, l0 - 1)) return true;
  // A declaration spanning multiple lines is covered by an allow() comment
  // above its FIRST line, wherever within the declaration the diagnostic
  // lands (a wrapped parameter list must not strand the suppression).
  const std::size_t s = statement_start(*this, l0);
  if (s < l0 && allow_matches(*this, rule, s)) return true;  // inline, 1st line
  if (s < l0 && s >= 1 && allow_matches(*this, rule, s - 1)) return true;
  return false;
}

bool SourceFile::is_header() const {
  return path.ends_with(".hpp") || path.ends_with(".h");
}

std::string_view SourceFile::repo_path() const {
  const std::string_view p = path;
  for (const std::string_view top :
       {"perfbench/", "src/", "tests/", "bench/", "examples/", "tools/"}) {
    if (p.starts_with(top)) return p;
    // Also recognize the top dir mid-path ("/root/repo/src/...").
    const std::size_t at = p.find(std::string("/") + std::string(top));
    if (at != std::string_view::npos) return p.substr(at + 1);
  }
  return p;
}

bool SourceFile::reference_only() const {
  return repo_path().starts_with("perfbench/");
}

SourceFile scan_source(std::string path, std::string_view content) {
  SourceFile f;
  f.path = std::move(path);
  std::replace(f.path.begin(), f.path.end(), '\\', '/');
  ScanState st;
  std::size_t start = 0;
  while (start <= content.size()) {
    std::size_t end = content.find('\n', start);
    if (end == std::string_view::npos) end = content.size();
    std::string line(content.substr(start, end - start));
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::string code;
    std::string comment;
    strip_line(line, st, code, comment);
    f.raw.push_back(std::move(line));
    f.code.push_back(std::move(code));
    f.comment.push_back(std::move(comment));
    if (end == content.size()) break;
    start = end + 1;
  }
  // A lone trailing newline produces one empty final line; keep it — line
  // numbers elsewhere stay 1-based and in range either way.
  return f;
}

void Diagnostics::report(std::string_view rule, int line, std::string message) {
  if (file_.reference_only() || file_.suppressed(rule, line)) return;
  out_.push_back(Diagnostic{file_.path, line, std::string(rule),
                            std::move(message)});
}

void lint_file(const SourceFile& file,
               const std::vector<std::unique_ptr<Rule>>& rules,
               std::vector<Diagnostic>& out) {
  Diagnostics diags(file, out);
  for (const auto& rule : rules) rule->check(file, diags);
}

std::vector<Diagnostic> lint_source(
    std::string path, std::string_view content,
    const std::vector<std::unique_ptr<Rule>>& rules) {
  std::vector<Diagnostic> out;
  lint_file(scan_source(std::move(path), content), rules, out);
  return out;
}

std::size_t find_token(std::string_view code_line, std::string_view token,
                       std::size_t from) {
  if (token.empty()) return std::string_view::npos;
  std::size_t at = code_line.find(token, from);
  while (at != std::string_view::npos) {
    const bool left_ok =
        at == 0 || (!ident_char(code_line[at - 1]) && code_line[at - 1] != ':');
    const std::size_t after = at + token.size();
    const bool right_ok =
        after >= code_line.size() || !ident_char(code_line[after]);
    if (left_ok && right_ok) return at;
    at = code_line.find(token, at + 1);
  }
  return std::string_view::npos;
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool has_token(std::string_view code_line, std::string_view token) {
  return find_token(code_line, token) != std::string_view::npos;
}

bool skip_space(const SourceFile& f, Pos& p) {
  while (p.line < f.code.size()) {
    const std::string& s = f.code[p.line];
    while (p.col < s.size() &&
           std::isspace(static_cast<unsigned char>(s[p.col]))) {
      ++p.col;
    }
    if (p.col < s.size()) return true;
    ++p.line;
    p.col = 0;
  }
  return false;
}

char char_at(const SourceFile& f, Pos p) {
  return f.code[p.line][p.col];
}

bool advance(const SourceFile& f, Pos& p) {
  ++p.col;
  while (p.line < f.code.size() && p.col >= f.code[p.line].size()) {
    ++p.line;
    p.col = 0;
  }
  return p.line < f.code.size();
}

bool skip_balanced(const SourceFile& f, Pos& p, char open, char close) {
  int depth = 0;
  do {
    if (!skip_space(f, p)) return false;
    const char c = char_at(f, p);
    if (c == open) ++depth;
    if (c == close) --depth;
    if (!advance(f, p) && depth > 0) return false;
  } while (depth > 0);
  return true;
}

std::string_view ident_at(const std::string& code, std::size_t c) {
  if (c >= code.size() || !ident_char(code[c]) ||
      std::isdigit(static_cast<unsigned char>(code[c])) != 0) {
    return {};
  }
  if (c > 0 && (ident_char(code[c - 1]))) return {};
  std::size_t e = c;
  while (e < code.size() && ident_char(code[e])) ++e;
  return std::string_view(code).substr(c, e - c);
}

}  // namespace fhdnn::lint
