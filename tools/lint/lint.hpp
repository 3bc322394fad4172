// fhdnn-lint — repo-specific invariant linter (tools/lint).
//
// The FHDnn codebase promises bit-identical training histories at any
// thread count and a zero-allocation steady state (DESIGN.md §6/§9). Those
// invariants are load-bearing for every headline number in the paper
// reproduction, and nothing in a generic compiler or clang-tidy pass spells
// them out. This linter does: a token/line-level scanner with a pluggable
// rule registry walks src/, tests/, and bench/ and reports violations of
// the repo's own contracts (raw threads outside util/parallel, wall-clock
// seeded RNG outside util/rng, unordered-container use on deterministic
// aggregation paths, heap traffic inside `_into` kernels, missing aliasing
// contracts, include hygiene).
//
// Design constraints, in order:
//   * zero external dependencies — plain C++20 and the standard library;
//   * honest line-level matching, not a parser: comments, string/char
//     literals, and raw strings are blanked before token matching so rule
//     names and fixtures never self-trigger, but no preprocessor or
//     template machinery is emulated;
//   * every rule is suppressible in place with a justification comment:
//       // fhdnn-lint: allow(rule-name)
//     on the offending line or the line directly above it;
//   * no --fix mode, ever. The exit code is the contract: 0 clean,
//     1 violations, 2 usage/IO error. Fixes are reviewed by humans.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace fhdnn::lint {

/// One reported violation. `line` is 1-based.
struct Diagnostic {
  std::string path;
  int line = 0;
  std::string rule;
  std::string message;
};

/// A source file after scanning. Rules see three parallel line arrays:
/// `raw` (verbatim), `code` (comments and string/char-literal contents
/// replaced by spaces, so columns line up), and `comment` (only the comment
/// text of each line, for doc-comment rules).
struct SourceFile {
  std::string path;  ///< forward-slash separated, as passed to the scanner
  std::vector<std::string> raw;
  std::vector<std::string> code;
  std::vector<std::string> comment;

  /// True when `// fhdnn-lint: allow(<rule>)` appears on `line` (1-based)
  /// or on the line directly above it.
  bool suppressed(std::string_view rule, int line) const;

  bool is_header() const;
  /// Path relative to the repo root if a known top-level dir (perfbench/
  /// src/tests/bench/examples/tools) appears in it, else the path
  /// unchanged. perfbench/ is tried first: its own src/ subdirectory must
  /// not read as the library's.
  std::string_view repo_path() const;
  /// True for files under perfbench/. The benchmark is read so that
  /// whole-program rules see its references, but its tree is versioned
  /// with the benchmark's baselines, so no diagnostic is anchored in it.
  bool reference_only() const;
};

/// Split `content` into scanned lines (comment/string stripping, raw-string
/// aware). `path` is attached verbatim.
SourceFile scan_source(std::string path, std::string_view content);

/// Sink passed to rules; routes reports through suppression filtering.
class Diagnostics {
 public:
  Diagnostics(const SourceFile& file, std::vector<Diagnostic>& out)
      : file_(file), out_(out) {}

  /// Report a violation of `rule` at 1-based `line` unless an allow()
  /// comment suppresses it there.
  void report(std::string_view rule, int line, std::string message);

 private:
  const SourceFile& file_;
  std::vector<Diagnostic>& out_;
};

/// A lint rule. Stateless; `check` is called once per file.
class Rule {
 public:
  virtual ~Rule() = default;
  virtual std::string_view name() const = 0;
  virtual std::string_view description() const = 0;
  virtual void check(const SourceFile& file, Diagnostics& diags) const = 0;
};

/// The built-in rule set (see rules.cpp for the catalog).
std::vector<std::unique_ptr<Rule>> default_rules();

/// Run `rules` over an already-scanned file.
void lint_file(const SourceFile& file,
               const std::vector<std::unique_ptr<Rule>>& rules,
               std::vector<Diagnostic>& out);

/// Convenience for tests and embedded fixtures: scan + lint a buffer.
std::vector<Diagnostic> lint_source(
    std::string path, std::string_view content,
    const std::vector<std::unique_ptr<Rule>>& rules);

// ---- token-matching helpers shared by rules (exposed for unit tests) ----

/// True for the characters of a C++ identifier: alphanumerics and '_'.
bool ident_char(char c);

/// True when `token` occurs in `code_line` as a whole token: the character
/// before must not be alphanumeric, '_', or ':' (so `Tensor::rand` does not
/// match `rand`), and the character after must not be alphanumeric or '_'.
bool has_token(std::string_view code_line, std::string_view token);

/// Position of the first whole-token occurrence, or npos.
std::size_t find_token(std::string_view code_line, std::string_view token,
                       std::size_t from = 0);

// ---- cursor helpers over SourceFile::code ----
//
// Shared by the per-file body-scanning rules (rules.cpp) and the
// whole-program declaration/call extractor (graph.cpp). A Pos is a 0-based
// (line, column) cursor into the stripped `code` line array.

struct Pos {
  std::size_t line = 0;
  std::size_t col = 0;
};

/// Advance past whitespace (and line breaks); false at end of file.
bool skip_space(const SourceFile& f, Pos& p);

char char_at(const SourceFile& f, Pos p);

/// Step one column, spilling to the next non-empty line; false at EOF.
bool advance(const SourceFile& f, Pos& p);

/// From an opening delimiter at `p`, move `p` one past its matching closer.
bool skip_balanced(const SourceFile& f, Pos& p, char open, char close);

/// The identifier token starting exactly at column `c` of `code` (empty
/// when `c` is mid-token, a digit start, or not an identifier character).
std::string_view ident_at(const std::string& code, std::size_t c);

}  // namespace fhdnn::lint
