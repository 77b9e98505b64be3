// spider-lint — determinism & hot-path allocation linter for the spider tree.
//
// The simulator's headline guarantee is a run digest that depends only on
// (seed, config): independent of container internals, pointer values and
// wall clocks. Generic clang-tidy cannot express the project-specific rules
// that protect that guarantee, so this tool does, lexically: comments, string
// literals, and preprocessor lines are stripped, then a small registry of
// rules scans the remaining code. It is deliberately not a compiler; a rule
// that cannot be decided lexically errs on the side of flagging, and the
// suppression grammar (reason mandatory) is the escape hatch.
//
// Usage:
//   spider-lint [--json] [--list-rules] <path>...   # dirs recurse over .h/.cc
//
// Exit status: 0 clean, 1 findings, 2 usage/IO error.
//
// Rules:
//   det-unordered-iteration  range-for / .begin() / std::erase_if over an
//                            unordered_{map,set} — iteration order is a
//                            function of hashing internals and must never
//                            reach the digest, event order, or output.
//   det-banned-sources       std::rand, random_device, time(nullptr),
//                            system_clock, default-constructed engines;
//                            steady_clock unless the file is annotated
//                            `// spider-lint: timing-only <reason>`.
//   det-pointer-order        std::hash<T*>, std::less<T*>, address
//                            comparisons, comparators ordering raw pointer
//                            values — addresses differ run to run.
//   hot-path-alloc           inside a function marked SPIDER_HOT: `new`,
//                            make_shared/make_unique, std::function,
//                            container growth (push_back/emplace_back/
//                            resize) whose receiver has no visible
//                            `reserve(` anywhere in the same file, string
//                            building. Hot paths allocate nothing in
//                            steady state (core/alloc_guard.h proves it at
//                            runtime; this rule catches it in review).
//   check-policy             raw assert()/abort() where SPIDER_CHECK /
//                            SPIDER_DCHECK / SPIDER_UNREACHABLE is the
//                            documented policy (core/check.h).
//   lint-suppression         malformed suppression: unknown rule name or
//                            missing reason. Suppressions are part of the
//                            tree's audit trail; a reason is mandatory.
//
// Suppression grammar (inside any comment):
//   // spider-lint: allow(rule-name) <reason>        one line: its own line
//   //                                               if code shares it, else
//   //                                               the next line
//   // spider-lint: allow-file(rule-name) <reason>   whole file
//   // spider-lint: timing-only <reason>             whole file, exempts
//   //                                               steady_clock only
#include <algorithm>
#include <cctype>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/json.h"

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Rule registry.

struct RuleInfo {
  std::string_view name;
  std::string_view summary;
  std::string_view hint;  // the fix hint attached to every finding
};

constexpr RuleInfo kRules[] = {
    {"det-unordered-iteration",
     "iteration over an unordered container (order is hashing-internal)",
     "switch to std::map / sorted vector so the container iterates in key "
     "order; else copy the elements and sort by a stable key before anything "
     "order-dependent, or suppress with a reason proving the order cannot "
     "escape"},
    {"det-banned-sources",
     "non-deterministic source (wall clock / global RNG / unseeded engine)",
     "draw from the world's seeded sim::Rng; wall-clock timing belongs in "
     "timing-only annotated files (e.g. sweep.cc)"},
    {"det-pointer-order",
     "ordering derived from pointer values (addresses differ run to run)",
     "order by a stable id (attach id, bssid, name) instead of the pointer"},
    {"hot-path-alloc",
     "allocation idiom inside a SPIDER_HOT function",
     "hot paths allocate nothing in steady state: reserve() the container "
     "up front, or use arena scratch, pooled nodes, or interned payloads "
     "(see DESIGN.md)"},
    {"check-policy",
     "raw assert()/abort() bypasses the SPIDER_CHECK policy layer",
     "use SPIDER_CHECK / SPIDER_DCHECK / SPIDER_UNREACHABLE from "
     "core/check.h so failures are streamed, counted, and policy-switchable"},
    {"lint-suppression",
     "malformed spider-lint suppression directive",
     "write `// spider-lint: allow(rule-name) <reason>` — the rule must "
     "exist and the reason must not be empty"},
};

bool known_rule(std::string_view name) {
  for (const RuleInfo& r : kRules) {
    if (r.name == name) return true;
  }
  return false;
}

std::string_view hint_for(std::string_view rule) {
  for (const RuleInfo& r : kRules) {
    if (r.name == rule) return r.hint;
  }
  return {};
}

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

// ---------------------------------------------------------------------------
// Source model: raw lines for directive parsing, a stripped "code view"
// (comments, string/char literals, and preprocessor lines blanked to spaces,
// preserving offsets) for rule matching.

struct SourceFile {
  std::string path;
  std::vector<std::string> raw;
  std::vector<std::string> code;
  std::string flat;                  // code lines joined by '\n'
  std::vector<std::size_t> starts;   // flat offset of each line's first char
  std::set<std::string> file_allow;  // rules allowed file-wide
  std::map<int, std::set<std::string>> line_allow;  // 1-based
  bool timing_only = false;
};

int line_of(const SourceFile& f, std::size_t flat_offset) {
  auto it = std::upper_bound(f.starts.begin(), f.starts.end(), flat_offset);
  return static_cast<int>(it - f.starts.begin());
}

// Blanks comments and literal contents. State machine over the whole file so
// block comments and raw strings spanning lines are handled.
std::vector<std::string> strip_comments_and_strings(
    const std::vector<std::string>& raw) {
  std::vector<std::string> out(raw.size());
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar,
                     kRawString };
  State state = State::kCode;
  std::string raw_delim;  // for kRawString: the `)delim"` closer
  for (std::size_t li = 0; li < raw.size(); ++li) {
    const std::string& in = raw[li];
    std::string& line = out[li];
    line.assign(in.size(), ' ');
    if (state == State::kLineComment) state = State::kCode;
    for (std::size_t i = 0; i < in.size(); ++i) {
      const char c = in[i];
      const char next = i + 1 < in.size() ? in[i + 1] : '\0';
      switch (state) {
        case State::kCode:
          if (c == '/' && next == '/') {
            state = State::kLineComment;
            ++i;
          } else if (c == '/' && next == '*') {
            state = State::kBlockComment;
            ++i;
          } else if (c == 'R' && next == '"' &&
                     (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                     in[i - 1])) &&
                                 in[i - 1] != '_'))) {
            std::size_t open = in.find('(', i + 2);
            if (open != std::string::npos) {
              raw_delim.assign(1, ')');
              raw_delim.append(in, i + 2, open - i - 2);
              raw_delim.push_back('"');
              state = State::kRawString;
              i = open;
            }
          } else if (c == '"') {
            state = State::kString;
          } else if (c == '\'') {
            state = State::kChar;
          } else {
            line[i] = c;
          }
          break;
        case State::kLineComment:
          break;  // rest of line is comment
        case State::kBlockComment:
          if (c == '*' && next == '/') {
            state = State::kCode;
            ++i;
          }
          break;
        case State::kString:
          if (c == '\\') {
            ++i;
          } else if (c == '"') {
            state = State::kCode;
          }
          break;
        case State::kChar:
          if (c == '\\') {
            ++i;
          } else if (c == '\'') {
            state = State::kCode;
          }
          break;
        case State::kRawString:
          if (in.compare(i, raw_delim.size(), raw_delim) == 0) {
            i += raw_delim.size() - 1;
            state = State::kCode;
          }
          break;
      }
    }
    if (state == State::kLineComment) state = State::kCode;
  }
  return out;
}

void blank_preprocessor_lines(const std::vector<std::string>& raw,
                              std::vector<std::string>& code) {
  bool continuation = false;
  for (std::size_t li = 0; li < code.size(); ++li) {
    const std::string& c = code[li];
    const std::size_t first = c.find_first_not_of(" \t");
    const bool directive = first != std::string::npos && c[first] == '#';
    if (directive || continuation) {
      continuation = !raw[li].empty() && raw[li].back() == '\\';
      std::fill(code[li].begin(), code[li].end(), ' ');
    } else {
      continuation = false;
    }
  }
}

std::string trim(std::string_view s) {
  std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string_view::npos) return {};
  std::size_t e = s.find_last_not_of(" \t");
  return std::string(s.substr(b, e - b + 1));
}

// Parses `spider-lint:` directives out of the raw lines.
void parse_directives(SourceFile& f, std::vector<Finding>& findings) {
  static constexpr std::string_view kTag = "spider-lint:";
  for (std::size_t li = 0; li < f.raw.size(); ++li) {
    const std::string& line = f.raw[li];
    const std::size_t tag = line.find(kTag);
    if (tag == std::string::npos) continue;
    const int lineno = static_cast<int>(li + 1);
    std::string rest = trim(line.substr(tag + kTag.size()));
    const auto bad = [&](std::string message) {
      findings.push_back(
          {f.path, lineno, "lint-suppression", std::move(message)});
    };
    if (rest.rfind("timing-only", 0) == 0) {
      if (trim(rest.substr(std::string_view("timing-only").size())).empty()) {
        bad("timing-only annotation without a reason");
      } else {
        f.timing_only = true;
      }
      continue;
    }
    const bool file_wide = rest.rfind("allow-file(", 0) == 0;
    const bool one_line = rest.rfind("allow(", 0) == 0;
    if (!file_wide && !one_line) {
      bad("unknown spider-lint directive: '" + rest + "'");
      continue;
    }
    const std::size_t open = rest.find('(');
    const std::size_t close = rest.find(')', open);
    if (close == std::string::npos) {
      bad("suppression missing closing ')'");
      continue;
    }
    const std::string rule = trim(rest.substr(open + 1, close - open - 1));
    const std::string reason = trim(rest.substr(close + 1));
    if (!known_rule(rule)) {
      bad("suppression names unknown rule '" + rule + "'");
      continue;
    }
    if (reason.empty()) {
      bad("suppression of '" + rule + "' carries no reason");
      continue;
    }
    if (file_wide) {
      f.file_allow.insert(rule);
    } else {
      // A comment-only line shields the next line; a trailing comment
      // shields its own.
      const bool own_code = trim(f.code[li]).empty() == false;
      const int target = own_code ? lineno : lineno + 1;
      f.line_allow[target].insert(rule);
    }
  }
}

bool suppressed(const SourceFile& f, std::string_view rule, int line) {
  if (f.file_allow.count(std::string(rule)) != 0) return true;
  auto it = f.line_allow.find(line);
  return it != f.line_allow.end() && it->second.count(std::string(rule)) != 0;
}

// ---------------------------------------------------------------------------
// Identifier helpers.

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool token_at(const std::string& text, std::size_t pos,
              std::string_view token) {
  if (text.compare(pos, token.size(), token) != 0) return false;
  if (pos > 0 && ident_char(text[pos - 1])) return false;
  const std::size_t end = pos + token.size();
  return end >= text.size() || !ident_char(text[end]);
}

// Finds every whole-token occurrence of `token` in `text`.
std::vector<std::size_t> token_positions(const std::string& text,
                                         std::string_view token) {
  std::vector<std::size_t> out;
  for (std::size_t pos = text.find(token); pos != std::string::npos;
       pos = text.find(token, pos + 1)) {
    if (token_at(text, pos, token)) out.push_back(pos);
  }
  return out;
}

// Matches `<...>` starting at the '<' at `open`; returns offset past the
// closing '>' or npos. Treats '>>' as two closes (template context).
std::size_t match_angles(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '<') ++depth;
    if (text[i] == '>') {
      if (--depth == 0) return i + 1;
    }
    if (text[i] == ';') return std::string::npos;  // gave up: not a template
  }
  return std::string::npos;
}

std::size_t match_parens(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')') {
      if (--depth == 0) return i + 1;
    }
  }
  return std::string::npos;
}

std::size_t skip_ws(const std::string& text, std::size_t i) {
  while (i < text.size() &&
         std::isspace(static_cast<unsigned char>(text[i])) != 0) {
    ++i;
  }
  return i;
}

// ---------------------------------------------------------------------------
// Pass 1: project-wide table of identifiers with unordered container types
// (variables, members, parameters, and functions returning one), plus type
// aliases of unordered containers. Lexical and project-wide by design: a
// name collision costs one suppression, a missed member costs a digest bug.

struct UnorderedSymbols {
  std::set<std::string> vars;
  std::set<std::string> aliases;
};

void collect_unordered_symbols(const SourceFile& f, UnorderedSymbols& table) {
  const std::string& text = f.flat;
  static const std::regex kAlias(
      R"(\busing\s+(\w+)\s*=\s*[^;]*\bunordered_(?:map|set|multimap|multiset)\b)");
  for (std::sregex_iterator it(text.begin(), text.end(), kAlias), end;
       it != end; ++it) {
    table.aliases.insert((*it)[1].str());
  }
  static constexpr std::string_view kKinds[] = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  for (std::string_view kind : kKinds) {
    for (std::size_t pos : token_positions(text, kind)) {
      std::size_t i = skip_ws(text, pos + kind.size());
      if (i >= text.size() || text[i] != '<') continue;
      i = match_angles(text, i);
      if (i == std::string::npos) continue;
      i = skip_ws(text, i);
      while (i < text.size() && (text[i] == '&' || text[i] == '*')) {
        i = skip_ws(text, i + 1);
      }
      std::size_t name_begin = i;
      while (i < text.size() && ident_char(text[i])) ++i;
      if (i == name_begin) continue;  // e.g. `unordered_map<...>::iterator`
      const std::string name = text.substr(name_begin, i - name_begin);
      i = skip_ws(text, i);
      if (i < text.size() &&
          (text[i] == ';' || text[i] == '=' || text[i] == '{' ||
           text[i] == '(' || text[i] == ',' || text[i] == ')')) {
        table.vars.insert(name);
      }
    }
  }
}

void collect_alias_vars(const SourceFile& f, UnorderedSymbols& table) {
  const std::string& text = f.flat;
  for (const std::string& alias : table.aliases) {
    for (std::size_t pos : token_positions(text, alias)) {
      std::size_t i = skip_ws(text, pos + alias.size());
      while (i < text.size() && (text[i] == '&' || text[i] == '*')) {
        i = skip_ws(text, i + 1);
      }
      std::size_t name_begin = i;
      while (i < text.size() && ident_char(text[i])) ++i;
      if (i == name_begin) continue;
      table.vars.insert(text.substr(name_begin, i - name_begin));
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: det-unordered-iteration.

void check_unordered_iteration(const SourceFile& f,
                               const UnorderedSymbols& table,
                               std::vector<Finding>& findings) {
  const std::string& text = f.flat;
  const auto flag = [&](std::size_t off, const std::string& name,
                        std::string_view via) {
    findings.push_back({f.path, line_of(f, off), "det-unordered-iteration",
                        "iteration over unordered container '" + name +
                            "' via " + std::string(via) +
                            " — order depends on hashing internals"});
  };
  // Range-for: `for (decl : expr)` where expr mentions an unordered symbol.
  for (std::size_t pos : token_positions(text, "for")) {
    std::size_t open = skip_ws(text, pos + 3);
    if (open >= text.size() || text[open] != '(') continue;
    const std::size_t close = match_parens(text, open);
    if (close == std::string::npos) continue;
    const std::string inside = text.substr(open + 1, close - open - 2);
    // Find the range-for ':' at top level (not '::', not in nested parens).
    std::size_t colon = std::string::npos;
    int depth = 0;
    for (std::size_t i = 0; i < inside.size(); ++i) {
      const char c = inside[i];
      if (c == '(' || c == '[' || c == '<' || c == '{') ++depth;
      if (c == ')' || c == ']' || c == '>' || c == '}') --depth;
      if (c == ';') {
        colon = std::string::npos;
        break;  // classic for loop
      }
      if (c == ':' && depth == 0) {
        if ((i > 0 && inside[i - 1] == ':') ||
            (i + 1 < inside.size() && inside[i + 1] == ':')) {
          continue;
        }
        colon = i;
        break;
      }
    }
    if (colon == std::string::npos) continue;
    const std::string range = inside.substr(colon + 1);
    for (std::size_t i = 0; i < range.size();) {
      if (!ident_char(range[i])) {
        ++i;
        continue;
      }
      std::size_t b = i;
      while (i < range.size() && ident_char(range[i])) ++i;
      const std::string name = range.substr(b, i - b);
      if (table.vars.count(name) != 0) {
        flag(pos, name, "range-for");
        break;
      }
    }
  }
  // Iterator walks and in-order mutation: name.begin()/cbegin()/rbegin(),
  // std::erase_if(name, ...).
  static const std::regex kBegin(R"(\b(\w+)\s*(?:\.|->)\s*c?r?begin\s*\()");
  for (std::sregex_iterator it(text.begin(), text.end(), kBegin), end;
       it != end; ++it) {
    const std::string name = (*it)[1].str();
    if (table.vars.count(name) != 0) {
      flag(static_cast<std::size_t>(it->position()), name, "iterators");
    }
  }
  static const std::regex kEraseIf(R"(\berase_if\s*\(\s*(\w+))");
  for (std::sregex_iterator it(text.begin(), text.end(), kEraseIf), end;
       it != end; ++it) {
    const std::string name = (*it)[1].str();
    if (table.vars.count(name) != 0) {
      flag(static_cast<std::size_t>(it->position()), name, "std::erase_if");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: det-banned-sources.

void check_banned_sources(const SourceFile& f,
                          std::vector<Finding>& findings) {
  const std::string& text = f.flat;
  const auto flag = [&](std::size_t off, std::string message) {
    findings.push_back(
        {f.path, line_of(f, off), "det-banned-sources", std::move(message)});
  };
  struct Banned {
    std::string_view token;
    std::string_view message;
  };
  static constexpr Banned kTokens[] = {
      {"random_device", "std::random_device is hardware entropy — draws "
                        "differ every run"},
      {"system_clock", "std::chrono::system_clock reads the wall clock"},
  };
  for (const Banned& b : kTokens) {
    for (std::size_t pos : token_positions(text, b.token)) {
      flag(pos, std::string(b.message));
    }
  }
  if (!f.timing_only) {
    for (std::size_t pos : token_positions(text, "steady_clock")) {
      flag(pos,
           "std::chrono::steady_clock reads a host clock — allowed only in "
           "files annotated `spider-lint: timing-only`");
    }
  }
  for (std::size_t pos : token_positions(text, "rand")) {
    const std::size_t i = skip_ws(text, pos + 4);
    if (i < text.size() && text[i] == '(') {
      flag(pos, "std::rand() is a global, shared-state RNG");
    }
  }
  static const std::regex kTime(R"(\btime\s*\(\s*(?:nullptr|NULL|0)\s*\))");
  for (std::sregex_iterator it(text.begin(), text.end(), kTime), end;
       it != end; ++it) {
    flag(static_cast<std::size_t>(it->position()),
         "time(nullptr) reads the wall clock");
  }
  static const std::regex kUnseeded(
      R"(\b(mt19937(?:_64)?|minstd_rand0?|default_random_engine|ranlux(?:24|48)(?:_base)?|knuth_b)\s+\w+\s*;)");
  for (std::sregex_iterator it(text.begin(), text.end(), kUnseeded), end;
       it != end; ++it) {
    flag(static_cast<std::size_t>(it->position()),
         "default-constructed " + (*it)[1].str() +
             " uses the fixed default seed — seed it from the world's "
             "sim::Rng stream");
  }
}

// ---------------------------------------------------------------------------
// Rule: det-pointer-order.

void check_pointer_order(const SourceFile& f, std::vector<Finding>& findings) {
  const std::string& text = f.flat;
  const auto flag = [&](std::size_t off, std::string message) {
    findings.push_back(
        {f.path, line_of(f, off), "det-pointer-order", std::move(message)});
  };
  static const std::regex kHashOrLess(
      R"(\bstd::(hash|less)\s*<[^<>;]*\*[^<>;]*>)");
  for (std::sregex_iterator it(text.begin(), text.end(), kHashOrLess), end;
       it != end; ++it) {
    flag(static_cast<std::size_t>(it->position()),
         "std::" + (*it)[1].str() +
             "<T*> keys on the pointer value, which differs run to run");
  }
  static const std::regex kAddrCmp(
      R"(&\s*\w[\w.\[\]]*\s*[<>]=?\s*&\s*\w)");
  for (std::sregex_iterator it(text.begin(), text.end(), kAddrCmp), end;
       it != end; ++it) {
    flag(static_cast<std::size_t>(it->position()),
         "relational comparison of addresses orders on allocation layout");
  }
  // Comparator lambda ordering raw pointer values: (T* a, T* b) { return
  // a < b; } — dereferencing comparators (a->id < b->id) do not match.
  static const std::regex kPtrComparator(
      R"(\(\s*(?:const\s+)?\w+\s*\*\s*(?:const\s+)?(\w+)\s*,\s*(?:const\s+)?\w+\s*\*\s*(?:const\s+)?(\w+)\s*\)\s*\{\s*return\s+(\w+)\s*[<>]=?\s*(\w+)\s*;)");
  for (std::sregex_iterator it(text.begin(), text.end(), kPtrComparator), end;
       it != end; ++it) {
    const std::string a = (*it)[1].str();
    const std::string b = (*it)[2].str();
    const std::string lhs = (*it)[3].str();
    const std::string rhs = (*it)[4].str();
    if ((lhs == a && rhs == b) || (lhs == b && rhs == a)) {
      flag(static_cast<std::size_t>(it->position()),
           "comparator orders raw pointer values '" + a + "'/'" + b + "'");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: hot-path-alloc. Finds SPIDER_HOT-marked function bodies, then scans
// them for allocation idioms.

struct HotBody {
  std::size_t begin = 0;  // flat offset of '{'
  std::size_t end = 0;    // flat offset past '}'
};

std::vector<HotBody> find_hot_bodies(const SourceFile& f) {
  std::vector<HotBody> bodies;
  const std::string& text = f.flat;
  for (std::size_t pos : token_positions(text, "SPIDER_HOT")) {
    // Walk to the body '{': skip the signature, including parameter lists
    // (default arguments may contain braces — they live inside the parens).
    std::size_t i = pos + std::string_view("SPIDER_HOT").size();
    int paren_depth = 0;
    std::size_t body = std::string::npos;
    for (; i < text.size(); ++i) {
      const char c = text[i];
      if (c == '(') ++paren_depth;
      if (c == ')') --paren_depth;
      if (paren_depth != 0) continue;
      if (c == ';') break;  // declaration only — no body here
      if (c == '{') {
        body = i;
        break;
      }
    }
    if (body == std::string::npos) continue;
    int depth = 0;
    for (i = body; i < text.size(); ++i) {
      if (text[i] == '{') ++depth;
      if (text[i] == '}') {
        if (--depth == 0) {
          bodies.push_back({body, i + 1});
          break;
        }
      }
    }
  }
  return bodies;
}

void check_hot_path_alloc(const SourceFile& f, std::vector<Finding>& findings) {
  const std::string& text = f.flat;
  const auto flag = [&](std::size_t off, std::string message) {
    findings.push_back(
        {f.path, line_of(f, off), "hot-path-alloc", std::move(message)});
  };
  for (const HotBody& body : find_hot_bodies(f)) {
    const std::string scope =
        text.substr(body.begin, body.end - body.begin);
    const auto at = [&](std::size_t local) { return body.begin + local; };
    for (std::size_t pos : token_positions(scope, "new")) {
      flag(at(pos), "operator new in a SPIDER_HOT body");
    }
    for (std::string_view maker : {std::string_view("make_shared"),
                                   std::string_view("make_unique")}) {
      for (std::size_t pos : token_positions(scope, maker)) {
        flag(at(pos), std::string(maker) + " allocates in a SPIDER_HOT body");
      }
    }
    for (std::size_t pos : token_positions(scope, "function")) {
      if (pos >= 5 && scope.compare(pos - 5, 5, "std::") == 0) {
        flag(at(pos - 5),
             "std::function in a SPIDER_HOT body type-erases through the "
             "heap — use sim::SmallFn or a pooled node");
      }
    }
    // Container growth — push_back/emplace_back/resize — can reallocate. A
    // receiver is exempt only when the same file visibly reserves capacity
    // on it (`name.reserve(` / `name->reserve(`): constructors and init
    // paths count, because the contract is reserved-then-grown, not
    // reserved-inside-the-hot-body. Member spelling alone proves nothing.
    static const std::regex kGrow(
        R"((?:\.|->)\s*((?:push|emplace)_back|resize)\s*\()");
    for (std::sregex_iterator it(scope.begin(), scope.end(), kGrow), end;
         it != end; ++it) {
      std::size_t r = static_cast<std::size_t>(it->position());
      const std::string method = (*it)[1].str();
      // Walk back over the receiver: trailing index `[...]` then identifier.
      std::size_t j = r;
      while (j > 0 && std::isspace(static_cast<unsigned char>(scope[j - 1]))) {
        --j;
      }
      if (j > 0 && scope[j - 1] == ']') {
        int depth = 0;
        while (j > 0) {
          --j;
          if (scope[j] == ']') ++depth;
          if (scope[j] == '[' && --depth == 0) break;
        }
      }
      std::size_t name_end = j;
      while (j > 0 && ident_char(scope[j - 1])) --j;
      const std::string name = scope.substr(j, name_end - j);
      // Identifier characters only, so splicing the name into a regex is
      // safe without escaping.
      const bool reserved =
          !name.empty() &&
          std::regex_search(
              text, std::regex("\\b" + name + R"(\s*(?:\.|->)\s*reserve\s*\()"));
      if (!reserved) {
        flag(at(r), method + " on container '" + name +
                        "' with no visible reserve can reallocate on the "
                        "hot path");
      }
    }
    for (std::size_t pos : token_positions(scope, "to_string")) {
      if (pos >= 5 && scope.compare(pos - 5, 5, "std::") == 0) {
        flag(at(pos - 5), "std::to_string builds a heap string");
      }
    }
    static const std::regex kStringBuild(
        R"(\b(?:std::o?stringstream|std::string\s+\w+\s*[=({]|std::format\b))");
    for (std::sregex_iterator it(scope.begin(), scope.end(), kStringBuild),
         end;
         it != end; ++it) {
      flag(at(static_cast<std::size_t>(it->position())),
           "string building in a SPIDER_HOT body");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: check-policy.

void check_check_policy(const SourceFile& f, std::vector<Finding>& findings) {
  const std::string& text = f.flat;
  for (std::size_t pos : token_positions(text, "assert")) {
    const std::size_t i = skip_ws(text, pos + 6);
    if (i >= text.size() || text[i] != '(') continue;
    if (pos > 0 && text[pos - 1] == '.') continue;  // method named assert
    findings.push_back({f.path, line_of(f, pos), "check-policy",
                        "raw assert() — invariants go through SPIDER_CHECK / "
                        "SPIDER_DCHECK so they are streamed and counted"});
  }
  for (std::size_t pos : token_positions(text, "abort")) {
    const std::size_t i = skip_ws(text, pos + 5);
    if (i >= text.size() || text[i] != '(') continue;
    if (pos > 0 && text[pos - 1] == '.') continue;
    findings.push_back({f.path, line_of(f, pos), "check-policy",
                        "raw abort() — fatal paths belong to the check "
                        "policy layer (SPIDER_CHECK under Policy::kFatal)"});
  }
}

// ---------------------------------------------------------------------------
// Driver.

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".hpp" || ext == ".cpp";
}

bool load_file(const fs::path& path, SourceFile& f) {
  std::ifstream in(path);
  if (!in) return false;
  f.path = path.generic_string();
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    f.raw.push_back(line);
  }
  f.code = strip_comments_and_strings(f.raw);
  blank_preprocessor_lines(f.raw, f.code);
  f.starts.reserve(f.code.size());
  for (const std::string& c : f.code) {
    f.starts.push_back(f.flat.size());
    f.flat += c;
    f.flat += '\n';
  }
  return true;
}

std::string json_quoted(std::string_view s) {
  std::string out;
  spider::telemetry::append_json_quoted(out, s);
  return out;
}

void print_usage() {
  std::cerr << "usage: spider-lint [--json] [--list-rules] <path>...\n"
            << "  paths may be files or directories (recursed for "
               ".h/.cc/.hpp/.cpp)\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::vector<fs::path> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--list-rules") {
      for (const RuleInfo& r : kRules) {
        std::cout << r.name << "\n  " << r.summary << "\n  fix: " << r.hint
                  << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "spider-lint: unknown flag '" << arg << "'\n";
      print_usage();
      return 2;
    } else {
      roots.emplace_back(arg);
    }
  }
  if (roots.empty()) {
    print_usage();
    return 2;
  }

  std::vector<fs::path> paths;
  for (const fs::path& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(root, ec)) {
        if (entry.is_regular_file() && lintable(entry.path())) {
          paths.push_back(entry.path());
        }
      }
    } else if (fs::is_regular_file(root, ec)) {
      paths.push_back(root);
    } else {
      std::cerr << "spider-lint: cannot read '" << root.string() << "'\n";
      return 2;
    }
  }
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());

  std::vector<SourceFile> files;
  files.reserve(paths.size());
  std::vector<Finding> findings;
  for (const fs::path& p : paths) {
    SourceFile f;
    if (!load_file(p, f)) {
      std::cerr << "spider-lint: cannot read '" << p.string() << "'\n";
      return 2;
    }
    parse_directives(f, findings);
    files.push_back(std::move(f));
  }

  // Pass 1: project-wide unordered symbol table (types first, then variables
  // declared through aliases).
  UnorderedSymbols table;
  for (const SourceFile& f : files) collect_unordered_symbols(f, table);
  for (const SourceFile& f : files) collect_alias_vars(f, table);

  // Pass 2: rules.
  for (const SourceFile& f : files) {
    check_unordered_iteration(f, table, findings);
    check_banned_sources(f, findings);
    check_pointer_order(f, findings);
    check_hot_path_alloc(f, findings);
    check_check_policy(f, findings);
  }

  // Suppressions (lint-suppression findings are never suppressible: they
  // report defects in the suppressions themselves).
  std::vector<Finding> kept;
  for (Finding& fd : findings) {
    const SourceFile* file = nullptr;
    for (const SourceFile& f : files) {
      if (f.path == fd.file) {
        file = &f;
        break;
      }
    }
    if (fd.rule != "lint-suppression" && file != nullptr &&
        suppressed(*file, fd.rule, fd.line)) {
      continue;
    }
    kept.push_back(std::move(fd));
  }
  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
  });

  if (json) {
    std::cout << "{\"tool\":\"spider-lint\",\"count\":" << kept.size()
              << ",\"findings\":[";
    for (std::size_t i = 0; i < kept.size(); ++i) {
      const Finding& fd = kept[i];
      if (i != 0) std::cout << ",";
      std::cout << "{\"file\":" << json_quoted(fd.file)
                << ",\"line\":" << fd.line
                << ",\"rule\":" << json_quoted(fd.rule)
                << ",\"message\":" << json_quoted(fd.message)
                << ",\"hint\":" << json_quoted(hint_for(fd.rule)) << "}";
    }
    std::cout << "]}\n";
  } else {
    for (const Finding& fd : kept) {
      std::cout << fd.file << ":" << fd.line << ": [" << fd.rule << "] "
                << fd.message << "\n    hint: " << hint_for(fd.rule) << "\n";
    }
    std::cout << (kept.empty() ? "spider-lint: clean"
                               : "spider-lint: " +
                                     std::to_string(kept.size()) +
                                     " finding(s)")
              << " (" << paths.size() << " files)\n";
  }
  return kept.empty() ? 0 : 1;
}
