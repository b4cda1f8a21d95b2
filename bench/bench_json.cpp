#include "bench_json.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace dirant::bench {

namespace {

bool is_space(char c) {
  return c == ' ' || c == '\n' || c == '\r' || c == '\t';
}

/// A JSON number: it starts with '-' or a digit, ends with a digit, and
/// strtod takes all of it (so no "nan", "inf" or "1.").
bool is_number(const std::string& t) {
  const auto digit = [](char c) { return c >= '0' && c <= '9'; };
  if (t.empty() || !(t[0] == '-' || digit(t[0])) || !digit(t.back())) {
    return false;
  }
  char* end = nullptr;
  std::strtod(t.c_str(), &end);
  return *end == '\0';
}

/// Recursive-descent skipper over JSON text: validates every value it
/// passes and returns the value's text, never building a DOM.
struct Scanner {
  std::string_view s;
  std::string what;  ///< names the text in error messages
  size_t pos = 0;

  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error(what + ": malformed JSON at offset " +
                             std::to_string(pos) + ": " + why);
  }
  void skip_space() {
    while (pos < s.size() && is_space(s[pos])) ++pos;
  }
  bool at(char c) {
    skip_space();
    return pos < s.size() && s[pos] == c;
  }
  void expect(char c) {
    if (!at(c)) fail(std::string("expected '") + c + "'");
    ++pos;
  }
  void expect_end() {
    skip_space();
    if (pos != s.size()) fail("text after the value");
  }
  /// A string literal; returns its raw text between the quotes.
  std::string_view string() {
    expect('"');
    const size_t begin = pos;
    for (; pos < s.size() && s[pos] != '"'; ++pos) {
      if (static_cast<unsigned char>(s[pos]) < 0x20) fail("raw control char");
      if (s[pos] == '\\') ++pos;
    }
    if (pos >= s.size()) fail("unterminated string");
    return s.substr(begin, pos++ - begin);
  }
  /// The members of an object (`close` '}') or the elements of an array
  /// (']'), from just after the opening bracket through the closing one;
  /// `on_item(name, value)` sees each (name is empty in an array).
  template <typename F>
  void items(char close, F&& on_item) {
    while (!at(close)) {
      std::string_view name;
      if (close == '}') {
        name = string();
        expect(':');
      }
      on_item(name, value());
      if (!at(',')) break;
      ++pos;
      if (at(close)) fail("trailing comma");
    }
    expect(close);
  }
  /// Any value; returns its text.
  std::string_view value() {
    skip_space();
    const size_t begin = pos;
    if (at('"')) {
      string();
    } else if (at('{') || at('[')) {
      items(s[pos++] == '{' ? '}' : ']',
            [](std::string_view, std::string_view) {});
    } else {
      while (pos < s.size() && !is_space(s[pos]) && s[pos] != ',' &&
             s[pos] != '}' && s[pos] != ']') {
        ++pos;
      }
      const std::string t(s.substr(begin, pos - begin));
      if (!is_number(t) && t != "true" && t != "false" && t != "null") {
        pos = begin;
        fail("bad literal '" + t + "'");
      }
    }
    return s.substr(begin, pos - begin);
  }
};

std::vector<JsonSection> read_members(std::string_view text,
                                      std::string what) {
  Scanner sc{text, std::move(what)};
  std::vector<JsonSection> out;
  sc.skip_space();
  if (sc.pos == text.size()) return out;
  sc.expect('{');
  sc.items('}', [&](std::string_view name, std::string_view value) {
    if (std::any_of(out.begin(), out.end(),
                    [&](const JsonSection& m) { return m.name == name; })) {
      sc.fail("duplicate member \"" + std::string(name) + "\"");
    }
    out.push_back({std::string(name), std::string(value)});
  });
  sc.expect_end();
  return out;
}

}  // namespace

std::vector<JsonSection> read_sections(std::string_view text) {
  return read_members(text, "JSON text");
}

void write_sections(const std::string& path,
                    const std::vector<JsonSection>& sections) {
  std::ostringstream existing;
  if (std::ifstream in{path, std::ios::binary}) existing << in.rdbuf();
  std::vector<JsonSection> members = read_members(existing.str(), path);
  // Every new value is checked before the file is opened for writing.
  for (const auto& sec : sections) {
    Scanner sc{sec.value, "section \"" + sec.name + "\""};
    sc.value();
    sc.expect_end();
    const auto it = std::find_if(
        members.begin(), members.end(),
        [&](const JsonSection& m) { return m.name == sec.name; });
    if (it != members.end()) {
      it->value = sec.value;
    } else {
      members.push_back(sec);
    }
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "{\n";
  for (size_t i = 0; i < members.size(); ++i) {
    out << "  \"" << members[i].name << "\": " << members[i].value
        << (i + 1 < members.size() ? ",\n" : "\n");
  }
  if (!(out << "}\n").flush()) throw std::runtime_error("cannot write " + path);
}

std::string json_array(const std::vector<std::string>& rows) {
  std::string out = "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    out += "    " + rows[i] + (i + 1 < rows.size() ? ",\n" : "\n");
  }
  return out + "  ]";
}

std::string format(const char* fmt, ...) {
  va_list args, copy;
  va_start(args, fmt);
  va_copy(copy, args);
  std::string out(static_cast<size_t>(std::vsnprintf(nullptr, 0, fmt, copy)),
                  '\0');
  va_end(copy);
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

}  // namespace dirant::bench
