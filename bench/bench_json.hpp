#pragma once
/// \file bench_json.hpp
/// The one writer of BENCH_scaling.json.  The file is a single JSON object;
/// each bench owns a few of its top-level members ("sections") and replaces
/// only those, writing every other member back byte for byte — so the file
/// never depends on which bench ran first.  No google-benchmark dependency:
/// the writer's tests build in every variant, benches or not.

#include <string>
#include <string_view>
#include <vector>

namespace dirant::bench {

/// One top-level member of a JSON object: its name and its value's text.
struct JsonSection {
  std::string name;
  std::string value;
  bool operator==(const JsonSection&) const = default;
};

/// The top-level members of the JSON object `text`, in order, each value's
/// text verbatim.  Whitespace-only text reads as no members.  Scans by
/// balanced, string-aware brackets and throws std::runtime_error unless
/// `text` is exactly one well-formed object with unique member names.
std::vector<JsonSection> read_sections(std::string_view text);

/// Replaces each of `sections` in the JSON object file at `path` in place,
/// or appends it when the file has no member of that name; every other
/// member is written back verbatim.  A missing file reads as an empty
/// object.  Throws std::runtime_error, leaving the file untouched, when the
/// file or a new value does not parse.
void write_sections(const std::string& path,
                    const std::vector<JsonSection>& sections);

/// `rows` (each one rendered JSON value) as a JSON array, a row per line.
std::string json_array(const std::vector<std::string>& rows);

/// printf into a std::string: the row-rendering helper.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace dirant::bench
