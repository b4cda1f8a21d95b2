#pragma once
/// \file csv.hpp
/// Point-set I/O: whitespace/comma-separated "x y" per line (instances may
/// carry a third "k" antenna-count column), '#' comments.  Used by the CLI
/// examples so deployments can come from files.
///
/// Parsing is strict: every non-blank line must be a well-formed row, and
/// coordinates must be finite — NaN/Inf never reach the Delaunay/grid code,
/// where a single poisoned comparison corrupts the whole structure.
/// Violations throw CsvError, a structured (file, line, reason) error that
/// still derives from std::runtime_error for existing catch sites.

#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "geometry/point.hpp"

namespace dirant::io {

/// Largest per-node antenna count an instance file may request — the
/// planner's supported k range (core/planner.cpp: k in 1..5).
inline constexpr int kMaxAntennaCount = 5;

/// Structured parse error: what() reads "file:line: reason", and the parts
/// are available individually for programmatic handling.
class CsvError : public std::runtime_error {
 public:
  CsvError(std::string file, int line, std::string reason)
      : std::runtime_error(file + ":" + std::to_string(line) + ": " + reason),
        file_(std::move(file)),
        line_(line),
        reason_(std::move(reason)) {}

  const std::string& file() const { return file_; }
  int line() const { return line_; }
  const std::string& reason() const { return reason_; }

 private:
  std::string file_;
  int line_;
  std::string reason_;
};

/// A parsed instance: points, plus per-node antenna counts when the file
/// had a third column (empty otherwise — the caller's ProblemSpec k
/// applies uniformly).  Mixing 2- and 3-column rows is an error.
struct Instance {
  std::vector<geom::Point> points;
  std::vector<int> antenna_counts;
};

/// Parse "x y [k]" rows from a stream.  `file` labels errors.  Throws
/// CsvError on malformed rows, non-finite coordinates, or antenna counts
/// outside [1, kMaxAntennaCount].
Instance read_instance(std::istream& in, const std::string& file = "<stream>");

/// Parse points from a stream (strict 2-column form).  Throws CsvError
/// (a std::runtime_error) on malformed rows.
std::vector<geom::Point> read_points(std::istream& in);

/// Parse points from a file path.
std::vector<geom::Point> read_points_file(const std::string& path);

void write_points(std::ostream& out, std::span<const geom::Point> pts);

}  // namespace dirant::io
