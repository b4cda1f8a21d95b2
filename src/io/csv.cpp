#include "io/csv.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <ostream>

namespace dirant::io {

namespace {

bool is_sep(char c) {
  return c == ' ' || c == ',' || c == ';' || c == '\t' || c == '\r';
}

/// Split `line` on separators into at most 4 tokens; returns the count
/// (4 means "too many").  Tokens are [begin, end) views into `line`.
int tokenize(const std::string& line, std::pair<size_t, size_t> (&tok)[4]) {
  int count = 0;
  size_t i = 0;
  const size_t len = line.size();
  while (i < len) {
    while (i < len && is_sep(line[i])) ++i;
    if (i >= len) break;
    const size_t begin = i;
    while (i < len && !is_sep(line[i])) ++i;
    if (count == 4) return 5;
    if (count < 4) tok[count] = {begin, i};
    ++count;
  }
  return count;
}

/// Strict double parse: the whole token must be consumed.  strtod accepts
/// "nan"/"inf" spellings (unlike istream extraction, which would silently
/// skip them) — finiteness is checked by the caller so the error can name
/// the offence.
bool parse_double(const std::string& line, std::pair<size_t, size_t> tok,
                  double& out) {
  const std::string field = line.substr(tok.first, tok.second - tok.first);
  const char* begin = field.c_str();
  char* end = nullptr;
  out = std::strtod(begin, &end);
  return end == begin + field.size();
}

Instance parse(std::istream& in, const std::string& file) {
  Instance inst;
  int columns = 0;  // 0 = undecided, else 2 or 3
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::pair<size_t, size_t> tok[4];
    const int count = tokenize(line, tok);
    if (count == 0) continue;  // blank / comment line
    if (count == 1) throw CsvError(file, lineno, "missing y coordinate");
    if (count > 3) throw CsvError(file, lineno, "too many fields");
    if (columns == 0) {
      columns = count;
    } else if (count != columns) {
      throw CsvError(file, lineno,
                     count > columns ? "unexpected antenna-count column"
                                     : "missing antenna-count column");
    }
    double x, y;
    if (!parse_double(line, tok[0], x)) {
      throw CsvError(file, lineno, "unparseable x coordinate");
    }
    if (!parse_double(line, tok[1], y)) {
      throw CsvError(file, lineno, "unparseable y coordinate");
    }
    if (!std::isfinite(x) || !std::isfinite(y)) {
      throw CsvError(file, lineno, "non-finite coordinate");
    }
    if (columns == 3) {
      double k;
      if (!parse_double(line, tok[2], k) || k != std::floor(k)) {
        throw CsvError(file, lineno, "unparseable antenna count");
      }
      if (!(k >= 1 && k <= kMaxAntennaCount)) {
        throw CsvError(file, lineno,
                       "antenna count out of range [1, " +
                           std::to_string(kMaxAntennaCount) + "]");
      }
      inst.antenna_counts.push_back(static_cast<int>(k));
    }
    inst.points.push_back({x, y});
  }
  return inst;
}

}  // namespace

Instance read_instance(std::istream& in, const std::string& file) {
  return parse(in, file);
}

std::vector<geom::Point> read_points(std::istream& in) {
  Instance inst = parse(in, "<stream>");
  if (!inst.antenna_counts.empty()) {
    throw CsvError("<stream>", 1, "unexpected antenna-count column");
  }
  return std::move(inst.points);
}

std::vector<geom::Point> read_points_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw CsvError(path, 0, "cannot open");
  Instance inst = parse(in, path);
  if (!inst.antenna_counts.empty()) {
    throw CsvError(path, 1, "unexpected antenna-count column");
  }
  return std::move(inst.points);
}

void write_points(std::ostream& out, std::span<const geom::Point> pts) {
  out.precision(17);
  for (const auto& p : pts) out << p.x << ' ' << p.y << '\n';
}

}  // namespace dirant::io
