// The BENCH_scaling.json section writer (bench/bench_json.hpp) and the
// committed file itself.  The writer replaced four hand-rolled splicers,
// two of which lost recorded data: x3 rewrote the file keeping only a
// hard-coded list of x6 sections (dropping churn and traffic), and x7's
// substring search for "churn" also matched the `"churn": "static"` field
// of every traffic row.  Both are reproduced on a copy of the committed
// file, which must also hold exactly the schema's sections (docs/perf.md).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_json.hpp"

namespace {

using dirant::bench::JsonSection;
using dirant::bench::read_sections;
using dirant::bench::write_sections;
using Sections = std::vector<JsonSection>;

const std::string kCommitted = DIRANT_BENCH_SCALING_JSON;

// The docs/perf.md schema, in file order.
const std::vector<std::string> kSchema = {
    "emst_orient",      "session_reuse",  "batch", "certify",
    "certify_parallel", "audit_parallel", "churn", "traffic"};

// Each bench's sections, with placeholder values of the recorded shapes.
const Sections kX3 = {{"emst_orient", "[\n    {\"n\": 1, \"x\": \"y\"}\n  ]"},
                      {"session_reuse", "{\"n\": 2, \"k\": 2}"},
                      {"batch", "{\"instances\": 3, \"speedup\": 1.5}"}};
const Sections kX6 = {{"certify", "[{\"n\": 4, \"scc_count\": 1}]"},
                      {"certify_parallel", "[\n  ]"},
                      {"audit_parallel", "[{\"n\": 5, \"level_ms\": 0.25}]"}};
const Sections kX7 = {{"churn", "[{\"workload\": \"small_batch\", \"n\": 6}]"}};
const Sections kX8 = {
    {"traffic", "[{\"churn\": \"poisson\", \"note\": \"] } , \\\" [\"}]"}};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

std::vector<std::string> names(const Sections& members) {
  std::vector<std::string> out;
  for (const auto& m : members) out.push_back(m.name);
  return out;
}

class SectionWriter : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("bench_json_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".json"))
                .string();
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }
  Sections written() const { return read_sections(slurp(path_)); }
  std::string path_;
};

TEST(CommittedTrajectory, HoldsExactlyTheSchemaSections) {
  EXPECT_EQ(names(read_sections(slurp(kCommitted))), kSchema);
}

TEST_F(SectionWriter, RewritesTheCommittedFileByteForByte) {
  spit(path_, slurp(kCommitted));
  write_sections(path_, {});
  EXPECT_EQ(slurp(path_), slurp(kCommitted));
}

// Bug 1: a full x3 run kept only the x6 sections of an existing file.
TEST_F(SectionWriter, X3SectionsKeepEveryOtherSection) {
  const Sections before = read_sections(slurp(kCommitted));
  spit(path_, slurp(kCommitted));
  write_sections(path_, kX3);
  const Sections after = written();
  ASSERT_EQ(names(after), kSchema);
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].value, i < kX3.size() ? kX3[i].value : before[i].value)
        << after[i].name;
  }
}

// Bug 2: dropping "churn" by substring also erased traffic rows, each of
// which carries a "churn" field.
TEST_F(SectionWriter, ChurnReplacementLeavesTrafficRowsAlone) {
  const Sections before = read_sections(slurp(kCommitted));
  const auto at = [](const char* name) {
    return std::find(kSchema.begin(), kSchema.end(), name) - kSchema.begin();
  };
  ASSERT_NE(before[at("traffic")].value.find("\"churn\": \"static\""),
            std::string::npos);
  spit(path_, slurp(kCommitted));
  write_sections(path_, kX7);
  Sections expected = before;
  expected[at("churn")] = kX7[0];
  EXPECT_EQ(written(), expected);
}

TEST_F(SectionWriter, ReplacesFirstAndObjectValuedMembersInPlace) {
  spit(path_, "{\"a\": 1, \"b\": {\"c\": [2, {\"d\": 3}]}, \"e\": [\"]\"]}");
  write_sections(path_, {{"b", "{\"x\": {}}"}, {"a", "[]"}, {"f", "null"}});
  EXPECT_EQ(written(), (Sections{{"a", "[]"},
                                 {"b", "{\"x\": {}}"},
                                 {"e", "[\"]\"]"},
                                 {"f", "null"}}));
}

TEST_F(SectionWriter, MissingAndEmptyFilesStartFresh) {
  const std::string expected = "{\n  \"churn\": " + kX7[0].value + "\n}\n";
  write_sections(path_, kX7);
  EXPECT_EQ(slurp(path_), expected);
  for (const char* empty : {"", " \n\t\n"}) {
    spit(path_, empty);
    write_sections(path_, kX7);
    EXPECT_EQ(slurp(path_), expected);
  }
}

TEST_F(SectionWriter, BenchOrderDoesNotChangeTheMemberSet) {
  const std::vector<Sections> benches = {kX3, kX6, kX7, kX8};
  for (const auto& b : benches) write_sections(path_, b);
  Sections forward = written();
  // A rerun replaces, never accumulates.
  for (const auto& b : benches) write_sections(path_, b);
  EXPECT_EQ(written(), forward);
  std::filesystem::remove(path_);
  for (auto b = benches.rbegin(); b != benches.rend(); ++b) {
    write_sections(path_, *b);
  }
  Sections reverse = written();
  const auto by_name = [](const JsonSection& x, const JsonSection& y) {
    return x.name < y.name;
  };
  std::sort(forward.begin(), forward.end(), by_name);
  std::sort(reverse.begin(), reverse.end(), by_name);
  EXPECT_EQ(forward, reverse);
  EXPECT_EQ(forward.size(), kSchema.size());
}

TEST(ReadSections, StringsMayHoldBracketsCommasAndEscapes) {
  const Sections m = read_sections(
      "{\"a\\\"]\": \"} ] , \\\\\", \"b\": [\"[\", {\"c\": \"}\"}],\n"
      "\"d\": -1.5e-3, \"e\": true}");
  EXPECT_EQ(m, (Sections{{"a\\\"]", "\"} ] , \\\\\""},
                         {"b", "[\"[\", {\"c\": \"}\"}]"},
                         {"d", "-1.5e-3"},
                         {"e", "true"}}));
}

TEST_F(SectionWriter, UnparseableFileThrowsAndIsLeftUntouched) {
  const std::string committed = slurp(kCommitted);
  const std::vector<std::string> bad = {
      committed.substr(0, committed.size() / 2),  // truncated
      committed + "}",                            // trailing text
      "{\"a\": [1, 2}",      "{\"a\": 1",          "{\"a\": \"open}",
      "[1, 2]",              "{\"a\": 1, \"a\": 2}", "{\"a\": nan}",
      "{\"a\": 1,}",         "{a: 1}",             "{\"a\": [1 2]}",
      "{\"a\": 1.}",         "{\"a\": tru}",       "{\"a\": \"x\ny\"}"};
  for (const auto& text : bad) {
    spit(path_, text);
    EXPECT_THROW(write_sections(path_, kX7), std::runtime_error) << text;
    EXPECT_EQ(slurp(path_), text);
  }
}

TEST_F(SectionWriter, UnparseableSectionThrowsAndLeavesTheFileUntouched) {
  spit(path_, slurp(kCommitted));
  for (const char* value : {"[1, 2", "", "{} {}", "[\"]"}) {
    EXPECT_THROW(write_sections(path_, {{"churn", value}}), std::runtime_error)
        << value;
    EXPECT_EQ(slurp(path_), slurp(kCommitted));
  }
}

}  // namespace
