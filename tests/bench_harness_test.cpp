// Tests for the perf-harness plumbing (bench/harness.hpp): flag parsing,
// gates, baseline lookups and tolerances, and the JSON report writer.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "bench/harness.hpp"

namespace plin::bench {
namespace {

namespace fs = std::filesystem;

/// Writes `text` to a fresh file under the temp directory.
std::string temp_file(const std::string& name, const std::string& text) {
  const fs::path path = fs::temp_directory_path() / ("plin_harness_" + name);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
  return path.string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

const std::string kBaseline =
    R"({"iters":24,"duration_s":8,"load":{"requests":4000,"ratio":0.5}})";

TEST(HarnessFlagsTest, AcceptsKnownFlagsInEitherForm) {
  const char* argv[] = {"bench", "--smoke", "--out", "r.json", "--check=0"};
  const CliArgs args = parse_flags(5, argv, {"smoke", "check", "out"});
  EXPECT_TRUE(args.get_bool("smoke", false));
  EXPECT_FALSE(args.get_bool("check", true));
  EXPECT_EQ(args.get("out", ""), "r.json");
}

TEST(HarnessFlagsTest, BadCommandLineExitsTwo) {
  const char* unknown[] = {"bench", "--chekc"};
  EXPECT_EXIT(parse_flags(2, unknown, {"smoke", "check"}),
              testing::ExitedWithCode(2),
              "unknown flag\\(s\\): --chekc.*\nflags: --smoke --check");
  const char* positional[] = {"bench", "extra"};
  EXPECT_EXIT(parse_flags(2, positional, {"smoke"}),
              testing::ExitedWithCode(2), "unexpected argument 'extra'");
  // "--smoke extra" must not turn into smoke=extra (read as false).
  const char* swallowed[] = {"bench", "--smoke", "extra"};
  EXPECT_EXIT(parse_flags(3, swallowed, {"smoke"}),
              testing::ExitedWithCode(2), "unexpected argument 'extra'");
}

TEST(HarnessGatesTest, RecordPrintsEveryGateAndFailsTheExitCode) {
  std::ostringstream log;
  Gates gates(log);
  EXPECT_TRUE(gates.record("first", true, "not shown"));
  EXPECT_EQ(gates.exit_code(), 0);
  EXPECT_FALSE(gates.record("second", false, "why"));
  EXPECT_TRUE(gates.record("third", true));
  EXPECT_EQ(gates.exit_code(), 1);
  EXPECT_EQ(gates.exit_code(), 1);
  EXPECT_EQ(log.str(),
            "check: first=pass\ncheck: second=FAIL (why)\ncheck: third=pass\n");
}

TEST(HarnessBaselineTest, MissingFieldFailsTheGateAndNamesTheField) {
  std::ostringstream log;
  Gates gates(log);
  Baseline baseline(temp_file("missing.json", kBaseline), gates);
  EXPECT_EQ(gates.exit_code(), 0);
  EXPECT_FALSE(baseline.number("fused_iters").has_value());
  EXPECT_FALSE(baseline.compare("load.absent", 1.0, kExact));
  EXPECT_EQ(gates.exit_code(), 1);
  EXPECT_NE(log.str().find("check: baseline:fused_iters=FAIL"),
            std::string::npos);
  EXPECT_NE(log.str().find("'fused_iters'"), std::string::npos);
  EXPECT_NE(log.str().find("'load.absent'"), std::string::npos);
}

TEST(HarnessBaselineTest, NestedLookupFollowsDottedKeys) {
  std::ostringstream log;
  Gates gates(log);
  Baseline baseline(temp_file("nested.json", kBaseline), gates);
  EXPECT_EQ(baseline.number("load.requests"), 4000.0);
  EXPECT_EQ(baseline.number("load.ratio"), 0.5);
  EXPECT_EQ(baseline.number("iters"), 24.0);
  // An object is not a number, and a number has no members.
  EXPECT_FALSE(baseline.number("load").has_value());
  EXPECT_FALSE(baseline.number("iters.requests").has_value());
}

TEST(HarnessBaselineTest, UnreadableOrMalformedFileFailsTheGate) {
  for (const std::string& path :
       {temp_file("malformed.json", "{\"iters\": "),
        (fs::temp_directory_path() / "plin_harness_absent.json").string()}) {
    std::ostringstream log;
    Gates gates(log);
    Baseline baseline(path, gates);
    EXPECT_NE(log.str().find("check: baseline=FAIL"), std::string::npos);
    EXPECT_FALSE(baseline.compare("iters", 24.0, kExact));
    EXPECT_EQ(gates.exit_code(), 1);
  }
}

TEST(HarnessBaselineTest, ExactAndRelativeToleranceAtTheBoundary) {
  std::ostringstream log;
  Gates gates(log);
  Baseline baseline(temp_file("tolerance.json", kBaseline), gates);
  EXPECT_TRUE(baseline.compare("iters", 24.0, kExact));
  EXPECT_FALSE(baseline.compare("iters", std::nextafter(24.0, 25.0), kExact));
  // duration_s = 8: a 0.25 band is exactly [6, 10].
  EXPECT_TRUE(baseline.compare("duration_s", 10.0, within(0.25)));
  EXPECT_TRUE(baseline.compare("duration_s", 6.0, within(0.25)));
  EXPECT_FALSE(baseline.compare("duration_s", std::nextafter(10.0, 11.0),
                                within(0.25)));
  EXPECT_FALSE(baseline.compare("duration_s", std::nextafter(6.0, 5.0),
                                within(0.25)));
  // A ceiling of +50% is 12; anything lower passes.
  EXPECT_TRUE(baseline.compare("duration_s", 12.0, at_most(0.5)));
  EXPECT_TRUE(baseline.compare("duration_s", 0.0, at_most(0.5)));
  EXPECT_FALSE(baseline.compare("duration_s", std::nextafter(12.0, 13.0),
                                at_most(0.5)));
}

TEST(HarnessBaselineTest, NonFiniteMeasuredValueFailsWithoutThrowing) {
  std::ostringstream log;
  Gates gates(log);
  Baseline baseline(temp_file("nonfinite.json", kBaseline), gates);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(baseline.compare("duration_s", nan, within(1.0)));
  EXPECT_FALSE(baseline.compare("duration_s", inf, within(1.0)));
  EXPECT_FALSE(baseline.compare("duration_s", -inf, at_most(0.5)));
  EXPECT_NE(log.str().find("check: baseline:duration_s=FAIL (nan vs"),
            std::string::npos);
}

TEST(HarnessReportTest, WritesHeaderAndFieldsThroughJson) {
  std::ostringstream log;
  Gates gates(log);
  json::Value report = new_report("powerlin-bench-test/v1", true);
  report.set("iters", 24);
  const std::string path = temp_file("report.json", "");
  EXPECT_TRUE(write_report(path, report, gates));
  EXPECT_EQ(gates.exit_code(), 0);
  EXPECT_EQ(read_file(path),
            "{\"schema\":\"powerlin-bench-test/v1\",\"mode\":\"smoke\","
            "\"iters\":24}\n");
}

TEST(HarnessReportTest, NonFiniteFieldIsNullAndFailsItsGate) {
  std::ostringstream log;
  Gates gates(log);
  json::Value row = json::make_object();
  row.set("speedup", std::numeric_limits<double>::quiet_NaN());
  json::Value report = new_report("powerlin-bench-test/v1", false);
  report.set("rows", json::Array{json::Value(1.5), std::move(row)});
  const std::string path = temp_file("nonfinite_report.json", "");
  EXPECT_NO_THROW(write_report(path, report, gates));
  EXPECT_EQ(gates.exit_code(), 1);
  EXPECT_NE(log.str().find("check: finite:rows[1].speedup=FAIL"),
            std::string::npos);
  const json::Value written = json::parse(read_file(path));
  EXPECT_TRUE(written.at("rows").as_array().at(1).at("speedup").is_null());
  EXPECT_EQ(written.at("mode").as_string(), "full");
}

TEST(HarnessReportTest, UnwritablePathFailsTheReportGate) {
  std::ostringstream log;
  Gates gates(log);
  const std::string path =
      (fs::temp_directory_path() / "plin_harness_no_dir" / "r.json").string();
  EXPECT_FALSE(write_report(path, new_report("s", true), gates));
  EXPECT_NE(log.str().find("check: report=FAIL (cannot write"),
            std::string::npos);
  EXPECT_EQ(gates.exit_code(), 1);
}

}  // namespace
}  // namespace plin::bench
