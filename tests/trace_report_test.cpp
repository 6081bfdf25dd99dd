// Tests for the tracing subsystem, the report exporters, and the CLI
// argument parser.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "tools/args.hpp"
#include "trace/tracer.hpp"
#include "workloads/micro.hpp"

namespace glocks {
namespace {

TEST(Tracer, RecordsAndExports) {
  trace::Tracer tr;
  tr.complete(3, 100, 150, "acquire L0");
  tr.instant(1, 120, "mark");
  ASSERT_EQ(tr.events().size(), 2u);
  EXPECT_EQ(tr.events()[0].end - tr.events()[0].begin, 50u);

  std::ostringstream json;
  tr.write_chrome_json(json);
  EXPECT_NE(json.str().find("\"name\":\"acquire L0\""), std::string::npos);
  EXPECT_NE(json.str().find("\"dur\":50"), std::string::npos);
  EXPECT_NE(json.str().find("\"tid\":3"), std::string::npos);

  std::ostringstream text;
  tr.write_text(text);
  EXPECT_NE(text.str().find("[100..150] t3 acquire L0"), std::string::npos);
  EXPECT_NE(text.str().find("[120] t1 mark"), std::string::npos);
}

TEST(Tracer, CapacityBoundsAndDropCounting) {
  trace::Tracer tr(2);
  tr.instant(0, 1, "a");
  tr.instant(0, 2, "b");
  tr.instant(0, 3, "c");
  EXPECT_EQ(tr.events().size(), 2u);
  EXPECT_EQ(tr.dropped(), 1u);
}

TEST(Tracer, EscapesJsonSpecials) {
  trace::Tracer tr;
  tr.instant(0, 1, "quote\" slash\\ nl\n");
  std::ostringstream json;
  tr.write_chrome_json(json);
  EXPECT_NE(json.str().find("quote\\\" slash\\\\ nl\\n"),
            std::string::npos);
}

TEST(Tracer, LockEventsAppearDuringARun) {
  workloads::MicroParams p;
  p.total_iterations = 30;
  workloads::SingleCounter wl(p);
  harness::RunConfig cfg;
  cfg.cmp.num_cores = 4;
  cfg.policy.highly_contended = locks::LockKind::kGlock;
  trace::Tracer tr;
  cfg.tracer = &tr;
  harness::run_workload(wl, cfg);
  // 30 acquires + 30 releases.
  EXPECT_EQ(tr.events().size(), 60u);
  int acquires = 0;
  for (const auto& e : tr.events()) {
    if (e.name.rfind("acquire", 0) == 0) ++acquires;
    EXPECT_LE(e.begin, e.end);
  }
  EXPECT_EQ(acquires, 30);
}

TEST(Report, AllFormatsContainTheHeadlineNumbers) {
  workloads::MicroParams p;
  p.total_iterations = 40;
  workloads::SingleCounter wl(p);
  harness::RunConfig cfg;
  cfg.cmp.num_cores = 4;
  const auto r = harness::run_workload(wl, cfg);

  const std::string text = harness::summary_text(r);
  EXPECT_NE(text.find("workload SCTR"), std::string::npos);
  EXPECT_NE(text.find(std::to_string(r.cycles)), std::string::npos);
  EXPECT_NE(text.find("SCTR-L0"), std::string::npos);

  std::ostringstream csv;
  harness::write_csv_header(csv);
  harness::write_csv_row(r, csv);
  // Header columns == row columns.
  const std::string s = csv.str();
  const auto header_commas =
      std::count(s.begin(), s.begin() + static_cast<long>(s.find('\n')),
                 ',');
  const auto row_commas =
      std::count(s.begin() + static_cast<long>(s.find('\n')), s.end(), ',');
  EXPECT_EQ(header_commas, row_commas);

  std::ostringstream json;
  harness::write_json(r, json);
  EXPECT_NE(json.str().find("\"workload\": \"SCTR\""), std::string::npos);
  EXPECT_NE(json.str().find("\"census\": ["), std::string::npos);
}

TEST(Args, ParsesFlagsAndValues) {
  const char* argv[] = {"prog",    "--workload", "SCTR",  "--cores",
                        "16",      "--csv",      "--scale", "0.5"};
  tools::Args args(8, argv, {"csv", "json"},
                   {"workload", "cores", "scale"});
  EXPECT_EQ(args.get("workload"), "SCTR");
  EXPECT_EQ(args.get_u64("cores", 32), 16u);
  EXPECT_TRUE(args.has("csv"));
  EXPECT_FALSE(args.has("json"));
  EXPECT_DOUBLE_EQ(args.get_double("scale", 1.0), 0.5);
  EXPECT_EQ(args.get("absent", "dflt"), "dflt");
}

/// The UsageError message `fn` throws, or "" when it does not throw.
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const tools::UsageError& e) {
    return e.what();
  }
  return "";
}

TEST(Args, RejectsMalformedInput) {
  const char* bad1[] = {"prog", "stray"};
  EXPECT_THROW(tools::Args(2, bad1, {}, {}), tools::UsageError);
  const char* bad2[] = {"prog", "--needs-value"};
  EXPECT_THROW(tools::Args(2, bad2, {}, {"needs-value"}),
               tools::UsageError);

  // An undeclared flag is an error naming it, never silently ignored:
  // a misspelt --lock would otherwise run the default lock.
  const char* typo[] = {"prog", "--workload", "SCTR", "--lokc", "mcs"};
  const std::string typo_err = error_of(
      [&] { tools::Args(5, typo, {"csv"}, {"workload", "lock"}); });
  EXPECT_NE(typo_err.find("unknown flag --lokc"), std::string::npos)
      << typo_err;
  const char* retired[] = {"prog", "--threads", "4"};
  EXPECT_NE(error_of([&] { tools::Args(3, retired, {}, {"cores"}); })
                .find("unknown flag --threads"),
            std::string::npos);
  const char* bool_typo[] = {"prog", "--jsn"};
  EXPECT_NE(error_of([&] { tools::Args(2, bool_typo, {"json"}, {}); })
                .find("unknown flag --jsn"),
            std::string::npos);

  // Malformed numbers name the flag and the value, not a bare "stoull".
  const char* nums[] = {"prog", "--cores", "abc", "--seed", "-1",
                        "--jobs", "4x", "--big", "99999999999999999999",
                        "--scale", "half", "--ratio", ""};
  const tools::Args args(13, nums, {},
                         {"cores", "seed", "jobs", "big", "scale", "ratio"});
  const std::string cores_err = error_of([&] { args.get_u64("cores", 32); });
  EXPECT_NE(cores_err.find("--cores"), std::string::npos) << cores_err;
  EXPECT_NE(cores_err.find("'abc'"), std::string::npos) << cores_err;
  EXPECT_EQ(cores_err.find("stoull"), std::string::npos) << cores_err;
  EXPECT_NE(error_of([&] { args.get_u64("seed", 1); }).find("'-1'"),
            std::string::npos);
  EXPECT_NE(error_of([&] { args.get_u64("jobs", 1); }).find("'4x'"),
            std::string::npos);
  EXPECT_NE(error_of([&] { args.get_u64("big", 1); }).find("--big"),
            std::string::npos);
  const std::string scale_err =
      error_of([&] { args.get_double("scale", 1.0); });
  EXPECT_NE(scale_err.find("--scale"), std::string::npos) << scale_err;
  EXPECT_NE(scale_err.find("'half'"), std::string::npos) << scale_err;
  EXPECT_NE(error_of([&] { args.get_double("ratio", 1.0); }).find("--ratio"),
            std::string::npos);
  // List elements parse through the same check.
  EXPECT_NE(error_of([] { tools::Args::parse_u64("cores", "8,x"); })
                .find("--cores expects a non-negative integer, got '8,x'"),
            std::string::npos);
}

}  // namespace
}  // namespace glocks
