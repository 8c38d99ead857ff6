// Small fixed-seed runs of the differential oracle harness, so the core
// cross-engine invariants are exercised inside the unit-test binary too (the
// full sweep lives in the dgf_difftest ctest entry).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "testing/crash_point.h"
#include "testing/differential.h"
#include "testing/lsm_crash_sweep.h"
#include "testing/parser_fuzz.h"
#include "tests/test_util.h"

namespace dgf::testing {
namespace {

TEST(DifftestHarnessTest, DifferentialSeedsAgreeAcrossAllPaths) {
  DiffOptions options;
  options.seed = 17;
  options.num_queries = 25;
  ASSERT_OK_AND_ASSIGN(DiffReport report, RunDifferential(options));
  EXPECT_EQ(report.queries_run, 25);
  EXPECT_GE(report.comparisons, 4 * report.queries_run);
  for (const auto& divergence : report.divergences) {
    ADD_FAILURE() << divergence.ToString();
  }
}

TEST(DifftestHarnessTest, CaseReplayRunsExactlyOneCase) {
  DiffOptions options;
  options.seed = 17;
  options.num_queries = 25;
  options.only_case = 3;
  ASSERT_OK_AND_ASSIGN(DiffReport report, RunDifferential(options));
  EXPECT_EQ(report.queries_run, 1);
  EXPECT_TRUE(report.ok());
}

TEST(DifftestHarnessTest, CrashSweepCoversEveryPointAndRecovers) {
  CrashSweepOptions options;
  options.seed = 19;
  // Keep the gtest run light; the tier-1 smoke runs the full occurrence set.
  options.max_occurrences_per_point = 3;
  ASSERT_OK_AND_ASSIGN(CrashSweepReport report, RunLsmCrashSweep(options));
  EXPECT_EQ(report.points_covered, 11);
  EXPECT_GT(report.schedules_run, 0);
  for (const auto& failure : report.failures) {
    ADD_FAILURE() << failure;
  }
}

/// Toy world for the crash-sweep driver's failure paths: "toy.a" is crossed
/// `a_steps` times, then "toy.b" twice, then "other.c" (outside the sweep's
/// namespace) once. Recovery after a crash at the second toy.b step fails.
class ToyCrashWorld : public CrashSweepWorld {
 public:
  explicit ToyCrashWorld(int a_steps) : a_steps_(a_steps) {}

  Status Run() override {
    for (int i = 0; i < a_steps_; ++i) DGF_RETURN_IF_ERROR(Step("toy.a"));
    for (int i = 0; i < 2; ++i) {
      DGF_RETURN_IF_ERROR(Step("toy.b"));
      ++b_acked_;
    }
    return Step("other.c");
  }

  Status Recover() override {
    if (b_acked_ == 1) return Status::Corruption("lost an acknowledged step");
    return Status::OK();
  }

 private:
  static Status Step(const char* point) {
    DGF_CRASH_POINT(point);
    return Status::OK();
  }

  int a_steps_;
  int b_acked_ = 0;
};

TEST(DifftestHarnessTest, CrashSweepDriverReportsEveryFailureKind) {
  CrashSweep sweep;
  sweep.required_points = {"toy.a", "toy.b", "toy.never"};
  sweep.repro = " [repro: toy]";
  int worlds = 0;
  sweep.make_world = [&]() -> Result<std::unique_ptr<CrashSweepWorld>> {
    // The recording pass crosses toy.a three times, every replay only twice,
    // so the schedule armed at toy.a#3 never fires.
    return std::unique_ptr<CrashSweepWorld>(
        std::make_unique<ToyCrashWorld>(worlds++ == 0 ? 3 : 2));
  };
  ASSERT_OK_AND_ASSIGN(CrashSweepReport report, RunCrashSweep(sweep));
  EXPECT_EQ(report.points_covered, 2);  // other.c is outside "toy."
  EXPECT_EQ(report.schedules_run, 5);   // toy.a#1..3, toy.b#1..2
  EXPECT_EQ(worlds, 6);                 // recording + one per schedule

  auto reported = [&](const std::string& text) {
    return std::any_of(report.failures.begin(), report.failures.end(),
                       [&](const std::string& failure) {
                         return failure.find(text) != std::string::npos &&
                                failure.find("[repro: toy]") !=
                                    std::string::npos;
                       });
  };
  EXPECT_TRUE(reported("toy.b#2: Corruption: lost an acknowledged step"));
  EXPECT_TRUE(reported("never reached in recording: toy.never"));
  EXPECT_TRUE(reported("toy.a#3: armed crash never fired"));
  EXPECT_EQ(report.failures.size(), 3u);
  for (const auto& failure : report.failures) {
    EXPECT_EQ(failure.find("toy.b#1"), std::string::npos) << failure;
  }
}

TEST(DifftestHarnessTest, FaultSweepNeverReturnsWrongData) {
  FaultSweepOptions options;
  options.seed = 23;
  options.num_queries = 15;
  ASSERT_OK_AND_ASSIGN(FaultReport report, RunFaultSweep(options));
  EXPECT_EQ(report.queries_run, 15);
  EXPECT_GT(report.faults_injected, 0u);
  for (const auto& divergence : report.divergences) {
    ADD_FAILURE() << divergence.ToString();
  }
}

TEST(DifftestHarnessTest, ParserFuzzNeverCrashesOrLosesErrors) {
  ParserFuzzOptions options;
  options.seed = 29;
  options.num_cases = 150;
  ASSERT_OK_AND_ASSIGN(ParserFuzzReport report, RunParserFuzz(options));
  EXPECT_EQ(report.cases_run, 150);
  EXPECT_GT(report.parse_error, 0);
  for (const auto& failure : report.failures) {
    ADD_FAILURE() << failure;
  }
}

TEST(DifftestHarnessTest, FuzzInputsAreSeedReplayable) {
  EXPECT_EQ(GenerateFuzzQuery(29, 7), GenerateFuzzQuery(29, 7));
  EXPECT_NE(GenerateFuzzQuery(29, 7), GenerateFuzzQuery(29, 8));
}

}  // namespace
}  // namespace dgf::testing
