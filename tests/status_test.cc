#include "src/util/status.h"

#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "src/util/check.h"

namespace svx {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(Status, CodesPrintByName) {
  // A failed EXPECT_EQ on two codes shows their names, not their bytes.
  EXPECT_EQ(testing::PrintToString(StatusCode::kParseError), "ParseError");
  EXPECT_EQ(testing::PrintToString(StatusCode::kOk), "OK");
}

TEST(Status, AllConstructorsSetCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::Unsupported("x").code(), StatusCode::kUnsupported);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(Result, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Result, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

// Status and Result are [[nodiscard]]: dropping a return is a compile error
// under -Werror=unused-result, which only a negative-compile harness can
// assert (tools/lint.sh carries one). Here we pin the positive side: every
// sanctioned way of consuming a Status still compiles.
TEST(Status, SanctionedConsumptionCompiles) {
  auto make = [] { return Status::NotFound("x"); };
  Status kept = make();
  EXPECT_FALSE(kept.ok());
  if (!make().ok()) {
    SUCCEED();
  }
  (void)make();  // explicit discard stays available for fire-and-forget
}

Status FailsAtStep(int failing_step, int* reached) {
  *reached = 1;
  SVX_RETURN_IF_ERROR(failing_step == 1 ? Status::ParseError("step 1")
                                        : Status::OK());
  *reached = 2;
  SVX_RETURN_IF_ERROR(failing_step == 2 ? Status::Internal("step 2")
                                        : Status::OK());
  *reached = 3;
  return Status::OK();
}

TEST(StatusMacros, ReturnIfErrorPropagatesFirstError) {
  int reached = 0;
  Status s = FailsAtStep(1, &reached);
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(reached, 1);

  s = FailsAtStep(2, &reached);
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_EQ(reached, 2);
}

TEST(StatusMacros, ReturnIfErrorFallsThroughOnOk) {
  int reached = 0;
  EXPECT_TRUE(FailsAtStep(0, &reached).ok());
  EXPECT_EQ(reached, 3);
}

Result<int> Doubled(Result<int> input) {
  SVX_ASSIGN_OR_RETURN(int v, std::move(input));
  return 2 * v;
}

TEST(StatusMacros, AssignOrReturnUnwrapsValue) {
  Result<int> r = Doubled(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(StatusMacros, AssignOrReturnPropagatesError) {
  Result<int> r = Doubled(Status::ResourceExhausted("budget"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

Status TwoAssignsInOneFunction() {
  // Two expansions in one scope: __COUNTER__ must keep the temporaries
  // from colliding.
  SVX_ASSIGN_OR_RETURN(int a, Result<int>(1));
  SVX_ASSIGN_OR_RETURN(int b, Result<int>(2));
  return a + b == 3 ? Status::OK() : Status::Internal("bad sum");
}

TEST(StatusMacros, AssignOrReturnExpandsTwicePerScope) {
  EXPECT_TRUE(TwoAssignsInOneFunction().ok());
}

TEST(Checks, DcheckPassesOnTrueCondition) {
  SVX_DCHECK(1 + 1 == 2);
  SVX_DCHECK_MSG(true, "never printed");
  SUCCEED();
}

TEST(Checks, DcheckEvaluationMatchesBuildType) {
  int evaluations = 0;
  auto count = [&evaluations] {
    ++evaluations;
    return true;
  };
  SVX_DCHECK(count());
#ifdef NDEBUG
  EXPECT_EQ(evaluations, 0);  // release: condition compiled, never run
#else
  EXPECT_EQ(evaluations, 1);  // debug: full SVX_CHECK behavior
#endif
}

#if GTEST_HAS_DEATH_TEST && !defined(NDEBUG)
TEST(Checks, DcheckAbortsOnViolationInDebug) {
  EXPECT_DEATH(SVX_DCHECK_MSG(false, "boom"), "boom");
}
#endif

}  // namespace
}  // namespace svx
