//===- TestHelpers.h - shared helpers for the test suites -------*- C++ -*-===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#ifndef ASYNCG_TESTS_TESTHELPERS_H
#define ASYNCG_TESTS_TESTHELPERS_H

#include "jsrt/Runtime.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <string>
#include <vector>

namespace asyncg {
namespace testhelpers {

/// A function that appends \p Tag to \p Log when invoked.
inline jsrt::Function recorder(jsrt::Runtime &RT, std::vector<std::string> &Log,
                               std::string Tag,
                               SourceLocation Loc = SourceLocation()) {
  return RT.makeFunction(Tag, Loc.isValid() ? Loc : JSLOC,
                         [&Log, Tag](jsrt::Runtime &, const jsrt::CallArgs &) {
                           Log.push_back(Tag);
                           return jsrt::Completion::normal();
                         });
}

/// Runs \p Body as the program's main tick and drains the loop.
inline void runMain(jsrt::Runtime &RT,
                    std::function<void(jsrt::Runtime &)> Body) {
  jsrt::Function Main = RT.makeFunction(
      "main", JSLOC, [Body = std::move(Body)](jsrt::Runtime &R,
                                              const jsrt::CallArgs &) {
        Body(R);
        return jsrt::Completion::normal();
      });
  RT.main(Main);
}

/// A temporary file path under ::testing::TempDir() that no other process
/// shares: it embeds the pid and the running test's full name, then
/// \p Name. ctest runs every test case as its own process, in parallel
/// under -j, so a fixed name would be overwritten and deleted by
/// concurrently running cases.
inline std::string testTempPath(const std::string &Name) {
  std::string Tail = "asyncg_" + std::to_string(::getpid()) + "_";
  if (const ::testing::TestInfo *Info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    Tail += Info->test_suite_name();
    Tail += ".";
    Tail += Info->name();
    Tail += "_";
  }
  Tail += Name;
  for (char &C : Tail)
    if (C == '/')
      C = '_'; // parameterized suite and test names contain '/'
  return ::testing::TempDir() + Tail;
}

} // namespace testhelpers
} // namespace asyncg

#endif // ASYNCG_TESTS_TESTHELPERS_H
