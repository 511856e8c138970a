#ifndef CRASHSIM_TESTS_TESTING_TEMP_PATH_H_
#define CRASHSIM_TESTS_TESTING_TEMP_PATH_H_

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

namespace crashsim::test {

// A scratch-file path no other test can collide with, removed when the
// TempPath goes out of scope.
//
// gtest_discover_tests runs every TEST in its own process, so a per-process
// counter restarts at 0 in each of them, and plain and sanitizer build trees
// share testing::TempDir(): a fixed or counter-only name lets tests running
// under `ctest -j` overwrite and delete each other's files. The name here
// joins the running test's suite and name, the pid, and a per-process
// sequence number; `name` tells several files of one test apart and carries
// the extension. This is the only place that may spell a path under
// testing::TempDir() (lint rule temp-path-literal).
class TempPath {
 public:
  explicit TempPath(const std::string& name) {
    std::string test = "no_test";
    if (const ::testing::TestInfo* info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        info != nullptr) {
      test = std::string(info->test_suite_name()) + "." + info->name();
    }
    // Parameterised suites and tests put '/' in their names.
    for (char& c : test) {
      if (c == '/') c = '_';
    }
    static std::atomic<int> sequence{0};
    std::string dir = ::testing::TempDir();
    if (dir.empty() || dir.back() != '/') dir += '/';
    path_ = dir + "crashsim_" + test + "_" + std::to_string(getpid()) + "_" +
            std::to_string(sequence.fetch_add(1)) + "_" + name;
    std::remove(path_.c_str());
  }
  ~TempPath() { std::remove(path_.c_str()); }

  TempPath(const TempPath&) = delete;
  TempPath& operator=(const TempPath&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace crashsim::test

#endif  // CRASHSIM_TESTS_TESTING_TEMP_PATH_H_
