// Fixture: tests that take scratch paths from the helper, or only read
// testing::TempDir() without appending a literal, lint clean.

#include <string>

#include "testing/temp_path.h"

namespace crashsim {

void UsesTheHelper() {
  const test::TempPath file("events.jsonl");
  const std::string& path = file.path();
  (void)path;
}

void ReadsTheDirectoryOnly() {
  const std::string dir = testing::TempDir();
  (void)dir;
}

}  // namespace crashsim
