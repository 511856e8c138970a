// Fixture: the one file allowed to build paths under testing::TempDir()
// by concatenation — the shared helper itself.

#include <string>

namespace crashsim::test {

inline std::string HelperPath(const std::string& unique_name) {
  return testing::TempDir() + "/" + unique_name;
}

}  // namespace crashsim::test
