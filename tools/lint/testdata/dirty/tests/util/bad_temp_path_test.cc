// Fixture: literal scratch paths under testing::TempDir() must produce
// temp-path-literal findings — concurrent test processes collide on them.

#include <string>

namespace crashsim {

std::string FixedName() {
  return testing::TempDir() + "/fixed.jsonl";  // MUST-FAIL
}

std::string CounterName(int counter) {
  return ::testing::TempDir() +
         "crashsim_" + std::to_string(counter) + ".txt";  // MUST-FAIL
}

std::string Justified() {
  // lint:allow(temp-path-literal): fixture for the suppression path
  return testing::TempDir() + "/allowed.txt";
}

}  // namespace crashsim
