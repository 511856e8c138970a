// Front-end vocabulary shared by crashsim_cli and crashsim_serve: the exit
// code taxonomy, the engine flags, and the original-id lookup.
#ifndef CRASHSIM_TOOLS_CLI_COMMON_H_
#define CRASHSIM_TOOLS_CLI_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/crashsim.h"
#include "util/flags.h"
#include "util/status.h"

namespace crashsim {

// Maps a Status to the tools' exit code (docs/ERRORS.md). Parse/usage
// failures use 1, so every StatusCode gets its own code starting at 2.
inline int ExitCodeFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return 0;
    case StatusCode::kInvalidArgument: return 2;
    case StatusCode::kNotFound: return 3;
    case StatusCode::kDeadlineExceeded: return 4;
    case StatusCode::kCancelled: return 5;
    case StatusCode::kResourceExhausted: return 6;
    case StatusCode::kDataLoss: return 7;
    case StatusCode::kUnavailable: return 8;
  }
  return 1;
}

inline int FailStatus(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return ExitCodeFor(status);
}

// The CrashSim options the engine flags name: --c, --epsilon, --delta,
// --trials, --seed, --paper_mode, --threads and --batch_size.
inline CrashSimOptions CrashSimOptionsFromFlags(const FlagSet& flags) {
  CrashSimOptions opt;
  opt.mc.c = flags.GetDouble("c");
  opt.mc.epsilon = flags.GetDouble("epsilon");
  opt.mc.delta = flags.GetDouble("delta");
  opt.mc.trials_override = flags.GetInt("trials");
  opt.mc.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  opt.mode = flags.GetBool("paper_mode") ? RevReachMode::kPaper
                                         : RevReachMode::kCorrected;
  opt.num_threads = static_cast<int>(flags.GetInt("threads"));
  opt.batch_size = static_cast<int>(flags.GetInt("batch_size"));
  return opt;
}

// The dense internal id of an original file id.
inline StatusOr<NodeId> FindSource(const std::vector<int64_t>& original_ids,
                                   int64_t original) {
  for (size_t i = 0; i < original_ids.size(); ++i) {
    if (original_ids[i] == original) return static_cast<NodeId>(i);
  }
  return NotFoundError("source id not present in the graph");
}

}  // namespace crashsim

#endif  // CRASHSIM_TOOLS_CLI_COMMON_H_
