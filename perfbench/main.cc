// The repository benchmark's binary. Runs one workload and prints,
// as its last line, one JSON object with the keys correct, attempted,
// failed and metrics. perfbench/run.py builds this binary and runs it:
//
//   perfbench --workload <star_refresh|fleet_tick> --seed <n>
//             --seconds <s> --trace <0|1>
//
// A failed correctness check, a failed set-up step or an unsupported tail
// percentile ends the run with exit code 2 and no result line.

#include <cstdio>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args->workload = value;
      } else if (flag == "--seed") {
        args->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args->seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        args->trace = value == "1";
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <star_refresh|fleet_tick> "
                 "--seed <n> --seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 64;
  }
  perfbench::Report report;
  report.Meta("workload", args.workload);
  report.Meta("seed", static_cast<double>(args.seed));
  report.Meta("seconds", args.seconds);
  report.Meta("trace", args.trace ? 1 : 0);
  report.Meta("compiler", PERFBENCH_COMPILER);
  report.Meta("build_type", PERFBENCH_BUILD_TYPE);
  try {
    if (args.workload == "star_refresh") {
      perfbench::RunStarRefresh(args, &report);
    } else if (args.workload == "fleet_tick") {
      perfbench::RunFleetTick(args, &report);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 64;
    }
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s run failed: %s\n",
                 args.workload.c_str(), e.what());
    return 2;
  }
  report.Print();
  return 0;
}
