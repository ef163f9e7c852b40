// vsbench: the repository's end-to-end benchmark (built and run by
// perfbench/run.py).
//
//   vsbench --workload cell_warm|grid_edit|paper_batch --seed N
//           --seconds S --trace 0|1
//
// Prints report lines, then one JSON result line: {"correct", "attempted",
// "failed", "metrics"}.  --trace 0 reports the end-to-end metrics; --trace 1
// replays the same generated inputs through traced calls and reports the
// per-layer metrics.  Exits non-zero when a correctness check fails.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

int main(int argc, char** argv) {
  perfbench::Options options;
  bool haveWorkload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
      haveWorkload = true;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else {
      std::fprintf(stderr, "vsbench: unknown option %s\n", key.c_str());
      return 2;
    }
  }
  const bool serving =
      options.workload == "cell_warm" || options.workload == "grid_edit";
  if (!haveWorkload || (!serving && options.workload != "paper_batch") ||
      options.seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: vsbench --workload cell_warm|grid_edit|paper_batch "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  try {
    perfbench::Result result;
    const int rc = serving ? perfbench::runServing(options, result)
                           : perfbench::runPaper(options, result);
    result.print();
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vsbench: %s\n", e.what());
    return 3;
  }
}
