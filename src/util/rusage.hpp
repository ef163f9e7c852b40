// In-process resource measurement for Table IV (runtime of Monte Carlo
// campaigns): wall-clock time and the process's CPU time across every
// thread, measured around one workload.
#ifndef VSSTAT_UTIL_RUSAGE_HPP
#define VSSTAT_UTIL_RUSAGE_HPP

#include <functional>

namespace vsstat::util {

/// Resources one workload consumed.
struct CampaignUsage {
  double wallSeconds = 0.0;   ///< wall-clock duration
  double cpuSeconds = 0.0;    ///< user+system CPU time of the process
  int exitCode = 0;           ///< 0 == success, 1 == the workload threw
};

/// Runs `workload` in this process and reports its wall and CPU time.  A
/// workload that throws a std::exception is reported via exitCode 1.
CampaignUsage runInProcess(const std::function<void()>& workload);

}  // namespace vsstat::util

#endif  // VSSTAT_UTIL_RUSAGE_HPP
