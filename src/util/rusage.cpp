#include "util/rusage.hpp"

#include <sys/resource.h>
#include <sys/time.h>

#include <chrono>
#include <exception>

namespace vsstat::util {

namespace {

double rusageCpuSeconds(const rusage& ru) {
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

}  // namespace

CampaignUsage runInProcess(const std::function<void()>& workload) {
  const auto start = std::chrono::steady_clock::now();
  rusage before{};
  ::getrusage(RUSAGE_SELF, &before);
  int code = 0;
  try {
    workload();
  } catch (const std::exception&) {
    code = 1;
  }
  rusage after{};
  ::getrusage(RUSAGE_SELF, &after);
  const auto end = std::chrono::steady_clock::now();

  CampaignUsage usage;
  usage.wallSeconds = std::chrono::duration<double>(end - start).count();
  usage.cpuSeconds = rusageCpuSeconds(after) - rusageCpuSeconds(before);
  usage.exitCode = code;
  return usage;
}

}  // namespace vsstat::util
