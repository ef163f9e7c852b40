// Shared pieces of the end-to-end benchmark: options, timing helpers, the
// result record printed as the last stdout line, and the in-memory span
// tracer of the traced run.
#ifndef VSSTAT_PERFBENCH_BENCH_HPP
#define VSSTAT_PERFBENCH_BENCH_HPP

#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double msBetween(Clock::time_point a,
                                      Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double msSince(Clock::time_point a) {
  return msBetween(a, Clock::now());
}

// Timing on a shared host.  The end-to-end timings are CPU time of the
// threads doing the work: a thread's CPU clock does not advance while the
// thread waits in a run queue, nor (with the kernel's steal accounting)
// while the hypervisor runs another guest on its virtual CPU.  CPU time
// still stretches when another guest runs on the sibling hardware thread of
// the same core.  On the 4-vCPU VMs this benchmark was written on, each
// virtual CPU flips between full speed and about two thirds of it within
// seconds, independently of the others, and a run can spend anywhere from
// none to all of its time at the slower speed.  So the benchmark pins the
// threads that do timed work, probes the speed of their CPUs with a short
// reference kernel right before and after each timed unit, and scales the
// unit's CPU time by kReferenceProbeMs / (mean of those probes): the time
// the unit would take on a CPU that runs the probe in kReferenceProbeMs.
// A unit whose two probes disagree by more than kProbeAgreement ran while
// its CPU changed speed and cannot be scaled; it is left out.  Report lines
// give the probe quantiles, the units left out and wall times.

/// Reading of a CPU clock [ms]: CLOCK_THREAD_CPUTIME_ID or a clock from
/// threadCpuClock.
[[nodiscard]] double cpuMs(clockid_t clock);
/// The CPU clock of thread `tid` of this process.  Unlike the process
/// clock, which can lag a running thread by a scheduler tick, a thread's
/// clock includes its current time slice.
[[nodiscard]] clockid_t threadCpuClock(pid_t tid);
/// Ids of this process's live threads (/proc/self/task).
[[nodiscard]] std::vector<pid_t> threadIds();
/// The thread of this process that is not in `before`, once exactly one
/// such thread exists (throws after a few seconds without one).
[[nodiscard]] pid_t awaitNewThread(const std::vector<pid_t>& before);

/// CPU time of every live thread, keyed by thread id.
using ThreadCpu = std::vector<std::pair<pid_t, double>>;
[[nodiscard]] ThreadCpu threadCpuNow();
/// A thread's reading in `at` [ms] (0 for a thread started after it).
[[nodiscard]] double threadCpuIn(const ThreadCpu& at, pid_t tid);
/// CPU time every live thread spent since `before` [ms].
[[nodiscard]] double cpuMsSince(const ThreadCpu& before);

/// CPUs this process may run on (its affinity mask when first asked).
[[nodiscard]] const std::vector<int>& allowedCpus();
/// Pins thread `tid` (0: the calling thread) to `cpu`; cpu < 0 lets it run
/// on every allowed CPU again.
void pinThread(pid_t tid, int cpu);

/// The reference speed: the probe's time [ms] (about what it takes at full
/// speed on the machines this benchmark was written on).
inline constexpr double kReferenceProbeMs = 0.1;
/// Largest ratio of a unit's two probes for which the unit is kept.
inline constexpr double kProbeAgreement = 1.2;

/// The speed probes of one run.  Thread-safe.
class SpeedProbe {
 public:
  /// Runs the reference kernel on `cpu`, moving the calling thread there
  /// and then back to `home` (home < 0: every allowed CPU), and returns the
  /// kernel's CPU time [ms].  The CPU should have nothing else to run.
  double run(int cpu, int home);
  /// The mean probe of `cpus`, each run as above [ms].
  double runAll(const std::vector<int>& cpus, int home);
  /// "<count> probes, p5/p25/p50/p75 <ms>/<ms>/<ms>/<ms> ms".
  [[nodiscard]] std::string summary() const;

 private:
  mutable std::mutex mutex_;
  std::vector<double> probes_;
};

/// One timed unit: a CPU time and the probes right before and after it.
struct Probed {
  double ms = 0.0;
  double beforeMs = 0.0;
  double afterMs = 0.0;
  [[nodiscard]] bool steady() const noexcept {
    return std::max(beforeMs, afterMs) <=
           kProbeAgreement * std::min(beforeMs, afterMs);
  }
};

/// CPU times of the steady units at the reference speed [ms]:
/// ms * kReferenceProbeMs / (mean of the two probes).
[[nodiscard]] std::vector<double> scaledMs(const std::vector<Probed>& units);
/// "<steady> of <all> units".
[[nodiscard]] std::string steadyShare(const std::vector<Probed>& units);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Median of a copy (0 for an empty set).
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank quantile, q in (0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);
/// Peak resident set size of this process [MiB].
[[nodiscard]] double peakRssMiB();
/// "0x" + 16 hex digits, the fingerprint format of final frames.
[[nodiscard]] std::string hex(std::uint64_t v);
/// Deterministic 64-bit mix of the workload seed with a stream tag.
[[nodiscard]] std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t tag);

/// What one run reports: metrics, operation counts, correctness, and
/// the human-readable report lines printed before the result line.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Counts one operation; a failed one also prints its reason.
  void operation(bool ok, const std::string& what);
  /// A correctness check; any failure makes the run exit non-zero.
  void check(bool ok, const std::string& what);
  /// One report line ("report <key>: <text>").
  void note(const std::string& key, const std::string& text);

  /// Copies the metrics named `prefix`*, the operation counts, the
  /// correctness verdict and the report lines of another result.
  void merge(const Result& other, const std::string& prefix);
  /// Value of a recorded metric (0 when absent).
  [[nodiscard]] double value(const std::string& name) const;

  [[nodiscard]] bool correct() const noexcept { return correct_; }
  /// Prints the report lines, then the one-line JSON result.
  void print() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::string> notes_;
  long attempted_ = 0;
  long failed_ = 0;
  bool correct_ = true;
};

/// In-memory span recorder: one span per timed call, with its parent and
/// the request it belongs to.  Spans are written out when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    long request = -1;
    double startUs = 0.0;
    double endUs = 0.0;
    [[nodiscard]] double us() const noexcept { return endUs - startUs; }
  };

  Tracer() : origin_(Clock::now()) {}

  /// Opens a span under the innermost open span.
  int begin(const std::string& name, long request);
  void end(int span);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, const std::string& name, long request)
        : tracer_(tracer), id_(tracer.begin(name, request)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Summed duration of every span with this name [us].
  [[nodiscard]] double totalUs(const std::string& name) const;
  /// Summed self time (duration minus child coverage) [us].
  [[nodiscard]] double selfUs(const std::string& name) const;
  /// Durations of every span with this name [us].
  [[nodiscard]] std::vector<double> durationsUs(const std::string& name) const;
  /// Writes one JSON object per span to `path`.
  void write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// The workloads; each returns the process exit code.
int runServing(const Options& options, Result& result);
int runPaper(const Options& options, Result& result);
/// The traced cell_warm replay, one round: the serve-layer metrics of
/// workloads that bypass the server.
int traceServingProbe(const Options& options, Result& result);

}  // namespace perfbench

#endif  // VSSTAT_PERFBENCH_BENCH_HPP
