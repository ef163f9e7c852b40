#include "bench.hpp"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "serve/request.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(index, v.size() - 1)];
}

double peakRssMiB() {
  // VmHWM is the high-water mark of this program's own address space.
  // getrusage's ru_maxrss would also keep the peak of the process image
  // that exec'd it (the python runner), which can exceed this program's.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.compare(0, 6, "VmHWM:") == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double cpuMs(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0)
    throw std::runtime_error("clock_gettime on a CPU clock failed");
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

clockid_t threadCpuClock(pid_t tid) {
  // Linux's encoding of a per-thread CPU clock (what glibc's
  // pthread_getcpuclockid returns): ~tid << 3 | per-thread | sched.
  return static_cast<clockid_t>((~static_cast<unsigned>(tid)) << 3) | 6;
}

std::vector<pid_t> threadIds() {
  std::vector<pid_t> ids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) throw std::runtime_error("cannot list /proc/self/task");
  while (const dirent* entry = readdir(dir))
    if (entry->d_name[0] != '.')
      ids.push_back(static_cast<pid_t>(std::atoi(entry->d_name)));
  closedir(dir);
  std::sort(ids.begin(), ids.end());
  return ids;
}

pid_t awaitNewThread(const std::vector<pid_t>& before) {
  for (int attempt = 0; attempt < 5000; ++attempt) {
    std::vector<pid_t> added;
    for (const pid_t id : threadIds())
      if (!std::binary_search(before.begin(), before.end(), id))
        added.push_back(id);
    if (added.size() == 1) return added.front();
    if (added.size() > 1)
      throw std::runtime_error("several threads started at once");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  throw std::runtime_error("no new thread started");
}

ThreadCpu threadCpuNow() {
  ThreadCpu out;
  for (const pid_t id : threadIds()) {
    timespec ts{};
    // A thread that ended since the listing has no clock any more.
    if (clock_gettime(threadCpuClock(id), &ts) == 0)
      out.emplace_back(id, static_cast<double>(ts.tv_sec) * 1e3 +
                               static_cast<double>(ts.tv_nsec) * 1e-6);
  }
  return out;
}

double threadCpuIn(const ThreadCpu& at, pid_t tid) {
  for (const auto& [id, ms] : at)
    if (id == tid) return ms;
  return 0.0;
}

double cpuMsSince(const ThreadCpu& before) {
  double total = 0.0;
  for (const auto& [id, ms] : threadCpuNow())
    total += ms - threadCpuIn(before, id);
  return total;
}

const std::vector<int>& allowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
    if (out.empty()) throw std::runtime_error("no CPU in the affinity mask");
    return out;
  }();
  return cpus;
}

void pinThread(pid_t tid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpu >= 0) {
    CPU_SET(cpu, &set);
  } else {
    for (const int c : allowedCpus()) CPU_SET(c, &set);
  }
  if (sched_setaffinity(tid, sizeof set, &set) != 0)
    throw std::runtime_error("sched_setaffinity failed");
}

namespace {

/// Keeps the kernel's result alive; client threads probe concurrently.
std::atomic<double> gKernelSink{0.0};

/// The reference kernel: independent transcendental evaluations, as in
/// device evaluation, on data in registers, so that its time depends on how
/// much of the core's floating-point throughput the thread gets and not on
/// what the caches hold.  About 0.1 ms at full speed.
double referenceKernelMs() {
  const double c0 = cpuMs(CLOCK_THREAD_CPUTIME_ID);
  double acc = 0.0;
  for (int i = 0; i < 4000; ++i) {
    const double x = i * 1e-4;
    acc += std::exp(-x) * std::log1p(x) + std::pow(1.0 + x, 0.7);
  }
  gKernelSink.store(acc, std::memory_order_relaxed);
  return cpuMs(CLOCK_THREAD_CPUTIME_ID) - c0;
}

}  // namespace

double SpeedProbe::run(int cpu, int home) {
  pinThread(0, cpu);
  const double ms = referenceKernelMs();
  pinThread(0, home);
  std::lock_guard<std::mutex> lock(mutex_);
  probes_.push_back(ms);
  return ms;
}

double SpeedProbe::runAll(const std::vector<int>& cpus, int home) {
  double sum = 0.0;
  for (const int cpu : cpus) sum += run(cpu, home);
  return sum / static_cast<double>(cpus.size());
}

std::string SpeedProbe::summary() const {
  std::lock_guard<std::mutex> lock(mutex_);
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "%zu probes, p5/p25/p50/p75 %.4f/%.4f/%.4f/%.4f ms",
                probes_.size(), quantile(probes_, 0.05),
                quantile(probes_, 0.25), quantile(probes_, 0.5),
                quantile(probes_, 0.75));
  return buf;
}

std::vector<double> scaledMs(const std::vector<Probed>& units) {
  std::vector<double> out;
  out.reserve(units.size());
  for (const Probed& u : units)
    if (u.steady())
      out.push_back(u.ms * 2.0 * kReferenceProbeMs / (u.beforeMs + u.afterMs));
  return out;
}

std::string steadyShare(const std::vector<Probed>& units) {
  std::size_t steady = 0;
  for (const Probed& u : units) steady += u.steady() ? 1 : 0;
  return std::to_string(steady) + " of " + std::to_string(units.size()) +
         " units";
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t tag) {
  // splitmix64 finalizer over (seed, tag).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + tag + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Result::operation(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  // The first few failures carry their reasons; the count has the rest.
  if (++failed_ <= 20) note("failed", what);
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  note("check FAILED", what);
}

void Result::note(const std::string& key, const std::string& text) {
  notes_.push_back("report " + key + ": " + text);
}

void Result::merge(const Result& other, const std::string& prefix) {
  for (const auto& [name, entry] : other.metrics_)
    if (name.compare(0, prefix.size(), prefix) == 0) metrics_[name] = entry;
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  correct_ = correct_ && other.correct_;
  notes_.insert(notes_.end(), other.notes_.begin(), other.notes_.end());
}

double Result::value(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.first;
}

void Result::print() const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    if (!first) out += ", ";
    first = false;
    vsstat::serve::appendJsonString(out, name);
    out += ": {\"value\": ";
    vsstat::serve::appendJsonNumber(out, entry.first);
    out += ", \"unit\": ";
    vsstat::serve::appendJsonString(out, entry.second);
    out += '}';
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Tracer::begin(const std::string& name, long request) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.startUs =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_)
          .count();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int span) {
  spans_[static_cast<std::size_t>(span)].endUs =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_)
          .count();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

double Tracer::totalUs(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_)
    if (s.name == name) total += s.us();
  return total;
}

double Tracer::selfUs(const std::string& name) const {
  // Children of one span run sequentially on the replay thread, so the
  // part of its interval they cover is the sum of their durations.
  std::vector<double> childUs(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) childUs[static_cast<std::size_t>(s.parent)] += s.us();
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name)
      total += std::max(0.0, spans_[i].us() - childUs[i]);
  return total;
}

std::vector<double> Tracer::durationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(s.us());
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  ",\"request\":%ld,\"parent\":%d,\"start_us\":%.3f,"
                  "\"end_us\":%.3f}\n",
                  s.request, s.parent, s.startUs, s.endUs);
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << '"' << buf;
  }
}

}  // namespace perfbench
