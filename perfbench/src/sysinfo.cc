#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {

double SelfCpuSeconds() {
  rusage ru{};
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double PidCpuSeconds(int pid) {
  const std::string path = "/proc/" + std::to_string(pid) + "/stat";
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return -1.0;
  char buf[1024];
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  // The command name (field 2) may hold spaces; fields resume after the
  // last ')'. utime and stime are fields 14 and 15.
  const char* p = std::strrchr(buf, ')');
  if (p == nullptr) return -1.0;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  if (std::sscanf(p + 2,
                  "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                  &utime, &stime) != 2) {
    return -1.0;
  }
  return static_cast<double>(utime + stime) / ClockTicksPerSecond();
}

double ClockTicksPerSecond() {
  return static_cast<double>(::sysconf(_SC_CLK_TCK));
}

MachineTicks ReadMachineTicks(std::vector<std::uint64_t>* cpu_steal) {
  MachineTicks machine;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return machine;
  if (cpu_steal != nullptr) cpu_steal->clear();
  char buf[512];
  int cpu = 0;
  MachineTicks t;
  // The cpu lines come first; the (long) interrupt line is not read.
  while (std::fgets(buf, sizeof buf, f) != nullptr &&
         ParseCpuLine(buf, &cpu, &t)) {
    if (cpu < 0) {
      machine = t;
    } else if (cpu_steal != nullptr) {
      cpu_steal->push_back(t.steal);
    }
  }
  std::fclose(f);
  return machine;
}

double ThreadCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

StealMonitor::StealMonitor() {
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      StealSample s;
      s.t_ns = NowNs();
      ReadMachineTicks(&s.steal);
      samples_.push_back(std::move(s));
      cpu_s_.store(ThreadCpuSeconds(), std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
}

StealMonitor::~StealMonitor() { stop(); }

std::vector<Span> StealMonitor::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  return StallSpans(samples_, static_cast<std::int64_t>(
                                  1e9 / ClockTicksPerSecond()));
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

unsigned HardwareThreads() { return std::thread::hardware_concurrency(); }

}  // namespace perfbench
