// Host probes: the run-conditions envelope (CPU set, cgroup quota,
// hugepages, steal time) and the per-process counters the timed loops
// read (rusage, OS thread count, peak RSS).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// CPUs this process may run on (sched_getaffinity), ascending.
std::vector<int> allowed_cpus();
/// "0-3" style rendering of a CPU list.
std::string cpu_list_string(const std::vector<int>& cpus);
/// Pins the calling thread to `cpus` (no-op on an empty list).
void pin_current_thread(const std::vector<int>& cpus);

/// Raw cgroup v2 cpu.max ("max 100000" or "200000 100000"), or
/// "unavailable".
std::string cgroup_cpu_max();
/// Transparent-hugepage mode and the HugePages_Total count.
std::string hugepage_status();

/// Aggregate CPU jiffies from /proc/stat.
struct CpuJiffies {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuJiffies read_cpu_jiffies();
/// Steal jiffies ÷ total jiffies between two readings (0 when no time
/// passed).
double steal_frac(const CpuJiffies& a, const CpuJiffies& b);

/// Process resource usage (getrusage(RUSAGE_SELF)).
struct Usage {
  double cpu_s = 0;  // user + system
  std::uint64_t nivcsw = 0;
  std::uint64_t minflt = 0;
};
Usage read_usage();

/// OS threads alive in this process (/proc/self/status Threads:).
int os_threads();
/// Resets the kernel's peak-RSS mark to the current RSS
/// (/proc/self/clear_refs "5"); false when the kernel refuses.
bool reset_peak_rss();
/// Peak RSS since the last reset (VmHWM), MiB.
double peak_rss_mb();

/// Seconds on a monotonic clock.
double now_s();

}  // namespace perfbench
