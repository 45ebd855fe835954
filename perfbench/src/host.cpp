#include "host.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

/// First line of `path` that starts with `key`, minus the key; "" if none.
std::string field_of(const std::string& path, const std::string& key) {
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.compare(0, key.size(), key) == 0) return line.substr(key.size());
  }
  return "";
}

std::string first_line(const std::string& path) {
  std::ifstream f(path);
  std::string line;
  if (!std::getline(f, line)) return "";
  return line;
}

}  // namespace

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return {0};
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  if (cpus.empty()) cpus.push_back(0);
  return cpus;
}

std::string cpu_list_string(const std::vector<int>& cpus) {
  std::string out;
  for (std::size_t i = 0; i < cpus.size();) {
    std::size_t j = i;
    while (j + 1 < cpus.size() && cpus[j + 1] == cpus[j] + 1) ++j;
    if (!out.empty()) out += ',';
    out += std::to_string(cpus[i]);
    if (j > i) out += '-' + std::to_string(cpus[j]);
    i = j + 1;
  }
  return out;
}

void pin_current_thread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

std::string cgroup_cpu_max() {
  const std::string v = first_line("/sys/fs/cgroup/cpu.max");
  return v.empty() ? "unavailable" : v;
}

std::string hugepage_status() {
  std::string thp =
      first_line("/sys/kernel/mm/transparent_hugepage/enabled");
  if (thp.empty()) thp = "unavailable";
  std::string total = field_of("/proc/meminfo", "HugePages_Total:");
  const std::size_t b = total.find_first_not_of(' ');
  total = b == std::string::npos ? "unavailable" : total.substr(b);
  return "thp=" + thp + " hugetlb_pages=" + total;
}

CpuJiffies read_cpu_jiffies() {
  CpuJiffies j;
  std::istringstream is(first_line("/proc/stat"));
  std::string cpu;
  is >> cpu;
  std::uint64_t v = 0;
  for (int i = 0; i < 10 && (is >> v); ++i) {
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already inside user/nice.
    if (i < 8) j.total += v;
    if (i == 7) j.steal = v;
  }
  return j;
}

double steal_frac(const CpuJiffies& a, const CpuJiffies& b) {
  if (b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

Usage read_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  u.nivcsw = static_cast<std::uint64_t>(ru.ru_nivcsw);
  u.minflt = static_cast<std::uint64_t>(ru.ru_minflt);
  return u;
}

int os_threads() {
  const std::string v = field_of("/proc/self/status", "Threads:");
  return v.empty() ? 0 : std::stoi(v);
}

bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mb() {
  const std::string v = field_of("/proc/self/status", "VmHWM:");
  if (v.empty()) return 0.0;
  return std::stod(v) / 1024.0;  // reported in kB
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
