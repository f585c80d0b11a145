#include "util/topology.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <thread>

#if defined(__linux__)
#include <dirent.h>
#include <pthread.h>
#include <sched.h>
#endif

namespace tristream {
namespace {

/// Reads a small sysfs file whole; empty string on any failure.
std::string ReadSmallFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "re");
  if (f == nullptr) return {};
  std::string out;
  char buf[256];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, got);
  }
  std::fclose(f);
  return out;
}

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// The cpus this process may actually run on. Under a restricted cpuset
/// (docker --cpuset-cpus=2,3) these are NOT 0..n-1, and pinning to a
/// fabricated id would be rejected; fabricate only when the affinity API
/// is unavailable.
std::vector<int> AllowedCpus() {
#if defined(__linux__)
  cpu_set_t set;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    std::vector<int> cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
    if (!cpus.empty()) return cpus;
  }
#endif
  std::vector<int> cpus(static_cast<std::size_t>(HardwareThreads()));
  for (std::size_t i = 0; i < cpus.size(); ++i) cpus[i] = static_cast<int>(i);
  return cpus;
}

}  // namespace

std::vector<int> ParseCpuList(std::string_view text) {
  std::vector<int> cpus;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view chunk = text.substr(pos, end - pos);
    pos = end + 1;
    // Trim whitespace (sysfs files end in '\n').
    while (!chunk.empty() &&
           std::isspace(static_cast<unsigned char>(chunk.front()))) {
      chunk.remove_prefix(1);
    }
    while (!chunk.empty() &&
           std::isspace(static_cast<unsigned char>(chunk.back()))) {
      chunk.remove_suffix(1);
    }
    if (chunk.empty()) continue;
    int lo = 0;
    int hi = 0;
    int consumed = 0;
    const std::string owned(chunk);  // sscanf needs NUL termination
    if (std::sscanf(owned.c_str(), "%d-%d%n", &lo, &hi, &consumed) == 2 &&
        consumed == static_cast<int>(owned.size())) {
      // range chunk
    } else if (std::sscanf(owned.c_str(), "%d%n", &lo, &consumed) == 1 &&
               consumed == static_cast<int>(owned.size())) {
      hi = lo;
    } else {
      continue;  // malformed chunk: skip, keep the rest
    }
    if (lo < 0 || hi < lo) continue;
    for (int cpu = lo; cpu <= hi; ++cpu) cpus.push_back(cpu);
  }
  std::sort(cpus.begin(), cpus.end());
  cpus.erase(std::unique(cpus.begin(), cpus.end()), cpus.end());
  return cpus;
}

Topology Topology::SingleNode(int num_cpus) {
  NumaNode node;
  node.id = 0;
  if (num_cpus <= 0) {
    // Default: the cpus the process is actually allowed to run on, so
    // pinning works inside cpuset-restricted containers too.
    node.cpus = AllowedCpus();
  } else {
    node.cpus.reserve(static_cast<std::size_t>(num_cpus));
    for (int cpu = 0; cpu < num_cpus; ++cpu) node.cpus.push_back(cpu);
  }
  Topology topo;
  topo.nodes_.push_back(std::move(node));
  return topo;
}

Topology Topology::FromNodes(std::vector<NumaNode> nodes) {
  Topology topo;
  for (NumaNode& node : nodes) {
    if (node.cpus.empty()) continue;  // memory-only node: no slot can run there
    topo.nodes_.push_back(std::move(node));
  }
  if (topo.nodes_.empty()) return SingleNode();
  std::sort(topo.nodes_.begin(), topo.nodes_.end(),
            [](const NumaNode& a, const NumaNode& b) { return a.id < b.id; });
  return topo;
}

Topology Topology::DetectFromSysfs(const std::string& node_dir) {
#if defined(__linux__)
  DIR* dir = ::opendir(node_dir.c_str());
  if (dir == nullptr) return SingleNode();
  std::vector<NumaNode> nodes;
  while (const dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    // Node directories are named node<N>.
    if (name.rfind("node", 0) != 0 || name.size() <= 4) continue;
    const std::string digits = name.substr(4);
    if (digits.find_first_not_of("0123456789") != std::string::npos) continue;
    NumaNode node;
    node.id = std::atoi(digits.c_str());
    node.cpus = ParseCpuList(ReadSmallFile(node_dir + "/" + name + "/cpulist"));
    nodes.push_back(std::move(node));
  }
  ::closedir(dir);
  if (nodes.empty()) return SingleNode();
  return FromNodes(std::move(nodes));  // drops memory-only nodes, sorts by id
#else
  (void)node_dir;
  return SingleNode();
#endif
}

Topology Topology::Detect() {
  Topology topo = DetectFromSysfs("/sys/devices/system/node");
  // sysfs lists physical cpus; under a restricted cpuset only a subset is
  // pinnable. Intersect each node with the allowed mask so plans never
  // target cpus the kernel would reject (nodes left empty are dropped;
  // everything empty degrades to the single-node fallback, which itself
  // uses the allowed cpus).
  const std::vector<int> allowed = AllowedCpus();
  std::vector<NumaNode> nodes = topo.nodes_;
  for (NumaNode& node : nodes) {
    std::vector<int> kept;
    for (const int cpu : node.cpus) {
      if (std::binary_search(allowed.begin(), allowed.end(), cpu)) {
        kept.push_back(cpu);
      }
    }
    node.cpus = std::move(kept);
  }
  return FromNodes(std::move(nodes));
}

std::size_t Topology::num_cpus() const {
  std::size_t total = 0;
  for (const NumaNode& node : nodes_) total += node.cpus.size();
  return total;
}

std::vector<Topology::SlotPlacement> Topology::PlanSlots(
    std::size_t num_slots) const {
  std::vector<SlotPlacement> plan(num_slots);
  if (nodes_.empty()) return plan;  // cpu stays -1: nothing to pin to
  std::vector<std::size_t> next_cpu(nodes_.size(), 0);
  for (std::size_t slot = 0; slot < num_slots; ++slot) {
    const std::size_t node = slot % nodes_.size();
    const std::vector<int>& cpus = nodes_[node].cpus;
    plan[slot].node = static_cast<int>(node);
    plan[slot].cpu = cpus[next_cpu[node] % cpus.size()];
    ++next_cpu[node];
  }
  return plan;
}

namespace {

#if defined(__linux__)
bool PinPthreadToCpu(pthread_t handle, int cpu) {
  if (cpu < 0 || cpu >= CPU_SETSIZE) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return ::pthread_setaffinity_np(handle, sizeof(set), &set) == 0;
}
#endif

}  // namespace

bool PinCurrentThreadToCpu(int cpu) {
#if defined(__linux__)
  return PinPthreadToCpu(::pthread_self(), cpu);
#else
  (void)cpu;
  return false;
#endif
}

bool PinThreadToCpu(std::thread& thread, int cpu) {
#if defined(__linux__)
  return PinPthreadToCpu(thread.native_handle(), cpu);
#else
  (void)thread;
  (void)cpu;
  return false;
#endif
}

int CurrentCpu() {
#if defined(__linux__)
  return ::sched_getcpu();
#else
  return -1;
#endif
}

}  // namespace tristream
