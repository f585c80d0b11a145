// CPU/NUMA topology detection for worker pinning.
//
// The sharded counter can pin its pool workers (ParallelCounterOptions::
// pin_threads); this layer tells it where:
//
//   * Topology::Detect() reads /sys/devices/system/node (Linux) into a
//     node -> cpus map, degrading to one node covering the cpus the
//     process may run on when sysfs is absent, unreadable, or the build is
//     not Linux.
//   * Topology::PlanSlots(n) assigns pool slot k a (cpu, node) pair,
//     round-robin across nodes so shards spread evenly over sockets.
//   * PinCurrentThreadToCpu / ThreadPool's pin support bind slot k to its
//     planned cpu. Shards are constructed on their own workers, so a
//     pinned shard first-touches its estimator arrays on its own node.
//
// Placement never changes *what* is computed: shard seeds, batch
// boundaries, and aggregation are all independent of where threads run,
// so pinned and unpinned runs are bit-identical for a fixed
// (seed, num_threads) -- the parity tests lock this.

#ifndef TRISTREAM_UTIL_TOPOLOGY_H_
#define TRISTREAM_UTIL_TOPOLOGY_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace tristream {

/// One NUMA node: its sysfs id and the cpus it owns.
struct NumaNode {
  int id = 0;
  std::vector<int> cpus;
};

/// An immutable node -> cpus map with a slot-placement planner.
class Topology {
 public:
  /// The machine's real topology: /sys/devices/system/node on Linux,
  /// SingleNode() anywhere that fails (missing sysfs, containers hiding
  /// it, non-Linux builds). Never returns an empty topology.
  static Topology Detect();

  /// Detect() against an arbitrary sysfs node directory (tests point this
  /// at a fake tree). Returns SingleNode() when nothing usable is found.
  static Topology DetectFromSysfs(const std::string& node_dir);

  /// One node -- the universal fallback. num_cpus <= 0 (the default)
  /// covers the cpus the process is allowed to run on (its affinity
  /// mask, so pinning works under restricted cpusets); an explicit count
  /// covers cpus 0..num_cpus-1.
  static Topology SingleNode(int num_cpus = 0);

  /// Builds a topology from explicit nodes (tests and benches fake
  /// multi-node layouts on single-node machines this way). Nodes without
  /// cpus are dropped; an all-empty input yields SingleNode().
  static Topology FromNodes(std::vector<NumaNode> nodes);

  std::size_t num_cpus() const;
  const std::vector<NumaNode>& nodes() const { return nodes_; }

  /// Where pool slot k should run.
  struct SlotPlacement {
    int cpu = -1;   // cpu to pin to (-1 = no pin possible)
    int node = 0;   // index into nodes() (NOT the sysfs node id)
  };

  /// Assigns `num_slots` slots round-robin across nodes (slot k -> node
  /// k % num_nodes), cycling within each node's cpu list when slots
  /// outnumber cpus. Deterministic: the same topology and slot count
  /// always produce the same plan.
  std::vector<SlotPlacement> PlanSlots(std::size_t num_slots) const;

 private:
  Topology() = default;

  std::vector<NumaNode> nodes_;
};

/// Parses a sysfs cpulist ("0-3,8,10-11") into sorted cpu ids. Malformed
/// chunks are skipped; whitespace/newlines are tolerated.
std::vector<int> ParseCpuList(std::string_view text);

/// Binds the calling thread to `cpu`. Returns false when the cpu does not
/// exist, the mask is rejected, or the platform has no affinity API.
bool PinCurrentThreadToCpu(int cpu);

/// Same, for another (joinable) thread -- the pool pins its workers with
/// this so the binding is in place before the first generation runs.
bool PinThreadToCpu(std::thread& thread, int cpu);

/// The cpu the calling thread is running on, or -1 when unknown.
int CurrentCpu();

}  // namespace tristream

#endif  // TRISTREAM_UTIL_TOPOLOGY_H_
