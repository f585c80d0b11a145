// Tests for the topology layer: cpulist parsing, sysfs detection against
// a fake tree, the single-node fallback, round-robin slot planning, and
// thread pinning.

#include "util/topology.h"

#include <sys/stat.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace tristream {
namespace {

TEST(ParseCpuListTest, HandlesRangesSinglesAndJunk) {
  EXPECT_TRUE(ParseCpuList("").empty());
  EXPECT_TRUE(ParseCpuList("\n").empty());
  EXPECT_EQ(ParseCpuList("0"), (std::vector<int>{0}));
  EXPECT_EQ(ParseCpuList("0-3\n"), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(ParseCpuList("0-1,4,6-7"), (std::vector<int>{0, 1, 4, 6, 7}));
  EXPECT_EQ(ParseCpuList(" 2 , 5 "), (std::vector<int>{2, 5}));
  // Malformed chunks are skipped, the rest survives.
  EXPECT_EQ(ParseCpuList("x,3,4-y,5"), (std::vector<int>{3, 5}));
  // Inverted or negative ranges are skipped.
  EXPECT_TRUE(ParseCpuList("3-1").empty());
  EXPECT_TRUE(ParseCpuList("-2").empty());
  // Duplicates collapse.
  EXPECT_EQ(ParseCpuList("1,1,0-1"), (std::vector<int>{0, 1}));
}

TEST(TopologyTest, SingleNodeCoversRequestedCpus) {
  const Topology topo = Topology::SingleNode(4);
  ASSERT_EQ(topo.nodes().size(), 1u);
  EXPECT_EQ(topo.num_cpus(), 4u);
  EXPECT_EQ(topo.nodes()[0].id, 0);
  EXPECT_EQ(topo.nodes()[0].cpus, (std::vector<int>{0, 1, 2, 3}));
}

TEST(TopologyTest, SingleNodeDefaultsToHardwareConcurrency) {
  const Topology topo = Topology::SingleNode();
  ASSERT_EQ(topo.nodes().size(), 1u);
  EXPECT_GE(topo.num_cpus(), 1u);
}

TEST(TopologyTest, FromNodesDropsMemoryOnlyNodesAndSortsById) {
  std::vector<NumaNode> nodes(3);
  nodes[0].id = 2;
  nodes[0].cpus = {4, 5};
  nodes[1].id = 7;  // memory-only: no cpus
  nodes[2].id = 0;
  nodes[2].cpus = {0, 1};
  const Topology topo = Topology::FromNodes(std::move(nodes));
  ASSERT_EQ(topo.nodes().size(), 2u);
  EXPECT_EQ(topo.nodes()[0].id, 0);
  EXPECT_EQ(topo.nodes()[1].id, 2);
}

TEST(TopologyTest, FromNodesAllEmptyFallsBackToSingleNode) {
  std::vector<NumaNode> nodes(2);
  nodes[0].id = 0;
  nodes[1].id = 1;
  const Topology topo = Topology::FromNodes(std::move(nodes));
  EXPECT_EQ(topo.nodes().size(), 1u);
  EXPECT_GE(topo.num_cpus(), 1u);
}

class FakeSysfsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/tristream_topology_XXXXXX";
    root_ = ::mkdtemp(tmpl);
    ASSERT_FALSE(root_.empty());
  }

  void TearDown() override {
    for (const std::string& file : files_) ::unlink(file.c_str());
    for (auto it = dirs_.rbegin(); it != dirs_.rend(); ++it) {
      ::rmdir(it->c_str());
    }
    ::rmdir(root_.c_str());
  }

  void AddNode(const std::string& name, const std::string& cpulist,
               bool with_cpulist = true) {
    const std::string dir = root_ + "/" + name;
    ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
    dirs_.push_back(dir);
    if (!with_cpulist) return;
    const std::string file = dir + "/cpulist";
    std::ofstream out(file);
    out << cpulist;
    files_.push_back(file);
  }

  std::string root_;
  std::vector<std::string> dirs_;
  std::vector<std::string> files_;
};

TEST_F(FakeSysfsTest, DetectsTwoNodes) {
  AddNode("node0", "0-1\n");
  AddNode("node1", "2-3\n");
  AddNode("power", "");     // non-node entry: ignored
  AddNode("nodeX", "9");    // malformed suffix: ignored
  const Topology topo = Topology::DetectFromSysfs(root_);
  ASSERT_EQ(topo.nodes().size(), 2u);
  EXPECT_EQ(topo.nodes()[0].id, 0);
  EXPECT_EQ(topo.nodes()[0].cpus, (std::vector<int>{0, 1}));
  EXPECT_EQ(topo.nodes()[1].id, 1);
  EXPECT_EQ(topo.nodes()[1].cpus, (std::vector<int>{2, 3}));
}

TEST_F(FakeSysfsTest, MemoryOnlyNodeIsDropped) {
  AddNode("node0", "0-3\n");
  AddNode("node1", "", /*with_cpulist=*/false);  // CXL-style memory node
  const Topology topo = Topology::DetectFromSysfs(root_);
  ASSERT_EQ(topo.nodes().size(), 1u);
  EXPECT_EQ(topo.nodes()[0].cpus, (std::vector<int>{0, 1, 2, 3}));
}

TEST_F(FakeSysfsTest, EmptyTreeFallsBackToSingleNode) {
  const Topology topo = Topology::DetectFromSysfs(root_);
  EXPECT_EQ(topo.nodes().size(), 1u);
  EXPECT_GE(topo.num_cpus(), 1u);
}

TEST(TopologyTest, MissingSysfsDirFallsBackToSingleNode) {
  const Topology topo =
      Topology::DetectFromSysfs("/nonexistent/tristream/sysfs");
  EXPECT_EQ(topo.nodes().size(), 1u);
  EXPECT_GE(topo.num_cpus(), 1u);
}

TEST(TopologyTest, DetectNeverReturnsEmpty) {
  const Topology topo = Topology::Detect();
  EXPECT_GE(topo.nodes().size(), 1u);
  EXPECT_GE(topo.num_cpus(), 1u);
  for (std::size_t i = 1; i < topo.nodes().size(); ++i) {
    EXPECT_LT(topo.nodes()[i - 1].id, topo.nodes()[i].id);
  }
}

TEST(TopologyTest, PlanSlotsRoundRobinsAcrossNodes) {
  std::vector<NumaNode> nodes(2);
  nodes[0].id = 0;
  nodes[0].cpus = {0, 1};
  nodes[1].id = 1;
  nodes[1].cpus = {2, 3};
  const Topology topo = Topology::FromNodes(std::move(nodes));
  const auto plan = topo.PlanSlots(6);
  ASSERT_EQ(plan.size(), 6u);
  // Slots alternate nodes; cpus cycle within each node.
  const int expect_node[] = {0, 1, 0, 1, 0, 1};
  const int expect_cpu[] = {0, 2, 1, 3, 0, 2};
  for (std::size_t slot = 0; slot < plan.size(); ++slot) {
    EXPECT_EQ(plan[slot].node, expect_node[slot]) << "slot " << slot;
    EXPECT_EQ(plan[slot].cpu, expect_cpu[slot]) << "slot " << slot;
  }
}

TEST(TopologyTest, PlanSlotsSingleNodeUsesEveryCpuBeforeWrapping) {
  const Topology topo = Topology::SingleNode(3);
  const auto plan = topo.PlanSlots(5);
  const int expect_cpu[] = {0, 1, 2, 0, 1};
  for (std::size_t slot = 0; slot < plan.size(); ++slot) {
    EXPECT_EQ(plan[slot].node, 0);
    EXPECT_EQ(plan[slot].cpu, expect_cpu[slot]) << "slot " << slot;
  }
}

TEST(TopologyTest, PlanSlotsIsDeterministic) {
  const Topology topo = Topology::Detect();
  const auto a = topo.PlanSlots(16);
  const auto b = topo.PlanSlots(16);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cpu, b[i].cpu);
    EXPECT_EQ(a[i].node, b[i].node);
  }
}

TEST(TopologyTest, PinCurrentThreadToAllowedCpuSucceeds) {
  // Pin to the cpu this test is already running on (necessarily inside
  // the allowed mask, unlike a hardcoded cpu 0 under restricted
  // cpusets), inside a scratch thread so the test runner's own thread
  // keeps its original mask.
  const int here = CurrentCpu();
  if (here < 0) GTEST_SKIP() << "no affinity API on this platform";
  bool pinned = false;
  int cpu_after = -2;
  std::thread probe([&] {
    pinned = PinCurrentThreadToCpu(here);
    cpu_after = CurrentCpu();
  });
  probe.join();
  EXPECT_TRUE(pinned);
  EXPECT_EQ(cpu_after, here);
}

TEST(TopologyTest, PinOtherThreadToCpu) {
  // The pool-facing overload: pin a started thread from outside it.
  const int here = CurrentCpu();
  if (here < 0) GTEST_SKIP() << "no affinity API on this platform";
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  int cpu_after = -2;
  std::thread worker([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    cpu_after = CurrentCpu();
  });
  EXPECT_TRUE(PinThreadToCpu(worker, here));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_one();
  worker.join();
  EXPECT_EQ(cpu_after, here);
}

TEST(TopologyTest, PinToNonexistentCpuFailsGracefully) {
  bool pinned = true;
  std::thread probe([&] { pinned = PinCurrentThreadToCpu(100000); });
  probe.join();
  EXPECT_FALSE(pinned);
}

}  // namespace
}  // namespace tristream
