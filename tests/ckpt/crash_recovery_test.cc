// Fault-injection harness for crash-safe checkpointing: SIGKILLs a child
// tristream_cli mid-stream (with snapshots rotating every few tens of
// thousands of edges, the kill regularly lands inside a checkpoint write)
// and proves that resuming from whatever the kill left on disk -- the
// primary snapshot or the retained .prev generation -- reproduces the
// uninterrupted run's estimates bit-for-bit.
//
// Skips (rather than fails) when the CLI binary is not next to this test
// binary, so the suite still runs under harnesses that build tests alone.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/checkpoint.h"
#include "engine/estimators.h"
#include "gen/erdos_renyi.h"
#include "graph/edge_list.h"
#include "gtest/gtest.h"
#include "stream/binary_io.h"

namespace tristream {
namespace {

std::string SelfDirectory() {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n <= 0) return {};
  buffer[n] = '\0';
  const std::string path(buffer);
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

std::string CliPath() {
  const std::string candidate = SelfDirectory() + "/tristream_cli";
  return ::access(candidate.c_str(), X_OK) == 0 ? candidate : std::string();
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void CopyFile(const std::string& from, const std::string& to) {
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  const std::string data = ReadFile(from);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good()) << from << " -> " << to;
}

/// The three estimate lines; compared as exact strings, which is the
/// strictest possible bit-identity check (formatting included).
std::string EstimateLines(const std::string& stdout_text) {
  std::istringstream in(stdout_text);
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.rfind("triangles (est)", 0) == 0 ||
        line.rfind("wedges (est)", 0) == 0 ||
        line.rfind("transitivity", 0) == 0) {
      out += line + "\n";
    }
  }
  return out;
}

struct ChildOutcome {
  bool killed = false;   // we SIGKILLed it before it finished
  int exit_code = -1;    // meaningful only when !killed
  std::string stdout_text;
  std::string stderr_text;
};

/// Runs the CLI with `args`. When `kill_when_exists` is non-empty, polls
/// for that file and SIGKILLs the child the moment it appears (a crash at
/// a random instant of the checkpoint rotation); otherwise waits for a
/// clean exit.
ChildOutcome RunCli(const std::vector<std::string>& args,
                    const std::string& kill_when_exists = "") {
  const std::string stdout_path =
      std::string(::testing::TempDir()) + "/crash_child_stdout";
  const std::string stderr_path =
      std::string(::testing::TempDir()) + "/crash_child_stderr";

  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid == 0) {
    FILE* out = std::freopen(stdout_path.c_str(), "w", stdout);
    FILE* err = std::freopen(stderr_path.c_str(), "w", stderr);
    if (out == nullptr || err == nullptr) _exit(127);
    ::execv(argv[0], argv.data());
    _exit(127);
  }

  ChildOutcome outcome;
  if (pid < 0) {
    outcome.stderr_text = "fork failed";
    return outcome;
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  int status = 0;
  for (;;) {
    const pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid) break;
    if (!kill_when_exists.empty() && FileExists(kill_when_exists)) {
      ::kill(pid, SIGKILL);
      outcome.killed = true;
      ::waitpid(pid, &status, 0);
      break;
    }
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      ADD_FAILURE() << "child ran past the deadline";
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  if (!outcome.killed && WIFEXITED(status)) {
    outcome.exit_code = WEXITSTATUS(status);
  }
  outcome.stdout_text = ReadFile(stdout_path);
  outcome.stderr_text = ReadFile(stderr_path);
  std::remove(stdout_path.c_str());
  std::remove(stderr_path.c_str());
  return outcome;
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cli_ = new std::string(CliPath());
    input_ = new std::string(std::string(::testing::TempDir()) +
                             "/crash_recovery.tris");
    if (!cli_->empty()) {
      // 2M edges: long enough that snapshots rotate many times, short
      // enough (<1 s of child runtime) to keep the suite fast.
      const auto el = gen::GnmRandom(3000, 2000000, 20260807);
      ASSERT_TRUE(stream::WriteBinaryEdges(*input_, el).ok());
    }
  }
  static void TearDownTestSuite() {
    std::remove(input_->c_str());
    delete cli_;
    delete input_;
    cli_ = nullptr;
    input_ = nullptr;
  }

  void RequireCli() {
    if (cli_->empty()) {
      GTEST_SKIP() << "tristream_cli not built next to this test binary";
    }
  }

  std::vector<std::string> CountArgs(const std::string& algo) const {
    return {*cli_,     "count",        "--input", *input_,
            "--algo",  algo,           "--seed",  "9",
            "--batch", "4096",         "--estimators",
            algo == "tsb" ? "3072" : "512",
            "--threads", "3"};
  }

  static std::string* cli_;
  static std::string* input_;
};

std::string* CrashRecoveryTest::cli_ = nullptr;
std::string* CrashRecoveryTest::input_ = nullptr;

void RunKillResumeCycle(const std::vector<std::string>& base_args,
                        const std::string& stem) {
  const std::string ckpt = std::string(::testing::TempDir()) + "/" + stem;
  const std::string prev = ckpt + ".prev";
  const std::string saved = ckpt + ".saved";
  const std::string saved_prev = saved + ".prev";
  for (const std::string& p : {ckpt, prev, saved, saved_prev}) {
    std::remove(p.c_str());
  }

  // Uninterrupted reference.
  const ChildOutcome reference = RunCli(base_args);
  ASSERT_EQ(reference.exit_code, 0) << reference.stderr_text;
  const std::string expected = EstimateLines(reference.stdout_text);
  ASSERT_FALSE(expected.empty()) << reference.stdout_text;

  // Victim: checkpointing every 20K edges; killed as soon as the second
  // generation appears, i.e. somewhere inside the ongoing rotation.
  std::vector<std::string> victim_args = base_args;
  victim_args.insert(victim_args.end(),
                     {"--checkpoint", ckpt, "--checkpoint-every", "20000"});
  const ChildOutcome victim = RunCli(victim_args, prev);
  // The kill may land between the rotation's two renames (path -> .prev,
  // then tmp -> path). The primary is then absent and .prev is the one
  // complete generation, which LoadCheckpoint falls back to: a valid crash
  // state, resumed below through that fallback. (If the machine was slow
  // enough that the child finished before the kill landed, the files are
  // still a valid mid-stream snapshot pair and the resume check below is
  // unchanged.)
  ASSERT_TRUE(FileExists(prev)) << victim.stderr_text;
  const bool primary_survived = FileExists(ckpt);

  // Freeze what the crash left behind, then resume from the copy.
  if (primary_survived) CopyFile(ckpt, saved);
  CopyFile(prev, saved_prev);
  ASSERT_EQ(FileExists(saved), primary_survived);
  std::vector<std::string> resume_args = base_args;
  resume_args.insert(resume_args.end(), {"--resume", saved});
  const ChildOutcome resumed = RunCli(resume_args);
  ASSERT_EQ(resumed.exit_code, 0) << resumed.stderr_text;
  EXPECT_NE(resumed.stderr_text.find("resumed from"), std::string::npos)
      << "primary " << (primary_survived ? "present" : "absent") << ": "
      << resumed.stderr_text;
  EXPECT_EQ(EstimateLines(resumed.stdout_text), expected)
      << "resume after SIGKILL diverged from the uninterrupted run (primary "
      << (primary_survived ? "present" : "absent, resumed from .prev") << ")";

  // Torn-primary fallback: garbage where the newest snapshot was (a crash
  // inside WriteFileAtomic's window) must fall back to the retained
  // generation and still land on identical estimates.
  {
    std::ofstream torn(saved, std::ios::binary | std::ios::trunc);
    torn << "TRICKPTgarbage: torn write";
  }
  const ChildOutcome fallback = RunCli(resume_args);
  ASSERT_EQ(fallback.exit_code, 0) << fallback.stderr_text;
  EXPECT_NE(fallback.stderr_text.find("resumed from"), std::string::npos)
      << fallback.stderr_text;
  EXPECT_EQ(EstimateLines(fallback.stdout_text), expected)
      << "resume from the .prev generation diverged";

  for (const std::string& p : {ckpt, prev, saved, saved_prev}) {
    std::remove(p.c_str());
  }
}

TEST_F(CrashRecoveryTest, SigkillAndResumeBulkIsBitIdentical) {
  RequireCli();
  RunKillResumeCycle(CountArgs("bulk"), "crash_bulk.ckpt");
}

TEST_F(CrashRecoveryTest, SigkillAndResumeShardedIsBitIdentical) {
  RequireCli();
  RunKillResumeCycle(CountArgs("tsb"), "crash_tsb.ckpt");
}

TEST_F(CrashRecoveryTest, MissingCheckpointStartsFresh) {
  RequireCli();
  std::vector<std::string> args = CountArgs("bulk");
  const std::string missing =
      std::string(::testing::TempDir()) + "/never_written.ckpt";
  std::remove(missing.c_str());
  std::remove((missing + ".prev").c_str());
  args.insert(args.end(), {"--resume", missing});
  const ChildOutcome fresh = RunCli(args);
  ASSERT_EQ(fresh.exit_code, 0) << fresh.stderr_text;
  EXPECT_NE(fresh.stderr_text.find("starting fresh"), std::string::npos)
      << fresh.stderr_text;

  const ChildOutcome reference = RunCli(CountArgs("bulk"));
  ASSERT_EQ(reference.exit_code, 0);
  EXPECT_EQ(EstimateLines(fresh.stdout_text),
            EstimateLines(reference.stdout_text));
}

TEST_F(CrashRecoveryTest, ResumeWithWrongFlagsIsRefusedNotWrong) {
  RequireCli();
  const std::string ckpt =
      std::string(::testing::TempDir()) + "/wrong_flags.ckpt";
  std::remove(ckpt.c_str());
  std::remove((ckpt + ".prev").c_str());
  std::vector<std::string> save_args = CountArgs("bulk");
  save_args.insert(save_args.end(),
                   {"--checkpoint", ckpt, "--checkpoint-every", "500000"});
  ASSERT_EQ(RunCli(save_args).exit_code, 0);
  ASSERT_TRUE(FileExists(ckpt));

  // Different seed => different fingerprint => hard refusal, never a
  // silently mixed-configuration estimate.
  std::vector<std::string> wrong = CountArgs("bulk");
  for (std::size_t i = 0; i < wrong.size(); ++i) {
    if (wrong[i] == "--seed") wrong[i + 1] = "10";
  }
  wrong.insert(wrong.end(), {"--resume", ckpt});
  const ChildOutcome refused = RunCli(wrong);
  EXPECT_NE(refused.exit_code, 0);
  EXPECT_NE(refused.stderr_text.find("fingerprint"), std::string::npos)
      << refused.stderr_text;

  std::remove(ckpt.c_str());
  std::remove((ckpt + ".prev").c_str());
}

// ------------------------------------------- deterministic fs faults
//
// The SIGKILL cycles above prove crash-at-a-random-instant; these prove
// crash-at-*every*-instant, by injecting a failure at each individual
// WriteFileAtomic step (ckpt::SetPersistFaultHookForTesting) and checking
// the invariant the rotation exists to provide: after any single-step
// crash, at least one complete generation is loadable and resuming from
// it reproduces the uninterrupted run bit-for-bit.

constexpr std::uint64_t kFaultBatch = 1024;

engine::EstimatorConfig FaultConfig() {
  engine::EstimatorConfig config;
  config.num_estimators = 512;
  config.seed = 77;
  config.batch_size = kFaultBatch;
  return config;
}

/// Feeds edges [from, to) in kFaultBatch-aligned chunks -- the same
/// boundaries on every run, so counter-based RNG trajectories replay.
void FeedRange(engine::StreamingEstimator& est, const graph::EdgeList& el,
               std::size_t from, std::size_t to) {
  const std::span<const Edge> edges(el.edges());
  for (std::size_t offset = from; offset < to;) {
    const std::size_t take =
        std::min<std::size_t>(kFaultBatch, to - offset);
    est.ProcessEdges(edges.subspan(offset, take));
    offset += take;
  }
}

TEST(PersistFaultHookTest, EveryStepCrashLeavesALoadableGeneration) {
  const auto el = gen::GnmRandom(500, 40000, 51);
  const std::size_t p1 = 10 * kFaultBatch;  // first (clean) generation
  const std::size_t p2 = 25 * kFaultBatch;  // faulted save attempt

  auto reference = engine::MakeEstimator("bulk", FaultConfig());
  ASSERT_TRUE(reference.ok());
  FeedRange(**reference, el, 0, el.size());
  (*reference)->Flush();
  const double expected = (*reference)->EstimateTriangles();

  const ckpt::PersistStep steps[] = {
      ckpt::PersistStep::kOpenTmp, ckpt::PersistStep::kWrite,
      ckpt::PersistStep::kFsync, ckpt::PersistStep::kRenamePrev,
      ckpt::PersistStep::kRenamePrimary};
  for (const ckpt::PersistStep step : steps) {
    SCOPED_TRACE(static_cast<int>(step));
    const std::string path =
        std::string(::testing::TempDir()) + "/persist_fault_" +
        std::to_string(static_cast<int>(step)) + ".ckpt";
    for (const std::string& p :
         {path, path + ".prev", path + ".tmp"}) {
      std::remove(p.c_str());
    }

    auto victim = engine::MakeEstimator("bulk", FaultConfig());
    ASSERT_TRUE(victim.ok());
    FeedRange(**victim, el, 0, p1);
    ASSERT_TRUE(ckpt::SaveCheckpoint(path, **victim, kFaultBatch).ok());
    FeedRange(**victim, el, p1, p2);

    ckpt::SetPersistFaultHookForTesting(
        [step, &path](ckpt::PersistStep s, const std::string& p) {
          if (s == step && p == path) {
            return Status::IoError("injected: no space left on device");
          }
          return Status::Ok();
        });
    const Status faulted = ckpt::SaveCheckpoint(path, **victim, kFaultBatch);
    ckpt::SetPersistFaultHookForTesting(nullptr);
    ASSERT_FALSE(faulted.ok());
    EXPECT_NE(faulted.message().find("injected"), std::string::npos)
        << faulted.message();

    // Whatever the "crash" left behind must load -- the primary when the
    // fault hit before any rename, the retained .prev generation when it
    // hit between the renames.
    auto restored = engine::MakeEstimator("bulk", FaultConfig());
    ASSERT_TRUE(restored.ok());
    auto info = ckpt::LoadCheckpoint(path, **restored);
    ASSERT_TRUE(info.ok()) << info.status();
    EXPECT_EQ(info->batch_size, kFaultBatch);
    ASSERT_TRUE(info->edges_processed == p1 || info->edges_processed == p2)
        << "loaded generation at unexpected position "
        << info->edges_processed;

    // Resuming from the surviving generation converges on the
    // uninterrupted run's estimate exactly.
    FeedRange(**restored, el,
              static_cast<std::size_t>(info->edges_processed), el.size());
    (*restored)->Flush();
    EXPECT_EQ((*restored)->EstimateTriangles(), expected);

    for (const std::string& p :
         {path, path + ".prev", path + ".tmp"}) {
      std::remove(p.c_str());
    }
  }
}

TEST(PersistFaultHookTest, HookObservesEveryStepInOrderForItsPath) {
  const auto el = gen::GnmRandom(200, 5000, 52);
  auto est = engine::MakeEstimator("bulk", FaultConfig());
  ASSERT_TRUE(est.ok());
  FeedRange(**est, el, 0, 4 * kFaultBatch);

  const std::string path =
      std::string(::testing::TempDir()) + "/persist_hook_order.ckpt";
  for (const std::string& p : {path, path + ".prev", path + ".tmp"}) {
    std::remove(p.c_str());
  }
  std::vector<ckpt::PersistStep> seen;
  ckpt::SetPersistFaultHookForTesting(
      [&seen, &path](ckpt::PersistStep s, const std::string& p) {
        EXPECT_EQ(p, path);  // hooks target by destination path
        seen.push_back(s);
        return Status::Ok();
      });
  ASSERT_TRUE(ckpt::SaveCheckpoint(path, **est, kFaultBatch).ok());
  ckpt::SetPersistFaultHookForTesting(nullptr);

  const std::vector<ckpt::PersistStep> want = {
      ckpt::PersistStep::kOpenTmp, ckpt::PersistStep::kWrite,
      ckpt::PersistStep::kFsync, ckpt::PersistStep::kRenamePrev,
      ckpt::PersistStep::kRenamePrimary};
  EXPECT_EQ(seen, want);
  for (const std::string& p : {path, path + ".prev", path + ".tmp"}) {
    std::remove(p.c_str());
  }
}

}  // namespace
}  // namespace tristream
