// src/exec tests: the thread pool's contract (futures and task errors,
// nested-first order, prompt release of captures, drain on destruction),
// deterministic sweep seeding, the grid-spec parser, the result sinks and
// checked file writers, and the headline regression — a small BFS grid must
// produce bit-identical results at --jobs=1 and --jobs=4.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/file_util.h"
#include "common/log.h"
#include "common/random.h"
#include "common/trace.h"
#include "core/report.h"
#include "exec/journal.h"
#include "exec/progress.h"
#include "exec/result_sink.h"
#include "exec/sweep.h"
#include "exec/thread_pool.h"
#include "workloads/trace_io.h"
#include "mutate.h"

namespace graphpim::exec {
namespace {

// A manually released gate used to hold a worker busy while the test pokes
// at the pool's pending queue.
class Gate {
 public:
  void Open() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(ThreadPool, ReturnsValuesAndRethrowsTaskErrors) {
  ThreadPool pool(2);
  auto f = pool.Submit([] { return 6 * 7; });
  auto g = pool.Submit([] {});
  auto h = pool.Submit([]() -> int { GP_THROW("task failed"); });
  EXPECT_EQ(f.get(), 42);
  g.get();
  EXPECT_THROW(h.get(), SimError);
  // The worker that ran the throwing task keeps serving.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(pool.Submit([i] { return i; }).get(), i);
  }
}

TEST(ThreadPool, ShutdownDrainsPendingTasks) {
  std::atomic<int> ran{0};
  Gate gate;  // declared before the pool: the gated task still uses it
  {
    ThreadPool pool(1);
    pool.Submit([&] { gate.Wait(); });
    // These sit queued behind the gated task; the destructor runs them all.
    for (int i = 0; i < 16; ++i) pool.Submit([&] { ran.fetch_add(1); });
    gate.Open();
  }
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, DestructorRunsEveryQueuedTask) {
  std::atomic<int> ran{0};
  Gate gate;
  {
    ThreadPool pool(2);
    // Each task submits another once released; the destructor also runs
    // what tasks submit while it waits for the workers.
    for (int i = 0; i < 8; ++i) {
      pool.Submit([&] {
        gate.Wait();
        pool.Submit([&] { ran.fetch_add(1); });
      });
    }
    gate.Open();
  }
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, NestedSubmissionsRunBeforeExternalOnes) {
  std::mutex mu;
  std::vector<std::string> order;
  auto log = [&](const char* what) {
    std::lock_guard<std::mutex> lk(mu);
    order.push_back(what);
  };
  Gate gate;
  ThreadPool pool(1);
  auto gated = pool.Submit([&] {
    gate.Wait();
    log("gated");
    return pool.Submit([&] { log("nested"); });
  });
  // Queued while the only worker is held by the gated task.
  auto external = pool.Submit([&] { log("external"); });
  gate.Open();
  gated.get().get();
  external.get();
  EXPECT_EQ(order, (std::vector<std::string>{"gated", "nested", "external"}));
}

// The order the sweep's memory bound rests on: a worker runs the task it
// submitted itself before an outside task, while another worker takes the
// outside task first.
TEST(ThreadPool, WorkersRunTheirOwnSubmissionsFirst) {
  Gate t1_go, t2_go, nested_queued, t1_done, nested_ran;
  std::atomic<int> started{0};
  std::future<std::thread::id> nested;
  ThreadPool pool(2);
  auto t1 = pool.Submit([&] {
    ++started;
    t1_go.Wait();
    nested = pool.Submit([&] {
      nested_ran.Open();
      return std::this_thread::get_id();
    });
    nested_queued.Open();
    t1_done.Wait();
    return std::this_thread::get_id();
  });
  auto t2 = pool.Submit([&] {
    ++started;
    t2_go.Wait();
    return std::this_thread::get_id();
  });
  while (started.load() < 2) std::this_thread::yield();
  // Both workers are held; this outside task waits in the queue. Once it
  // runs it holds its worker until the nested task has run elsewhere.
  auto outside = pool.Submit([&] {
    t1_done.Open();
    nested_ran.Wait();
    return std::this_thread::get_id();
  });
  t1_go.Open();
  nested_queued.Wait();
  t2_go.Open();  // t2's worker is now free while both tasks are queued
  const std::thread::id first = t1.get();
  const std::thread::id second = t2.get();
  EXPECT_EQ(nested.get(), first);
  EXPECT_EQ(outside.get(), second);
}

TEST(ThreadPool, ReleasesCapturesOnceTaskRuns) {
  ThreadPool pool(1);
  auto payload = std::make_shared<int>(7);
  const std::weak_ptr<int> watch = payload;
  auto first = pool.Submit([p = std::move(payload)] { return *p; });
  pool.Submit([] {}).get();
  // One worker ran `first` before the no-op, and its closure is gone,
  // although its future has not been read.
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(first.get(), 7);
}

TEST(ThreadPool, OnWorkerThreadDistinguishesInsideFromOutside) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.OnWorkerThread());
  EXPECT_TRUE(pool.Submit([&pool] { return pool.OnWorkerThread(); }).get());
}

TEST(SweepSeed, DeterministicAndDecorrelated) {
  const std::uint64_t a = DeriveCellSeed(1, 0, 0);
  EXPECT_EQ(a, DeriveCellSeed(1, 0, 0));  // pure function of its inputs
  std::set<std::uint64_t> seeds;
  for (std::size_t w = 0; w < 8; ++w) {
    for (std::size_t p = 0; p < 4; ++p) seeds.insert(DeriveCellSeed(1, w, p));
  }
  EXPECT_EQ(seeds.size(), 32u);  // no collisions across a realistic grid
  EXPECT_NE(DeriveCellSeed(1, 0, 0), DeriveCellSeed(2, 0, 0));
}

TEST(SweepGridSpec, ParsesEveryKey) {
  const SweepGrid g = ParseGridSpec(
      "workloads=bfs,prank;profiles=ldbc,twitter;modes=baseline,graphpim;"
      "vertices=2048;threads=8;opcap=100000;seed=7;full=0");
  EXPECT_EQ(g.workloads, (std::vector<std::string>{"bfs", "prank"}));
  EXPECT_EQ(g.profiles, (std::vector<std::string>{"ldbc", "twitter"}));
  ASSERT_EQ(g.configs.size(), 2u);
  EXPECT_EQ(g.config_names[0], "Baseline");
  EXPECT_EQ(g.config_names[1], "GraphPIM");
  EXPECT_EQ(g.vertices, 2048u);
  EXPECT_EQ(g.sim_threads, 8);
  EXPECT_EQ(g.op_cap, 100000u);
  EXPECT_EQ(g.base_seed, 7u);
  EXPECT_EQ(g.NumCells(), 4u);
  EXPECT_EQ(g.NumJobs(), 8u);
}

TEST(SweepGridSpec, ModeAllExpandsToThePaperMachines) {
  const SweepGrid g = ParseGridSpec("workloads=bfs;modes=all");
  ASSERT_EQ(g.configs.size(), 3u);
  EXPECT_EQ(g.config_names,
            (std::vector<std::string>{"Baseline", "U-PEI", "GraphPIM"}));
}

// Grid-spec user errors throw SimError (recoverable) so a driver or
// harness can report them without dying; the message names the accepted
// keys to make typos self-diagnosing.
TEST(SweepGridSpec, RejectsUnknownKeysAndEmptyWorkloads) {
  try {
    ParseGridSpec("workloads=bfs;bogus=1");
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(e.message().find("unknown grid spec key"), std::string::npos);
    EXPECT_NE(e.message().find("link_ber"), std::string::npos);  // lists keys
  }
  EXPECT_THROW({ ParseGridSpec("modes=all"); }, SimError);
  EXPECT_THROW({ ParseGridSpec("workloads=bfs;vertices=abc"); }, SimError);
}

TEST(SweepGridSpec, RejectsMalformedAndOutOfRangeFields) {
  // Not key=value.
  EXPECT_THROW({ ParseGridSpec("workloads=bfs;threads"); }, SimError);
  // Duplicates (same workload/profile twice would double-count cells).
  EXPECT_THROW({ ParseGridSpec("workloads=bfs,bfs"); }, SimError);
  EXPECT_THROW({ ParseGridSpec("workloads=bfs;profiles=ldbc,ldbc"); }, SimError);
  EXPECT_THROW({ ParseGridSpec("workloads=bfs;modes=baseline,baseline"); },
               SimError);
  // Out-of-range numerics.
  EXPECT_THROW({ ParseGridSpec("workloads=bfs;vertices=0"); }, SimError);
  EXPECT_THROW({ ParseGridSpec("workloads=bfs;threads=0"); }, SimError);
  EXPECT_THROW({ ParseGridSpec("workloads=bfs;link_ber=1.5"); }, SimError);
  EXPECT_THROW({ ParseGridSpec("workloads=bfs;link_ber=-1e-9"); }, SimError);
  EXPECT_THROW({ ParseGridSpec("workloads=bfs;link_ber=abc"); }, SimError);
  EXPECT_THROW({ ParseGridSpec("workloads=bfs;vault_stall_ppm=2000000"); },
               SimError);
  EXPECT_THROW({ ParseGridSpec("workloads=bfs;poison_ppm=1000001"); }, SimError);
  EXPECT_THROW({ ParseGridSpec("workloads=bfs;retry_ns=-1"); }, SimError);
  // Unknown mode names come through ParseModeList.
  EXPECT_THROW({ ParseGridSpec("workloads=bfs;modes=warp9"); }, SimError);
  EXPECT_THROW({ ParseModeList(""); }, SimError);
}

TEST(SweepGridSpec, RejectsAKeyGivenTwice) {
  // graphpim_sim appends machine-knob flags to --sweep's spec, so a key in
  // both places arrives here twice: neither value may silently win.
  auto expect_throw_naming = [](const std::string& spec, const char* named) {
    try {
      ParseGridSpec(spec);
      ADD_FAILURE() << spec << " should not parse";
    } catch (const SimError& e) {
      EXPECT_NE(e.message().find(named), std::string::npos)
          << spec << " -> " << e.message();
    }
  };
  expect_throw_naming("workloads=bfs;threads=8;threads=4", "'threads'");
  expect_throw_naming("workloads=bfs;link_ber=1e-7;link_ber=1e-6",
                      "'link_ber'");
  expect_throw_naming("workloads=bfs;workloads=dc", "'workloads'");
  // The cube axis counts as one key under all three spellings.
  expect_throw_naming("workloads=bfs;num_cubes=1,2;hmc.num_cubes=4",
                      "'num_cubes'");
  // Two spellings of one knob with different values (FromConfig's check).
  expect_throw_naming("workloads=bfs;link_ber=1e-7;link-ber=1e-6",
                      "'link_ber'");
  // The same value under both spellings is not a conflict.
  const SweepGrid g =
      ParseGridSpec("workloads=bfs;link_ber=1e-7;link-ber=1e-7");
  EXPECT_DOUBLE_EQ(g.configs[0].hmc.fault.link_ber, 1e-7);
}

TEST(SweepGridSpec, RejectsVertexCountsTheGeneratorCannotBuild) {
  // 4294967297 used to wrap to one vertex, whose RMAT draw never ends.
  for (const char* v : {"0", "1", "2147483649", "4294967297"}) {
    const std::string spec = std::string("workloads=bfs;vertices=") + v;
    try {
      ParseGridSpec(spec);
      ADD_FAILURE() << spec << " should not parse";
    } catch (const SimError& e) {
      EXPECT_NE(e.message().find("'vertices'"), std::string::npos)
          << spec << " -> " << e.message();
    }
  }
  EXPECT_EQ(ParseGridSpec("workloads=bfs;vertices=2").vertices, 2u);
  EXPECT_EQ(ParseGridSpec("workloads=bfs;vertices=2147483648").vertices,
            2147483648u);
}

// SplitMix64 mutants of a spec that sets every kind of key (tests/mutate.h)
// must each parse or throw SimError, never crash or exit.
TEST(SweepGridSpec, MutantsParseOrThrowSimError) {
  const std::string seed =
      "workloads=bfs,prank;profiles=ldbc,twitter;modes=baseline,graphpim;"
      "vertices=2048;threads=8;opcap=100000;seed=7;full=0;num_cubes=1,4;"
      "topology=star;link_ber=1e-7;uc-depth=32";
  ASSERT_NO_THROW(ParseGridSpec(seed));
  constexpr std::string_view kSpecBytes = ";=,.-+eEx0123456789 \t";
  constexpr std::size_t kMutants = 20'000;
  SplitMix64 rng(0x67726964);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < kMutants; ++i) {
    const std::string m = Mutate(seed, rng, kSpecBytes);
    try {
      const SweepGrid g = ParseGridSpec(m);
      ++parsed;
      EXPECT_FALSE(g.workloads.empty()) << m;
      EXPECT_EQ(g.configs.size(), g.config_names.size()) << m;
    } catch (const SimError&) {
      ++rejected;
    }
  }
  EXPECT_GT(parsed, kMutants / 20);
  EXPECT_GT(rejected, kMutants / 20);
}

TEST(SweepGridSpec, FaultKeysApplyToEveryConfig) {
  SweepGrid g = ParseGridSpec(
      "workloads=bfs;modes=baseline,graphpim;link_ber=1e-9;"
      "vault_stall_ppm=50;poison_ppm=5;max_retries=7;retry_ns=12");
  ASSERT_EQ(g.configs.size(), 2u);
  for (const core::SimConfig& c : g.configs) {
    EXPECT_DOUBLE_EQ(c.hmc.fault.link_ber, 1e-9);
    EXPECT_EQ(c.hmc.fault.vault_stall_ppm, 50u);
    EXPECT_EQ(c.hmc.fault.poison_ppm, 5u);
    EXPECT_EQ(c.hmc.fault.max_retries, 7u);
    EXPECT_EQ(c.hmc.fault.retry_latency, NsToTicks(12.0));
    EXPECT_EQ(c.hmc.fault.seed, 0u);  // per-job seed is derived at run time
    EXPECT_TRUE(c.hmc.fault.Enabled());
  }
  // Zero knobs leave the fault plan disabled (ideal-cube path).
  SweepGrid ideal = ParseGridSpec("workloads=bfs");
  EXPECT_FALSE(ideal.configs[0].hmc.fault.Enabled());
}

// Shared tiny grid for the runner tests: 1 workload x 1 profile x 3 paper
// machines on a small graph, so the whole sweep stays fast enough for CI.
SweepGrid TinyGrid() {
  SweepGrid g = ParseGridSpec("workloads=bfs;modes=all");
  g.vertices = 2048;
  g.op_cap = 120'000;
  return g;
}

TEST(SweepRunner, RowsComeBackInGridOrderWithProgress) {
  std::mutex mu;
  std::size_t calls = 0;
  SweepRunner::Options opts;
  opts.jobs = 2;
  opts.on_progress = [&](const SweepProgress& p) {
    std::lock_guard<std::mutex> lk(mu);
    ++calls;
    EXPECT_EQ(p.total, 3u);
  };
  const SweepResultTable t = SweepRunner(opts).Run(TinyGrid());
  ASSERT_EQ(t.rows.size(), 3u);
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(t.rows[0].config_name, "Baseline");
  EXPECT_EQ(t.rows[1].config_name, "U-PEI");
  EXPECT_EQ(t.rows[2].config_name, "GraphPIM");
  for (const SweepRow& r : t.rows) {
    EXPECT_EQ(r.workload, "bfs");
    EXPECT_GT(r.results.cycles, 0u);
  }
  // GraphPIM must beat the baseline even on the tiny graph.
  EXPECT_GT(t.SpeedupVsFirstConfig(t.rows[2]), 1.0);
  const SweepRow* found = t.Find("bfs", "ldbc", "GraphPIM");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->config_idx, 2u);
  EXPECT_EQ(t.Find("bfs", "ldbc", "nope"), nullptr);
}

TEST(SweepProgressLine, FormatsCountersEtaAndFailureMarker) {
  SweepProgress p;
  p.completed = 2;
  p.total = 6;
  p.workload = "bfs";
  p.profile = "ldbc";
  p.config_name = "GraphPIM";
  p.wall_ms = 123.0;
  // ETA = elapsed/completed * remaining = 2000/2 * 4 = 4000 ms -> 4s.
  const std::string line = FormatProgressLine(p, 2000.0);
  EXPECT_NE(line.find("[  2/  6]"), std::string::npos) << line;
  EXPECT_NE(line.find("bfs"), std::string::npos);
  EXPECT_NE(line.find("GraphPIM"), std::string::npos);
  EXPECT_NE(line.find("| ETA 4s"), std::string::npos) << line;
  EXPECT_EQ(line.find("FAILED"), std::string::npos);
  EXPECT_EQ(line.back(), '\n');
  // Zero completed never divides by zero.
  p.completed = 0;
  EXPECT_NE(FormatProgressLine(p, 2000.0).find("ETA 0s"), std::string::npos);
  // Failed jobs are marked.
  p.completed = 2;
  p.status = JobStatus::kFailed;
  const std::string failed = FormatProgressLine(p, 2000.0);
  EXPECT_NE(failed.find("  FAILED\n"), std::string::npos) << failed;
}

TEST(SweepRunner, ProgressHeartbeatUnderConcurrentJobs) {
  // The heartbeat satellite: under a parallel pool the runner must invoke
  // on_progress serially (under its lock) with a strictly advancing
  // completed counter, and the shared StderrHeartbeat sink must emit one
  // well-formed line per retired job.
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  auto heartbeat = StderrHeartbeat(sink);
  std::mutex mu;
  std::vector<std::size_t> completed_seen;
  SweepRunner::Options opts;
  opts.jobs = 4;
  opts.on_progress = [&](const SweepProgress& p) {
    std::lock_guard<std::mutex> lk(mu);
    completed_seen.push_back(p.completed);
    EXPECT_EQ(p.total, 3u);
    EXPECT_EQ(p.status, JobStatus::kOk);
    heartbeat(p);
  };
  const SweepResultTable t = SweepRunner(opts).Run(TinyGrid());
  EXPECT_EQ(t.failed_rows, 0u);
  // Serialized retirement: completed counts are exactly 1..total in order.
  ASSERT_EQ(completed_seen.size(), 3u);
  for (std::size_t i = 0; i < completed_seen.size(); ++i) {
    EXPECT_EQ(completed_seen[i], i + 1);
  }
  // One heartbeat line per job landed in the sink.
  std::rewind(sink);
  char buf[256];
  std::size_t lines = 0;
  while (std::fgets(buf, sizeof(buf), sink) != nullptr) {
    ++lines;
    EXPECT_EQ(buf[0], '[') << buf;
    EXPECT_NE(std::string(buf).find("| ETA "), std::string::npos) << buf;
  }
  EXPECT_EQ(lines, 3u);
  std::fclose(sink);
}

TEST(SweepRunner, JobCountDoesNotChangeResults) {
  const SweepGrid grid = TinyGrid();
  SweepRunner::Options serial_opts;
  serial_opts.jobs = 1;
  SweepRunner::Options parallel_opts;
  parallel_opts.jobs = 4;
  const SweepResultTable serial = SweepRunner(serial_opts).Run(grid);
  const SweepResultTable parallel = SweepRunner(parallel_opts).Run(grid);
  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_EQ(serial.rows[i].seed, parallel.rows[i].seed);
    // Bit-identical per-run payload, field by field via the JSON report.
    EXPECT_EQ(core::ToJson(serial.rows[i].results),
              core::ToJson(parallel.rows[i].results))
        << "row " << i << " (" << serial.rows[i].config_name << ")";
    // StatRegistry::Merge is order-insensitive: the full unified registry
    // (core.* totals included) must be bit-identical at any pool width.
    EXPECT_EQ(serial.rows[i].results.raw.AllItems(),
              parallel.rows[i].results.raw.AllItems())
        << "row " << i;
  }
  // The deterministic serialization must match byte for byte.
  EXPECT_EQ(ToDeterministicCsv(serial), ToDeterministicCsv(parallel));
}

TEST(ResultSink, CsvAndJsonCarryTheTable) {
  SweepRunner::Options opts;
  opts.jobs = 2;
  const SweepResultTable t = SweepRunner(opts).Run(TinyGrid());
  const std::string csv = ToCsv(t);
  EXPECT_NE(csv.find("workload,profile,config,seed,cycles"), std::string::npos);
  EXPECT_NE(csv.find("bfs,ldbc,GraphPIM"), std::string::npos);
  // Header + one line per row.
  EXPECT_EQ(static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n')),
            1 + t.rows.size());
  const std::string det = ToDeterministicCsv(t);
  EXPECT_EQ(det.find("wall_ms"), std::string::npos);

  const std::string json = ToJson(t);
  EXPECT_NE(json.find("\"rows\""), std::string::npos);
  EXPECT_NE(json.find("\"timing\""), std::string::npos);
  EXPECT_NE(json.find("\"config\": \"GraphPIM\""), std::string::npos);
  // Each row embeds the full core report object.
  EXPECT_NE(json.find("\"l2_mpki\""), std::string::npos);
}

TEST(SweepFault, JournalWriteFailureThrows) {
  SweepRunner::Options opts;
  opts.jobs = 4;
  opts.journal_path = "/dev/full";
  try {
    SweepRunner(opts).Run(TinyGrid());
    FAIL() << "a journal on a full device must not pass silently";
  } catch (const SimError& e) {
    EXPECT_NE(e.message().find("/dev/full"), std::string::npos) << e.message();
  }
}

// A throw out of the harvest unwinds Run while replays are still running.
// The pool is declared after the locals its tasks capture, so it joins them
// before those locals go away (the sanitizer jobs run this test), and work
// still queued returns at once instead of simulating the rest of the grid.
TEST(SweepFault, ProgressCallbackErrorPropagates) {
  SweepGrid grid = ParseGridSpec("workloads=bfs,dc;modes=all");
  grid.vertices = 2048;
  grid.op_cap = 120'000;
  for (int jobs : {4, 1}) {
    std::atomic<int> calls{0};
    SweepRunner::Options opts;
    opts.jobs = jobs;
    opts.on_progress = [&calls](const SweepProgress&) {
      ++calls;
      GP_THROW("progress sink failed");
    };
    EXPECT_THROW(SweepRunner(opts).Run(grid), SimError);
    // The one worker is about one replay ahead of the harvest when the
    // first replay's error reaches it, so the rest of the grid is skipped.
    if (jobs == 1) {
      EXPECT_LT(calls.load(), 6);
    }
  }
}

// Every file the tools write fails with a SimError naming it: a missing
// directory at fopen, a full disk at fwrite, fflush or fclose.
TEST(FileWrite, FailuresThrowNamingThePath) {
  auto expect_throw_naming = [](const std::string& path, auto write) {
    try {
      write(path);
      ADD_FAILURE() << "writing " << path << " should fail";
    } catch (const SimError& e) {
      EXPECT_NE(e.message().find(path), std::string::npos) << e.message();
    }
  };
  for (const std::string path : {"/nonexistent/dir/out", "/dev/full"}) {
    expect_throw_naming(path, [](const std::string& p) {
      WriteWholeFile(p, "{}\n");
    });
    expect_throw_naming(path, [](const std::string& p) {
      core::WriteJson(core::SimResults{}, p);
    });
    expect_throw_naming(path, [](const std::string& p) {
      WriteDeterministicCsv(SweepResultTable{}, p);
    });
    expect_throw_naming(path, [](const std::string& p) {
      trace::WriteTrace(p, {}, "");
    });
    expect_throw_naming(path, [](const std::string& p) {
      workloads::SaveTrace(workloads::Trace{}, p);
    });
  }
  JournalWriter journal;
  expect_throw_naming("/dev/full", [&journal](const std::string& p) {
    journal.Open(p, "fingerprint");
  });
}

TEST(FileWrite, WritesTheWholeContent) {
  const std::string path = ::testing::TempDir() + "/graphpim_file_write.txt";
  const std::string content(100000, 'x');
  WriteWholeFile(path, content);
  WriteWholeFile(path, content);  // replaces, never appends
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string back(2 * content.size(), '\0');
  back.resize(std::fread(back.data(), 1, back.size(), f));
  std::fclose(f);
  EXPECT_EQ(back, content);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace graphpim::exec
