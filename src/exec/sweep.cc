#include "exec/sweep.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "common/config.h"
#include "common/log.h"
#include "common/random.h"
#include "common/string_util.h"
#include "exec/journal.h"
#include "exec/thread_pool.h"
#include "fault/fault.h"
#include "graph/generator.h"

namespace graphpim::exec {

namespace {

// Keys that shape the job matrix itself; every machine knob
// (link_ber, num_cubes, topology, ...) is owned by SimConfig's field table
// and routed through SimConfig::FromConfig, so the grid spec accepts new
// knobs the moment the table grows a row.
constexpr const char* kStructuralKeys[] = {"workloads", "profiles", "modes",
                                           "vertices",  "threads",  "opcap",
                                           "seed"};

// num_cubes is special: it is the one machine knob that may carry a comma
// list, expanding the config axis (modes x cube counts) for cube-scaling
// sweeps. Both the flat and the hmc.-qualified spelling are accepted.
constexpr const char* kCubeAxisKeys[] = {"num_cubes", "num-cubes",
                                         "hmc.num_cubes"};

std::string AcceptedGridKeys() {
  std::string list;
  for (const char* k : kStructuralKeys) {
    if (!list.empty()) list += "|";
    list += k;
  }
  for (const std::string& k : core::SimConfig::ConfigKeys()) {
    list += "|" + k;
  }
  return list;
}

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Checked numeric parses with the grid key in the diagnostic. These are
// user errors, so they throw SimError (recoverable) rather than abort.
std::uint64_t ParseGridUint(const std::string& key, const std::string& val) {
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(val.c_str(), &end, 0);
  if (end == nullptr || end == val.c_str() || *end != '\0') {
    GP_THROW("grid spec key '", key, "': '", val, "' is not an integer");
  }
  return v;
}

double ParseGridDouble(const std::string& key, const std::string& val) {
  char* end = nullptr;
  const double v = std::strtod(val.c_str(), &end);
  if (end == nullptr || end == val.c_str() || *end != '\0') {
    GP_THROW("grid spec key '", key, "': '", val, "' is not a number");
  }
  return v;
}

void RejectDuplicates(const std::vector<std::string>& names, const char* what) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      if (names[i] == names[j]) {
        GP_THROW("duplicate ", what, " '", names[i], "' in grid spec");
      }
    }
  }
}

}  // namespace

std::uint64_t DeriveCellSeed(std::uint64_t base_seed, std::size_t workload_idx,
                             std::size_t profile_idx) {
  // Two SplitMix64 rounds: one to decorrelate the user seed, one to fold in
  // the cell coordinates. Purely value-dependent, so stable everywhere.
  SplitMix64 a(base_seed);
  const std::uint64_t mixed = a.Next();
  SplitMix64 b(mixed ^ ((static_cast<std::uint64_t>(workload_idx) << 32) |
                        static_cast<std::uint64_t>(profile_idx)));
  return b.Next();
}

const char* ToString(JobStatus s) {
  return s == JobStatus::kOk ? "ok" : "failed";
}

const SweepRow* SweepResultTable::Find(const std::string& workload,
                                       const std::string& profile,
                                       const std::string& config_name) const {
  for (const SweepRow& r : rows) {
    if (r.workload == workload && r.profile == profile &&
        r.config_name == config_name) {
      return &r;
    }
  }
  return nullptr;
}

double SweepResultTable::SpeedupVsFirstConfig(const SweepRow& row) const {
  for (const SweepRow& r : rows) {
    if (r.workload_idx == row.workload_idx && r.profile_idx == row.profile_idx &&
        r.config_idx == 0) {
      if (row.results.cycles == 0) return 0.0;
      return static_cast<double>(r.results.cycles) /
             static_cast<double>(row.results.cycles);
    }
  }
  return 0.0;
}

SweepResultTable SweepRunner::Run(const SweepGrid& grid) const {
  GP_CHECK(!grid.workloads.empty(), "sweep grid has no workloads");
  GP_CHECK(!grid.profiles.empty(), "sweep grid has no profiles");
  GP_CHECK(!grid.configs.empty(), "sweep grid has no configs");
  GP_CHECK(grid.config_names.size() == grid.configs.size(),
           "config_names must parallel configs");
  for (const core::SimConfig& c : grid.configs) {
    GP_CHECK(c.num_cores >= grid.sim_threads,
             "config simulates fewer cores than the trace has streams");
  }
  // Every config of a cell replays the ONE shared trace, and pmem.enable
  // decides whether that trace carries flush/fence discipline — so it must
  // be uniform across the grid (the fingerprint covers pmem.* via
  // Describe(), so --resume already refuses cross-persistence splices).
  for (const core::SimConfig& c : grid.configs) {
    if (c.pmem.enable != grid.configs.front().pmem.enable) {
      GP_THROW("config key 'pmem.enable' must be uniform across a sweep "
               "grid: all configs replay one shared trace, which either "
               "carries persist ops or does not");
    }
  }
  // Same reasoning for the ann.* block: the hnsw workload bakes the knob
  // values into the ONE shared trace at generation time, so per-config
  // ann values cannot take effect and almost certainly mean a mis-specified
  // grid (sweep ann knobs as grid axes instead).
  for (const core::SimConfig& c : grid.configs) {
    if (c.ann != grid.configs.front().ann) {
      GP_THROW("config keys 'ann.*' must be uniform across a sweep grid: "
               "all configs replay one shared trace, which is generated "
               "with one ann parameter block");
    }
  }

  const auto sweep_t0 = std::chrono::steady_clock::now();
  const std::size_t num_cells = grid.NumCells();
  const std::size_t num_configs = grid.configs.size();
  const std::size_t total = grid.NumJobs();

  struct JobOut {
    std::optional<core::SimResults> results;  // empty on failure
    std::string error;
    double wall_ms = 0.0;
    trace::IntervalLog phases;    // populated only when journaling phases
    trace::SpanLog spans;         // populated when the config samples spans
    trace::IntervalLog timeline;  // populated when telemetry.window_ns > 0
  };

  // Phase capture costs one registry snapshot per superstep, so only pay
  // for it when there is a journal to carry the sidecar lines.
  const bool want_phases = opts_.journal_phases && !opts_.journal_path.empty();
  // Span capture is keyed off the config itself (trace.sample_rate > 0):
  // the recorder runs either way to fold span.* stats, so the only question
  // is whether to keep the log for a journal sidecar.
  const bool journal_open = !opts_.journal_path.empty();

  // Resume: restore journaled rows keyed by flat grid index. The
  // fingerprint gate makes a stale journal (different grid) an error
  // instead of a silent wrong-answer.
  const std::string fingerprint =
      opts_.journal_path.empty() ? std::string() : GridFingerprint(grid);
  std::vector<std::unique_ptr<SweepRow>> restored(total);
  if (opts_.resume) {
    GP_CHECK(!opts_.journal_path.empty(), "resume requires a journal path");
    JournalData jd;
    if (LoadJournal(opts_.journal_path, grid, &jd)) {
      if (jd.fingerprint != fingerprint) {
        GP_THROW("sweep journal '", opts_.journal_path,
                 "' was written for a different grid (fingerprint mismatch); "
                 "delete it or point --journal elsewhere to start fresh");
      }
      // LoadJournal kept only rows that match their cell; the first row
      // for a cell wins.
      for (SweepRow& r : jd.rows) {
        const std::size_t idx =
            (r.workload_idx * grid.profiles.size() + r.profile_idx) *
                num_configs +
            r.config_idx;
        if (restored[idx] == nullptr) {
          restored[idx] = std::make_unique<SweepRow>(std::move(r));
        }
      }
    }
  }

  JournalWriter writer;
  if (!opts_.journal_path.empty()) writer.Open(opts_.journal_path, fingerprint);

  std::mutex progress_mu;
  std::size_t completed = 0;
  auto report_progress = [&](std::size_t wi, std::size_t pi, std::size_t k,
                             double wall_ms, JobStatus status) {
    if (!opts_.on_progress) return;
    std::lock_guard<std::mutex> lk(progress_mu);
    ++completed;
    SweepProgress p;
    p.completed = completed;
    p.total = total;
    p.workload = grid.workloads[wi];
    p.profile = grid.profiles[pi];
    p.config_name = grid.config_names[k];
    p.wall_ms = wall_ms;
    p.status = status;
    opts_.on_progress(p);
  };

  // A cell's value: its build time and the futures of its replay jobs,
  // indexed by config (configs restored from the journal stay invalid).
  struct CellOut {
    double build_ms = 0.0;
    std::vector<std::future<JobOut>> jobs;
  };

  std::atomic<bool> abandoned{false};
  // Declared after every local its tasks capture by reference: if the
  // harvest below throws, the pool joins before those locals go away.
  ThreadPool pool(opts_.jobs);
  // Destroyed before the pool: once the harvest throws (a journal write
  // failed), the queued cells and replays return at once, so the error
  // surfaces without the rest of the grid being simulated first.
  struct AbandonOnExit {
    std::atomic<bool>& flag;
    ~AbandonOnExit() { flag = true; }
  } abandon_on_exit{abandoned};

  // Cell tasks build the shared Experiment, then fan the per-config replay
  // jobs out from the worker thread itself, so replays start the moment
  // their trace exists. A cell whose configs all came back from the journal
  // submits nothing and its future stays invalid. The calling thread
  // harvests the cells, and then each cell's jobs, in grid order.
  std::vector<std::future<CellOut>> cells(num_cells);
  for (std::size_t ci = 0; ci < num_cells; ++ci) {
    const std::size_t wi = ci / grid.profiles.size();
    const std::size_t pi = ci % grid.profiles.size();

    std::vector<std::size_t> needed;
    for (std::size_t k = 0; k < num_configs; ++k) {
      if (restored[ci * num_configs + k] == nullptr) needed.push_back(k);
    }
    if (needed.empty()) continue;

    cells[ci] = pool.Submit([&, wi, pi, needed] {
      CellOut cell;
      if (abandoned) return cell;
      const auto build_t0 = std::chrono::steady_clock::now();
      const std::uint64_t cell_seed = DeriveCellSeed(grid.base_seed, wi, pi);
      core::Experiment::Options eo;
      eo.num_threads = grid.sim_threads;
      eo.seed = cell_seed;
      eo.op_cap = grid.op_cap;
      // Uniform across the grid (prevalidated above).
      eo.params.ann = grid.configs.front().ann;
      // Uniform across the grid (prevalidated above): a persistent grid
      // generates the full flush/fence discipline into the shared trace.
      if (grid.configs.front().pmem.enable) {
        eo.persist = pmem::PersistMode::kFull;
      }
      // An unbuildable cell (bad workload/profile name, degenerate graph,
      // ...) throws here; the harvest turns the cell future's exception
      // into failed rows, and the rest of the grid proceeds.
      const auto exp = std::make_shared<core::Experiment>(
          grid.profiles[pi], grid.vertices, grid.workloads[wi], eo);
      cell.build_ms = MsSince(build_t0);
      cell.jobs.resize(num_configs);
      for (std::size_t k : needed) {
        cell.jobs[k] = pool.Submit([&, exp, cell_seed, wi, pi, k] {
          JobOut out;
          if (abandoned) return out;
          const auto run_t0 = std::chrono::steady_clock::now();
          // A failed replay becomes a status=kFailed row, not a failed sweep.
          try {
            core::SimConfig cfg = grid.configs[k];
            cfg.hmc.fault.seed = fault::DeriveFaultSeed(cell_seed, k);
            core::RunOptions ro;
            if (want_phases) ro.phases = &out.phases;
            if (journal_open && cfg.trace_sample_rate > 0.0) {
              ro.spans = &out.spans;
            }
            // Timeline sidecars follow the span convention: captured when
            // the journal can carry them and the config turns windows on.
            if (journal_open && cfg.telemetry_window_ns > 0.0) {
              ro.timeline = &out.timeline;
            }
            out.results = exp->Run(cfg, ro);
          } catch (const std::exception& e) {
            out.error = e.what();
          }
          out.wall_ms = MsSince(run_t0);
          report_progress(wi, pi, k, out.wall_ms,
                          out.results.has_value() ? JobStatus::kOk
                                                  : JobStatus::kFailed);
          return out;
        });
      }
      return cell;
    });
  }

  SweepResultTable table;
  table.rows.reserve(total);
  for (std::size_t ci = 0; ci < num_cells; ++ci) {
    CellOut cell;
    std::optional<std::string> cell_error;
    if (cells[ci].valid()) {
      try {
        cell = cells[ci].get();
      } catch (const std::exception& e) {
        cell_error = e.what();
      }
    }
    table.build_wall_ms += cell.build_ms;
    const std::size_t wi = ci / grid.profiles.size();
    const std::size_t pi = ci % grid.profiles.size();
    const std::uint64_t cell_seed = DeriveCellSeed(grid.base_seed, wi, pi);
    for (std::size_t k = 0; k < num_configs; ++k) {
      const std::size_t idx = ci * num_configs + k;

      if (restored[idx] != nullptr) {
        SweepRow row = std::move(*restored[idx]);
        ++table.resumed_rows;
        report_progress(wi, pi, k, 0.0, JobStatus::kOk);
        table.rows.push_back(std::move(row));
        continue;
      }

      SweepRow row;
      row.workload_idx = wi;
      row.profile_idx = pi;
      row.config_idx = k;
      row.workload = grid.workloads[wi];
      row.profile = grid.profiles[pi];
      row.config_name = grid.config_names[k];
      row.seed = cell_seed;

      if (cell_error.has_value()) {
        row.status = JobStatus::kFailed;
        row.error = *cell_error;
        ++table.failed_rows;
        report_progress(wi, pi, k, 0.0, JobStatus::kFailed);
        table.rows.push_back(std::move(row));
        continue;
      }

      JobOut out = cell.jobs[k].get();
      row.wall_ms = out.wall_ms;
      if (out.results.has_value()) {
        row.results = std::move(*out.results);
        // Journal only freshly-computed OK rows: failed rows must be
        // retried by a resume, and restored rows are already on disk.
        writer.Append(row);
        writer.AppendIntervals("phases", "phases", row, out.phases);
        writer.AppendSpans(row, out.spans);
        writer.AppendIntervals("timeline", "windows", row, out.timeline);
      } else {
        row.status = JobStatus::kFailed;
        row.error = out.error;
        ++table.failed_rows;
      }
      table.job_wall_ms.Record(row.wall_ms);
      table.run_wall_ms += row.wall_ms;
      table.rows.push_back(std::move(row));
    }
  }
  writer.Close();
  table.total_wall_ms = MsSince(sweep_t0);
  return table;
}

int ParseJobs(const Config& cfg) {
  const std::int64_t jobs = cfg.GetInt("jobs", 0);
  if (jobs < 0 || jobs > std::numeric_limits<int>::max()) {
    GP_THROW("config key 'jobs' must be 0 (one worker per hardware thread) "
             "or a positive count; got ", jobs);
  }
  return static_cast<int>(jobs);
}

std::vector<core::Mode> ParseModeList(const std::string& arg) {
  std::vector<core::Mode> modes;
  for (const std::string& tok : Split(arg, ',')) {
    const std::string m = Trim(tok);
    if (m.empty()) continue;
    if (m == "all") {
      modes.push_back(core::Mode::kBaseline);
      modes.push_back(core::Mode::kUPei);
      modes.push_back(core::Mode::kGraphPim);
    } else if (m == "baseline") {
      modes.push_back(core::Mode::kBaseline);
    } else if (m == "upei") {
      modes.push_back(core::Mode::kUPei);
    } else if (m == "graphpim") {
      modes.push_back(core::Mode::kGraphPim);
    } else if (m == "ucnopim") {
      modes.push_back(core::Mode::kUncacheNoPim);
    } else {
      GP_THROW("unknown mode '", m, "' (want baseline|upei|graphpim|ucnopim|all)");
    }
  }
  if (modes.empty()) GP_THROW("empty mode list");
  return modes;
}

SweepGrid ParseGridSpec(const std::string& spec) {
  SweepGrid grid;
  grid.profiles.clear();
  std::vector<core::Mode> modes;
  std::vector<std::uint64_t> cube_counts;  // config axis; empty = table default
  graphpim::Config machine;  // scalar machine knobs, handed to FromConfig

  const std::vector<std::string> machine_keys = core::SimConfig::ConfigKeys();
  auto is_machine_key = [&](const std::string& k) {
    for (const std::string& mk : machine_keys)
      if (k == mk) return true;
    return false;
  };
  auto is_cube_axis_key = [](const std::string& k) {
    for (const char* ck : kCubeAxisKeys)
      if (k == ck) return true;
    return false;
  };

  std::vector<std::string> keys;  // every key given, for the duplicate check
  for (const std::string& field : Split(spec, ';')) {
    const std::string f = Trim(field);
    if (f.empty()) continue;
    const auto eq = f.find('=');
    if (eq == std::string::npos) {
      GP_THROW("grid spec field '", f, "' is not key=value (accepted keys: ",
               AcceptedGridKeys(), ")");
    }
    const std::string key = Trim(f.substr(0, eq));
    const std::string val = Trim(f.substr(eq + 1));
    keys.push_back(is_cube_axis_key(key) ? "num_cubes" : key);
    if (key == "workloads") {
      for (const std::string& w : Split(val, ','))
        if (!Trim(w).empty()) grid.workloads.push_back(Trim(w));
    } else if (key == "profiles") {
      for (const std::string& p : Split(val, ','))
        if (!Trim(p).empty()) grid.profiles.push_back(Trim(p));
    } else if (key == "modes") {
      modes = ParseModeList(val);
    } else if (key == "vertices") {
      const std::uint64_t v = ParseGridUint(key, val);
      if (v < graph::kMinRmatVertices || v > graph::kMaxRmatVertices) {
        GP_THROW("grid spec key 'vertices' must be in [", graph::kMinRmatVertices,
                 ", ", graph::kMaxRmatVertices, "], got '", val, "'");
      }
      grid.vertices = static_cast<VertexId>(v);
    } else if (key == "threads") {
      grid.sim_threads = static_cast<int>(ParseGridUint(key, val));
      if (grid.sim_threads < 1) GP_THROW("grid spec key 'threads' must be >= 1");
    } else if (key == "opcap") {
      grid.op_cap = ParseGridUint(key, val);
    } else if (key == "seed") {
      grid.base_seed = ParseGridUint(key, val);
    } else if (is_cube_axis_key(key)) {
      // Comma list expands the config axis: modes x cube counts.
      for (const std::string& tok : Split(val, ',')) {
        const std::string c = Trim(tok);
        if (c.empty()) continue;
        const std::uint64_t nc = ParseGridUint("num_cubes", c);
        // 0 doubles as the leave-default sentinel below, so reject it here
        // rather than silently running the table default.
        if (nc < 1) GP_THROW("grid spec key 'num_cubes' needs counts >= 1");
        cube_counts.push_back(nc);
      }
      if (cube_counts.empty()) {
        GP_THROW("grid spec key 'num_cubes' needs at least one count");
      }
    } else if (key == "full" || key == "topology") {
      machine.Set(key, val);  // non-numeric knobs; FromConfig validates
    } else if (is_machine_key(key)) {
      // Numeric machine knob: check it parses here (a grid-spec typo is a
      // SimError, not a GP_FATAL deep in Config), then let FromConfig /
      // Validate own the range check so the grid spec and the tool CLIs
      // reject identically.
      ParseGridDouble(key, val);
      machine.Set(key, val);
    } else {
      GP_THROW("unknown grid spec key '", key, "' (accepted keys: ",
               AcceptedGridKeys(), ")");
    }
  }

  if (grid.workloads.empty()) {
    GP_THROW("grid spec needs workloads=... (accepted keys: ",
             AcceptedGridKeys(), ")");
  }
  // A key given twice (say in the spec and again as a graphpim_sim flag)
  // must not let one value silently win.
  RejectDuplicates(keys, "key");
  RejectDuplicates(grid.workloads, "workload");
  RejectDuplicates(grid.profiles, "profile");
  if (grid.profiles.empty()) grid.profiles.push_back("ldbc");
  if (modes.empty()) modes = ParseModeList("all");
  machine.Set("threads", std::to_string(grid.sim_threads));

  // The config axis is modes x cube counts; names stay the bare mode
  // string unless the sweep actually scales cubes (then "GraphPIM-c4").
  const bool cube_axis = cube_counts.size() > 1;
  if (cube_counts.empty()) cube_counts.push_back(0);  // 0 = leave default
  for (core::Mode m : modes) {
    for (std::uint64_t nc : cube_counts) {
      graphpim::Config mc = machine;
      if (nc != 0) mc.Set("num_cubes", std::to_string(nc));
      // Per-job fault seeds are derived from the cell seed at run time
      // (SweepRunner), so the parsed config's seed stays zero.
      grid.configs.push_back(core::SimConfig::FromConfig(mc, m));
      std::string name = ToString(m);
      if (cube_axis) {
        name += StrFormat("-c%llu", static_cast<unsigned long long>(nc));
      }
      grid.config_names.push_back(name);
    }
  }
  RejectDuplicates(grid.config_names, "mode");
  return grid;
}

}  // namespace graphpim::exec
