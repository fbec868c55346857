#include "core/runner.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/string_util.h"
#include "core/system.h"
#include "cpu/core.h"

namespace graphpim::core {

namespace {

using cpu::OooCore;

// A counter that holds an event count. Counts are exact integers below
// 2^53; the clamp only matters for a registry rebuilt from a damaged
// journal, where a negative or huge value must not overflow the cast.
std::uint64_t Count(const StatRegistry& s, const char* name) {
  const double v = s.Get(name);
  return v > 0.0 && v < 0x1p64 ? static_cast<std::uint64_t>(v) : 0;
}

}  // namespace

SimResults Summarize(const SimConfig& cfg, StatRegistry raw, Tick end_tick) {
  SimResults r;
  r.mode = ToString(cfg.mode);
  r.end_tick = end_tick;
  const StatRegistry& s = raw;
  const double cycle_ticks = 1000.0 / cfg.core.freq_ghz;
  r.cycles = static_cast<std::uint64_t>(static_cast<double>(end_tick) / cycle_ticks);
  r.insts = Count(s, "core.insts");
  r.seconds = TicksToNs(end_tick) * 1e-9;
  if (r.cycles > 0) {
    r.ipc = static_cast<double>(r.insts) /
            (static_cast<double>(r.cycles) * cfg.num_cores);
  }

  double ki = static_cast<double>(r.insts) / 1000.0;
  if (ki > 0) {
    r.l1_mpki = s.Get("cache.l1_misses") / ki;
    r.l2_mpki = s.Get("cache.l2_misses") / ki;
    r.l3_mpki = s.Get("cache.l3_misses") / ki;
  }
  double atomic_reqs = s.Get("cache.atomic_reqs");
  if (atomic_reqs > 0) {
    r.atomic_miss_rate = s.Get("cache.atomic_mem_misses") / atomic_reqs;
  }
  r.atomics = Count(s, "core.atomics");
  r.offloaded_atomics = Count(s, "core.offloaded_atomics");
  r.req_flits = s.Get("hmc.req_flits");
  r.resp_flits = s.Get("hmc.resp_flits");
  r.link_crc_errors = Count(s, "fault.link_crc_errors");
  r.link_retries = Count(s, "fault.link_retries");
  r.retry_flits = s.Get("fault.retry_flits");
  r.poisoned_ops = Count(s, "fault.poisoned_ops");
  r.vault_stalls = Count(s, "fault.vault_stalls");

  // Attribution fractions over aggregate core time.
  double total_core_ticks =
      static_cast<double>(end_tick) * static_cast<double>(cfg.num_cores);
  if (total_core_ticks > 0) {
    r.frac_atomic_incore = s.Get("core.atomic_incore_ticks") / total_core_ticks;
    r.frac_atomic_incache = s.Get("core.atomic_incache_ticks") / total_core_ticks;
    r.frac_atomic_dep = s.Get("core.atomic_dep_ticks") / total_core_ticks;
    r.frac_other = std::max(
        0.0, 1.0 - r.frac_atomic_incore - r.frac_atomic_incache - r.frac_atomic_dep);

    r.frac_retiring = static_cast<double>(r.insts) * cycle_ticks /
                      (cfg.core.issue_width * total_core_ticks);
    r.frac_frontend = s.Get("core.frontend_ticks") / total_core_ticks;
    r.frac_badspec = s.Get("core.badspec_ticks") / total_core_ticks;
    r.frac_backend = std::max(
        0.0, 1.0 - r.frac_retiring - r.frac_frontend - r.frac_badspec);
  }

  energy::EnergyParams ep = cfg.energy;
  // Static uncore power scales with the whole cube network: every cube
  // burns its vaults' and SerDes links' idle power whether or not traffic
  // reaches it.
  ep.num_vaults =
      static_cast<int>(cfg.hmc.num_vaults * cfg.hmc.num_cubes);
  ep.num_cubes = static_cast<int>(cfg.hmc.num_cubes);
  ep.fp_fus_enabled = cfg.hmc.enable_fp_atomics;
  r.energy = energy::ComputeUncoreEnergy(s, r.seconds, ep);

  r.raw = std::move(raw);
  return r;
}

SimResults RunSimulation(const workloads::Trace& trace, const SimConfig& cfg,
                         Addr pmr_base, Addr pmr_end, const RunOptions& opts) {
  cfg.Validate();
  GP_CHECK(static_cast<int>(trace.streams.size()) <= cfg.num_cores,
           "trace has more streams than cores");

  // The flight recorder exists only when sampling is on: with the default
  // trace_sample_rate == 0 every hook site downstream sees a null recorder
  // and compiles to a never-taken branch.
  std::unique_ptr<trace::SpanRecorder> spans;
  if (cfg.trace_sample_rate > 0.0) {
    spans = std::make_unique<trace::SpanRecorder>(cfg.trace_sample_rate,
                                                  cfg.trace_max_spans);
  }

  // The memory system's registry is the run's: every component and every
  // core counts into it, and Summarize derives the results from it.
  MemorySystem mem(cfg, pmr_base, pmr_end, spans.get());
  std::vector<std::unique_ptr<OooCore>> cores;
  std::vector<OooCore::Status> status;
  static const cpu::UopStream kEmpty;
  for (int i = 0; i < cfg.num_cores; ++i) {
    cores.push_back(std::make_unique<OooCore>(i, cfg.core, &mem, &mem.stats()));
    const auto* stream = i < static_cast<int>(trace.streams.size())
                             ? &trace.streams[static_cast<std::size_t>(i)]
                             : &kEmpty;
    cores.back()->Reset(stream);
    status.push_back(OooCore::Status::kRunning);
  }

  // Phases: each BSP superstep ends at a barrier rendezvous; cutting there
  // captures the counters that superstep accrued. Interval logs (DESIGN.md
  // §10, §17) read the live run registry at each cut.
  if (opts.phases != nullptr) *opts.phases = trace::IntervalLog();
  Tick phase_start = 0;
  std::uint64_t superstep = 0;
  auto cut_phase = [&](const char* what, Tick end) {
    if (opts.phases == nullptr) return;
    opts.phases->Cut(
        StrFormat("%s.%llu", what, static_cast<unsigned long long>(superstep)),
        phase_start, end, mem.stats());
    phase_start = end;
  };

  // Telemetry windows (DESIGN.md §17): like the flight recorder, a window
  // log exists only when the knob is on AND a log is attached, so the
  // default path never builds one. Gauges read the live machine through
  // the memory system at each cut.
  trace::IntervalLog* windows = nullptr;
  if (opts.timeline != nullptr) *opts.timeline = trace::IntervalLog();
  if (opts.timeline != nullptr && cfg.telemetry_window_ns > 0.0) {
    windows = opts.timeline;
    *windows = trace::IntervalLog(
        NsToTicks(cfg.telemetry_window_ns), cfg.telemetry_max_windows,
        [&mem](Tick start, Tick end, trace::Items* out) {
          mem.SampleTelemetryGauges(start, end, out);
        });
  }

  // Loosely-synchronized quantum loop with barrier rendezvous. Each round
  // advances every running core to quantum_end in index order, then either
  // finishes, releases the barrier rendezvous, or skips dead time.
  Tick quantum_end = cfg.quantum;
  while (true) {
    for (int i = 0; i < cfg.num_cores; ++i) {
      if (status[i] == OooCore::Status::kRunning) {
        status[i] = cores[static_cast<std::size_t>(i)]->Advance(quantum_end);
      }
    }
    // Telemetry window cuts key off the round's quantum_end before it is
    // updated below, so the cut points depend only on simulated time.
    if (windows != nullptr && quantum_end >= windows->next_boundary()) {
      windows->AdvanceTo(quantum_end, &mem.stats());
    }
    bool all_done = true;
    bool any_running = false;
    for (int i = 0; i < cfg.num_cores; ++i) {
      if (status[i] == OooCore::Status::kRunning) any_running = true;
      if (status[i] != OooCore::Status::kDone) all_done = false;
    }
    if (all_done) break;
    if (!any_running) {
      // Everyone alive is parked at the same barrier: release at the
      // latest arrival.
      Tick release = 0;
      for (int i = 0; i < cfg.num_cores; ++i) {
        if (status[i] == OooCore::Status::kBarrier) {
          release = std::max(release, cores[static_cast<std::size_t>(i)]->BarrierArrival());
        }
      }
      cut_phase("superstep", release);
      ++superstep;
      for (int i = 0; i < cfg.num_cores; ++i) {
        if (status[i] == OooCore::Status::kBarrier) {
          cores[static_cast<std::size_t>(i)]->ReleaseBarrier(release);
          status[i] = OooCore::Status::kRunning;
        }
      }
      quantum_end = std::max(quantum_end, release + cfg.quantum);
    } else {
      // Skip dead time: jump to the earliest tick any running core can
      // issue again (long stalls otherwise cost one loop pass per quantum).
      Tick next = ~Tick{0};
      for (int i = 0; i < cfg.num_cores; ++i) {
        if (status[i] == OooCore::Status::kRunning) {
          next = std::min(next, cores[static_cast<std::size_t>(i)]->NextReadyTick());
        }
      }
      quantum_end = std::max(quantum_end + cfg.quantum, next + cfg.quantum);
    }
  }

  Tick end_tick = 0;
  for (const auto& c : cores) end_tick = std::max(end_tick, c->Now());
  cut_phase("drain", end_tick);
  if (windows != nullptr) windows->Finish(end_tick, &mem.stats());
  // Seal the persist domain and fold the flight recorder's per-stage
  // latency histograms before Summarize, so pmem.unpersisted_at_end and
  // span.* are in the registry the report sees.
  if (mem.persist_domain() != nullptr) mem.persist_domain()->Finish(end_tick);
  if (spans != nullptr) trace::FoldSpanStats(spans->log(), &mem.stats());

  // The memory system is done counting; its registry moves into the
  // results.
  SimResults r = Summarize(cfg, std::move(mem.stats()), end_tick);
  r.trace_peak_bytes = trace.BytesUsed();
  if (opts.spans != nullptr && spans != nullptr) {
    *opts.spans = spans->TakeLog();
  }
  if (opts.persist != nullptr && mem.persist_domain() != nullptr) {
    *opts.persist = mem.persist_domain()->TakeLog();
  }
  return r;
}

double Speedup(const SimResults& base, const SimResults& other) {
  GP_CHECK(other.cycles > 0);
  return static_cast<double>(base.cycles) / static_cast<double>(other.cycles);
}

// The generated edge list is a temporary of the graph_ initializer, so it
// is freed before the trace is generated instead of staying live under it;
// at a million vertices it is the largest allocation of the run.
Experiment::Experiment(const std::string& profile, VertexId num_vertices,
                       const std::string& workload_name, const Options& opts)
    : space_(std::make_unique<graph::AddressSpace>()),
      graph_(std::make_unique<graph::CsrGraph>(
          graph::GenerateProfile(profile, num_vertices, opts.seed), *space_,
          opts.dedup_edges)) {
  GenerateTrace(workload_name, opts);
}

Experiment::Experiment(const graph::EdgeList& el, const std::string& workload_name,
                       const Options& opts)
    : space_(std::make_unique<graph::AddressSpace>()),
      graph_(std::make_unique<graph::CsrGraph>(el, *space_, opts.dedup_edges)) {
  GenerateTrace(workload_name, opts);
}

void Experiment::GenerateTrace(const std::string& workload_name, const Options& opts) {
  workload_ = workloads::CreateWorkload(workload_name, opts.params);
  workload_->SetPersistMode(opts.persist);
  workloads::TraceBuilder tb(opts.num_threads, space_.get(), opts.mispredict_rate,
                             opts.seed);
  if (opts.op_cap != 0) tb.SetOpCap(opts.op_cap);
  workload_->Generate(*graph_, *space_, tb);
  trace_ = tb.Take();
}

SimResults Experiment::Run(const SimConfig& cfg, const RunOptions& opts) const {
  return RunSimulation(trace_, cfg, space_->pmr_base(), space_->pmr_end(), opts);
}

}  // namespace graphpim::core
