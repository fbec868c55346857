#include "core/machine.h"

#include <algorithm>
#include <utility>

#include "common/log.h"
#include "common/string_util.h"
#include "core/system.h"
#include "cpu/core.h"

namespace graphpim::core {

using cpu::OooCore;

Machine::Machine(const SimConfig& cfg, Addr pmr_base, Addr pmr_end)
    : cfg_(cfg) {
  cfg_.Validate();
  if (cfg_.trace_sample_rate > 0.0) {
    spans_ = std::make_unique<trace::SpanRecorder>(cfg_.trace_sample_rate,
                                                   cfg_.trace_max_spans);
  }
  mem_ = std::make_unique<MemorySystem>(cfg_, pmr_base, pmr_end, spans_.get());
  for (int i = 0; i < cfg_.num_cores; ++i) {
    cores_.push_back(
        std::make_unique<OooCore>(i, cfg_.core, mem_.get(), &mem_->stats()));
  }
}

Machine::~Machine() = default;

const StatRegistry& Machine::stats() const { return mem_->stats(); }

StatRegistry Machine::TakeStats() && { return std::move(mem_->stats()); }

Tick Machine::Replay(const workloads::Trace& trace, const RunOptions& opts) {
  GP_CHECK(static_cast<int>(trace.streams.size()) <= cfg_.num_cores,
           "trace has more streams than cores");
  // A reset of a fresh machine is cheap (nothing filled, nothing
  // recorded), so every replay starts with one.
  if (spans_ != nullptr) spans_->Reset();
  mem_->Reset();

  MemorySystem& mem = *mem_;
  // The cores not yet done, in index order, with their last status.
  struct LiveCore {
    OooCore* core;
    OooCore::Status status;
  };
  std::vector<LiveCore> live;
  live.reserve(cores_.size());
  static const cpu::UopStream kEmpty;
  for (int i = 0; i < cfg_.num_cores; ++i) {
    const auto* stream = i < static_cast<int>(trace.streams.size())
                             ? &trace.streams[static_cast<std::size_t>(i)]
                             : &kEmpty;
    OooCore* core = cores_[static_cast<std::size_t>(i)].get();
    core->Reset(stream);
    live.push_back({core, OooCore::Status::kRunning});
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
  if (opts.timeline != nullptr && cfg_.telemetry_window_ns > 0.0) {
    windows = opts.timeline;
    *windows = trace::IntervalLog(
        NsToTicks(cfg_.telemetry_window_ns), cfg_.telemetry_max_windows,
        [&mem](Tick start, Tick end, trace::Items* out) {
          mem.SampleTelemetryGauges(start, end, out);
        });
  }

  // Loosely-synchronized quantum loop with barrier rendezvous. Each round
  // advances every running core to quantum_end in index order, then either
  // finishes, releases the barrier rendezvous, or skips dead time. A round
  // visits only the live cores, once: a core's NextReadyTick reads only
  // its own state, so it is taken right after the core's Advance, and a
  // done core leaves the list.
  Tick quantum_end = cfg_.quantum;
  while (true) {
    bool any_running = false;
    Tick next = ~Tick{0};
    std::size_t kept = 0;
    for (std::size_t i = 0; i < live.size(); ++i) {
      LiveCore c = live[i];
      if (c.status == OooCore::Status::kRunning) {
        c.status = c.core->Advance(quantum_end);
      }
      if (c.status == OooCore::Status::kDone) continue;
      if (c.status == OooCore::Status::kRunning) {
        any_running = true;
        next = std::min(next, c.core->NextReadyTick());
      }
      live[kept++] = c;
    }
    live.resize(kept);
    // Telemetry window cuts key off the round's quantum_end before it is
    // updated below, so the cut points depend only on simulated time.
    if (windows != nullptr && quantum_end >= windows->next_boundary()) {
      windows->AdvanceTo(quantum_end, &mem.stats());
    }
    if (live.empty()) break;
    if (!any_running) {
      // Everyone alive is parked at the same barrier: release at the
      // latest arrival.
      Tick release = 0;
      for (const LiveCore& c : live) {
        release = std::max(release, c.core->BarrierArrival());
      }
      cut_phase("superstep", release);
      ++superstep;
      for (LiveCore& c : live) {
        c.core->ReleaseBarrier(release);
        c.status = OooCore::Status::kRunning;
      }
      quantum_end = std::max(quantum_end, release + cfg_.quantum);
    } else {
      // Skip dead time: jump to the earliest tick any running core can
      // issue again (long stalls otherwise cost one loop pass per quantum).
      quantum_end = std::max(quantum_end + cfg_.quantum, next + cfg_.quantum);
    }
  }

  Tick end_tick = 0;
  for (const auto& c : cores_) end_tick = std::max(end_tick, c->Now());
  cut_phase("drain", end_tick);
  if (windows != nullptr) windows->Finish(end_tick, &mem.stats());
  // Seal the persist domain and fold the flight recorder's per-stage
  // latency histograms, so pmem.unpersisted_at_end and span.* are in the
  // registry the report sees.
  if (mem.persist_domain() != nullptr) {
    mem.persist_domain()->Finish(end_tick);
    if (opts.persist != nullptr) {
      *opts.persist = mem.persist_domain()->TakeLog();
    }
  }
  if (spans_ != nullptr) {
    trace::FoldSpanStats(spans_->log(), &mem.stats());
    if (opts.spans != nullptr) *opts.spans = spans_->TakeLog();
  }
  return end_tick;
}

}  // namespace graphpim::core
