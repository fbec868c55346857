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
  std::vector<OooCore::Status> status;
  static const cpu::UopStream kEmpty;
  for (int i = 0; i < cfg_.num_cores; ++i) {
    const auto* stream = i < static_cast<int>(trace.streams.size())
                             ? &trace.streams[static_cast<std::size_t>(i)]
                             : &kEmpty;
    cores_[static_cast<std::size_t>(i)]->Reset(stream);
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
  // finishes, releases the barrier rendezvous, or skips dead time.
  Tick quantum_end = cfg_.quantum;
  while (true) {
    for (int i = 0; i < cfg_.num_cores; ++i) {
      if (status[i] == OooCore::Status::kRunning) {
        status[i] = cores_[static_cast<std::size_t>(i)]->Advance(quantum_end);
      }
    }
    // Telemetry window cuts key off the round's quantum_end before it is
    // updated below, so the cut points depend only on simulated time.
    if (windows != nullptr && quantum_end >= windows->next_boundary()) {
      windows->AdvanceTo(quantum_end, &mem.stats());
    }
    bool all_done = true;
    bool any_running = false;
    for (int i = 0; i < cfg_.num_cores; ++i) {
      if (status[i] == OooCore::Status::kRunning) any_running = true;
      if (status[i] != OooCore::Status::kDone) all_done = false;
    }
    if (all_done) break;
    if (!any_running) {
      // Everyone alive is parked at the same barrier: release at the
      // latest arrival.
      Tick release = 0;
      for (int i = 0; i < cfg_.num_cores; ++i) {
        if (status[i] == OooCore::Status::kBarrier) {
          release = std::max(
              release, cores_[static_cast<std::size_t>(i)]->BarrierArrival());
        }
      }
      cut_phase("superstep", release);
      ++superstep;
      for (int i = 0; i < cfg_.num_cores; ++i) {
        if (status[i] == OooCore::Status::kBarrier) {
          cores_[static_cast<std::size_t>(i)]->ReleaseBarrier(release);
          status[i] = OooCore::Status::kRunning;
        }
      }
      quantum_end = std::max(quantum_end, release + cfg_.quantum);
    } else {
      // Skip dead time: jump to the earliest tick any running core can
      // issue again (long stalls otherwise cost one loop pass per quantum).
      Tick next = ~Tick{0};
      for (int i = 0; i < cfg_.num_cores; ++i) {
        if (status[i] == OooCore::Status::kRunning) {
          next = std::min(next,
                          cores_[static_cast<std::size_t>(i)]->NextReadyTick());
        }
      }
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
