// Shared --progress heartbeat for the drivers (graphpim_sim single runs
// and --sweep grids, graphpim_serve): one stderr line per retired job with
// an ETA extrapolated from the mean wall time of the jobs finished so far.
//
// FormatProgressLine is the pure core (unit-testable ETA math);
// StderrHeartbeat wraps it into a SweepRunner-compatible callback. The
// runner invokes on_progress serially under its progress lock, so the
// callback needs no synchronization of its own — but the returned functor
// is also safe to share across harvest threads because its only state is
// the fixed start time.
#ifndef GRAPHPIM_EXEC_PROGRESS_H_
#define GRAPHPIM_EXEC_PROGRESS_H_

#include <cstdio>
#include <functional>
#include <string>

#include "exec/sweep.h"

namespace graphpim::exec {

// One heartbeat line (newline-terminated):
//   "[  3/ 12] bfs      ldbc     GraphPIM-c4    123 ms | ETA 4s"
// with "  FAILED" appended for failed jobs. `elapsed_ms` is wall time
// since the run started; ETA = elapsed/completed * remaining.
std::string FormatProgressLine(const SweepProgress& p, double elapsed_ms);

// Returns an on_progress callback printing FormatProgressLine to `out`
// (nullptr selects stderr), timing from the moment of this call.
std::function<void(const SweepProgress&)> StderrHeartbeat(
    std::FILE* out = nullptr);

}  // namespace graphpim::exec

#endif  // GRAPHPIM_EXEC_PROGRESS_H_
