// Serialization of sweep result tables to JSON and CSV.
//
// JSON rows embed the full per-run object from core/report's ToJson(), so
// anything downstream of graphpim_sim's --json keeps working on sweep
// output. The deterministic payload (per-row "result") is separated from
// timing metadata ("wall_ms", "timing"), which legitimately varies between
// runs of the same grid.
#ifndef GRAPHPIM_EXEC_RESULT_SINK_H_
#define GRAPHPIM_EXEC_RESULT_SINK_H_

#include <string>

#include "exec/sweep.h"

namespace graphpim::exec {

// Full table as one JSON object: {"jobs": N, "rows": [...], "timing": {...}}.
std::string ToJson(const SweepResultTable& table);

// Headline-metric CSV, one row per job, stable column order. The first
// columns key the row (workload, profile, config); speedup_vs_first is
// relative to config 0 of the same cell.
std::string ToCsv(const SweepResultTable& table);

// Same, excluding the wall_ms column and timing metadata — every byte of
// this serialization is covered by the determinism contract, so it can be
// compared across job counts.
std::string ToDeterministicCsv(const SweepResultTable& table);

// File forms of the three serializations; each throws SimError naming the
// path on I/O failure.
void WriteJson(const SweepResultTable& table, const std::string& path);
void WriteCsv(const SweepResultTable& table, const std::string& path);
void WriteDeterministicCsv(const SweepResultTable& table, const std::string& path);

}  // namespace graphpim::exec

#endif  // GRAPHPIM_EXEC_RESULT_SINK_H_
