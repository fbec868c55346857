// Crash-safe sweep journal (DESIGN.md §9).
//
// An append-only JSONL file: one header line fingerprinting the grid, then
// one line per finished OK row. Rows are appended in grid order as the
// runner harvests them and flushed immediately, so a SIGKILL loses at most
// the line being written; a truncated trailing line is silently dropped on
// load. A row stores its grid coordinates, names, seed and wall time, and
// as its results only the run's end tick and counter registry (doubles
// with %.17g, an exact round trip). LoadJournal rebuilds the results with
// core::Summarize under the row's grid config, so a row restored by
// --resume is bit-identical to the row that was journaled — which, by the
// determinism contract, is bit-identical to what re-running the job would
// have produced.
//
// LoadJournal reads every line through the strict reader in common/json.h.
// A line that does not parse, lacks a field, has one of the wrong kind or
// range, or does not match its grid cell is dropped, so a corrupt journal
// degrades to a shorter one instead of a crash.
#ifndef GRAPHPIM_EXEC_JOURNAL_H_
#define GRAPHPIM_EXEC_JOURNAL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "common/trace.h"
#include "exec/sweep.h"

namespace graphpim::exec {

// Stable identity of a grid: workloads, profiles, config names + machine
// descriptors (including fault knobs), sizing, and base seed. A journal
// written under a different fingerprint must not be resumed — the
// coordinates would mean different experiments.
std::string GridFingerprint(const SweepGrid& grid);

// Every write is checked: a failed fwrite, fflush or fclose throws
// SimError naming the journal, so a full disk cannot lose rows silently.
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter() { if (f_ != nullptr) std::fclose(f_); }

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  // Opens `path` for append, writing the header line first when the file
  // is new or empty. Throws SimError when the path is unwritable.
  void Open(const std::string& path, const std::string& fingerprint);

  bool is_open() const { return f_ != nullptr; }

  // Appends one finished OK row and flushes it.
  void Append(const SweepRow& row);

  // Appends a `{"<kind>_for":{coords},"<list>":[...]}` sidecar line whose
  // list holds the log's trace::ToJsonl objects: "phases_for"/"phases" for
  // the per-superstep log, "timeline_for"/"windows" for the telemetry
  // windows. LoadJournal skips sidecar lines (they are per-row
  // annotations, not rows), so a resume neither needs nor loses them.
  // No-op when the log is empty.
  void AppendIntervals(const std::string& kind, const std::string& list,
                       const SweepRow& row, const trace::IntervalLog& log);

  // Appends a `{"spans_for":{coords},"spans":[...]}` sidecar line with the
  // row's sampled transaction spans (the flight-recorder output under
  // trace.sample_rate > 0). Skipped by LoadJournal like the interval
  // sidecars. No-op when the log is empty.
  void AppendSpans(const SweepRow& row, const trace::SpanLog& log);

  void Close();

 private:
  // Appends `s` and flushes it.
  void Write(const std::string& s);

  std::FILE* f_ = nullptr;
  std::string path_;
};

struct JournalData {
  std::string fingerprint;
  std::vector<SweepRow> rows;     // all restored rows are status=kOk
  std::size_t dropped_lines = 0;  // malformed/truncated/foreign lines skipped
};

// Loads a journal written for `grid`. A row is kept only when its
// coordinates lie in the grid and its workload, profile and config names
// and its seed are the ones the grid gives them; its results are rebuilt
// by core::Summarize under grid.configs[c]. False when the file does not
// exist (fresh start); a file with an unreadable header loads with an
// empty fingerprint, which the runner then rejects as a mismatch.
bool LoadJournal(const std::string& path, const SweepGrid& grid,
                 JournalData* out);

}  // namespace graphpim::exec

#endif  // GRAPHPIM_EXEC_JOURNAL_H_
