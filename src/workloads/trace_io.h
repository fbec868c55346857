// Binary trace serialization: snapshot a generated trace to disk so large
// inputs are traced once and replayed across many machine-configuration
// sweeps (the usual trace-driven-simulator workflow).
#ifndef GRAPHPIM_WORKLOADS_TRACE_IO_H_
#define GRAPHPIM_WORKLOADS_TRACE_IO_H_

#include <string>

#include "workloads/trace.h"

namespace graphpim::workloads {

// Writes `trace` to `path`. Throws SimError naming the path on I/O failure.
void SaveTrace(const Trace& trace, const std::string& path);

// Loads a trace written by SaveTrace. The file is untrusted input: every
// count is checked against the bytes left in the file before anything is
// allocated, every record's op type, data component and atomic op against
// its enum, and its flags and address against what a trace tile holds
// (the five defined flag bits, addresses below cpu::kTraceAddrLimit). A
// missing, truncated or malformed file throws SimError naming the file
// and the byte offset of the bad record or field.
void LoadTrace(const std::string& path, Trace* out);

}  // namespace graphpim::workloads

#endif  // GRAPHPIM_WORKLOADS_TRACE_IO_H_
