// graphpim_compare — run-comparison regression sentinel (DESIGN.md §17).
//
// Diffs two metrics/timeline artifacts (BENCH_*.json points, --json run
// summaries, Chrome traces, timeline/phase JSONL) key by key against
// per-counter tolerances and prints a human-readable drift table. CI uses
// it as the perf gate on the committed bench trajectory.
//
//   graphpim_compare BASE HEAD
//       [--tolerance=0.02]          # global relative tolerance
//       [--abs-tolerance=0]         # global absolute tolerance
//       [--tol=key=0.1,key2=0.5]    # per-key-prefix overrides (longest wins)
//       [--keys=a,b.c]              # compare only these key prefixes
//       [--fail-on-missing]         # keys in only one run fail the gate
//       [--max-rows=24]             # detail rows shown (failures always show)
//
// Exit status: 0 = within tolerance, 2 = drift over tolerance (or missing
// keys with --fail-on-missing), 1 = usage or I/O error. The argv parsing
// is by hand: this tool compares artifacts from ANY build, so it must not
// depend on the simulator's config machinery evolving in lockstep.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/compare.h"

using graphpim::telemetry::CompareOptions;
using graphpim::telemetry::CompareRuns;
using graphpim::telemetry::DriftReport;
using graphpim::telemetry::FlatRun;
using graphpim::telemetry::FlattenRunJson;
using graphpim::telemetry::FormatDriftTable;

namespace {

constexpr const char* kUsage =
    "usage: graphpim_compare BASE.json HEAD.json [--tolerance=REL]\n"
    "         [--abs-tolerance=ABS] [--tol=key=REL,...] [--keys=a,b]\n"
    "         [--fail-on-missing] [--max-rows=N]\n";

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  *out = ss.str();
  return true;
}

// strtod with full-token validation; false on trailing garbage and on
// inf/nan, which would turn a tolerance check into a pass or a fail for
// every key.
bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size() && std::isfinite(*out);
}

// A non-negative decimal integer; false on anything else or on overflow.
bool ParseCount(const std::string& s, std::size_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  *out = std::strtoull(s.c_str(), nullptr, 10);
  return errno != ERANGE;
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    if (comma > pos) out.push_back(s.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  CompareOptions opts;
  std::size_t max_rows = 24;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* flag) -> std::string {
      return arg.substr(std::strlen(flag));
    };
    if (arg.rfind("--tolerance=", 0) == 0) {
      if (!ParseDouble(value_of("--tolerance="), &opts.rel_tol) ||
          opts.rel_tol < 0.0) {
        std::fprintf(stderr, "graphpim_compare: bad --tolerance value\n");
        return 1;
      }
    } else if (arg.rfind("--abs-tolerance=", 0) == 0) {
      if (!ParseDouble(value_of("--abs-tolerance="), &opts.abs_tol) ||
          opts.abs_tol < 0.0) {
        std::fprintf(stderr, "graphpim_compare: bad --abs-tolerance value\n");
        return 1;
      }
    } else if (arg.rfind("--tol=", 0) == 0) {
      for (const std::string& kv : SplitCommas(value_of("--tol="))) {
        const std::size_t eq = kv.find('=');
        double tol = 0.0;
        if (eq == std::string::npos || eq == 0 ||
            !ParseDouble(kv.substr(eq + 1), &tol) || tol < 0.0) {
          std::fprintf(stderr,
                       "graphpim_compare: bad --tol entry '%s' "
                       "(want key=REL)\n",
                       kv.c_str());
          return 1;
        }
        opts.per_key.emplace_back(kv.substr(0, eq), tol);
      }
    } else if (arg.rfind("--keys=", 0) == 0) {
      for (const std::string& k : SplitCommas(value_of("--keys="))) {
        opts.keys.push_back(k);
      }
    } else if (arg == "--fail-on-missing") {
      opts.fail_on_missing = true;
    } else if (arg.rfind("--max-rows=", 0) == 0) {
      if (!ParseCount(value_of("--max-rows="), &max_rows)) {
        std::fprintf(stderr, "graphpim_compare: bad --max-rows value\n");
        return 1;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "graphpim_compare: unknown flag '%s'\n%s",
                   arg.c_str(), kUsage);
      return 1;
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2) {
    std::fprintf(stderr, "graphpim_compare: need exactly two files\n%s",
                 kUsage);
    return 1;
  }

  std::string base_text, head_text;
  if (!ReadFile(files[0], &base_text)) {
    std::fprintf(stderr, "graphpim_compare: cannot read '%s'\n",
                 files[0].c_str());
    return 1;
  }
  if (!ReadFile(files[1], &head_text)) {
    std::fprintf(stderr, "graphpim_compare: cannot read '%s'\n",
                 files[1].c_str());
    return 1;
  }

  try {
    const FlatRun base = FlattenRunJson(base_text);
    const FlatRun head = FlattenRunJson(head_text);
    const DriftReport report = CompareRuns(base, head, opts);
    std::printf("base: %s (%zu keys)\nhead: %s (%zu keys)\n\n",
                files[0].c_str(), base.values.size(), files[1].c_str(),
                head.values.size());
    std::fputs(FormatDriftTable(report, max_rows).c_str(), stdout);
    if (!report.pass()) {
      std::printf("\nREGRESSION: %zu key(s) drifted past tolerance\n",
                  report.failed);
      return 2;
    }
    std::printf("\nOK: no drift past tolerance\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "graphpim_compare: error: %s\n", e.what());
    return 1;
  }
}
