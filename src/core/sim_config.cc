#include "core/sim_config.h"

#include <cmath>
#include <cstdlib>
#include <utility>

#include "common/config.h"
#include "common/log.h"
#include "common/string_util.h"

namespace graphpim::core {

namespace {

// The machine-knob field table: the ONE place that binds a config key to a
// SimConfig field, its valid range, and its Describe() rendering.
// FromConfig applies rows, Validate checks them, Describe prints them —
// adding a knob here wires up all three at once.
struct KnobRow {
  const char* key;  // canonical spelling (grid specs, underscores)
  const char* cli;  // dashed CLI alias; nullptr when identical
  double min;
  double max;       // inclusive; checked by Validate
  bool integral;    // value must be a whole number
  double (*get)(const SimConfig&);
  void (*set)(SimConfig&, double);
};

constexpr KnobRow kKnobs[] = {
    {"threads", nullptr, 1, 4096, true,
     [](const SimConfig& c) { return static_cast<double>(c.num_cores); },
     [](SimConfig& c, double v) { c.num_cores = static_cast<int>(v); }},
    {"fp", nullptr, 0, 1, true,
     [](const SimConfig& c) { return c.hmc.enable_fp_atomics ? 1.0 : 0.0; },
     [](SimConfig& c, double v) { c.hmc.enable_fp_atomics = v != 0.0; }},
    {"fus", nullptr, 1, 1024, true,
     [](const SimConfig& c) { return static_cast<double>(c.hmc.fus_per_vault); },
     [](SimConfig& c, double v) {
       c.hmc.fus_per_vault = static_cast<std::uint32_t>(v);
     }},
    {"linkbw", nullptr, 0.001, 64, false,
     [](const SimConfig& c) { return c.hmc.link_bw_scale; },
     [](SimConfig& c, double v) { c.hmc.link_bw_scale = v; }},
    {"hybrid", nullptr, 0, 1, false,
     [](const SimConfig& c) { return c.pmr_hmc_fraction; },
     [](SimConfig& c, double v) { c.pmr_hmc_fraction = v; }},
    {"uc_depth", "uc-depth", 1, 4096, true,
     [](const SimConfig& c) { return static_cast<double>(c.uc_queue_depth); },
     [](SimConfig& c, double v) { c.uc_queue_depth = static_cast<int>(v); }},
    {"num_cubes", "num-cubes", 1, 64, true,
     [](const SimConfig& c) { return static_cast<double>(c.hmc.num_cubes); },
     [](SimConfig& c, double v) {
       c.hmc.num_cubes = static_cast<std::uint32_t>(v);
     }},
    {"cube_page_bytes", "cube-page-bytes", 64, 1 << 30, true,
     [](const SimConfig& c) {
       return static_cast<double>(c.hmc.cube_page_bytes);
     },
     [](SimConfig& c, double v) {
       c.hmc.cube_page_bytes = static_cast<std::uint64_t>(v);
     }},
    {"link_ber", "link-ber", 0, 1, false,
     [](const SimConfig& c) { return c.hmc.fault.link_ber; },
     [](SimConfig& c, double v) { c.hmc.fault.link_ber = v; }},
    {"vault_stall_ppm", "vault-stall-ppm", 0, 1'000'000, true,
     [](const SimConfig& c) {
       return static_cast<double>(c.hmc.fault.vault_stall_ppm);
     },
     [](SimConfig& c, double v) {
       c.hmc.fault.vault_stall_ppm = static_cast<std::uint32_t>(v);
     }},
    {"poison_ppm", "poison-ppm", 0, 1'000'000, true,
     [](const SimConfig& c) {
       return static_cast<double>(c.hmc.fault.poison_ppm);
     },
     [](SimConfig& c, double v) {
       c.hmc.fault.poison_ppm = static_cast<std::uint32_t>(v);
     }},
    {"max_retries", "max-retries", 0, 64, true,
     [](const SimConfig& c) {
       return static_cast<double>(c.hmc.fault.max_retries);
     },
     [](SimConfig& c, double v) {
       c.hmc.fault.max_retries = static_cast<std::uint32_t>(v);
     }},
    {"retry_ns", "retry-ns", 0, 1'000'000, false,
     [](const SimConfig& c) { return TicksToNs(c.hmc.fault.retry_latency); },
     [](SimConfig& c, double v) { c.hmc.fault.retry_latency = NsToTicks(v); }},
    {"trace.sample_rate", "trace-sample-rate", 0, 1, false,
     [](const SimConfig& c) { return c.trace_sample_rate; },
     [](SimConfig& c, double v) { c.trace_sample_rate = v; }},
    {"trace.max_spans", "trace-max-spans", 0, 1e15, true,
     [](const SimConfig& c) {
       return static_cast<double>(c.trace_max_spans);
     },
     [](SimConfig& c, double v) {
       c.trace_max_spans = static_cast<std::uint64_t>(v);
     }},
    // Telemetry timelines (DESIGN.md §17). 0 = off (strict byte-identity,
    // like trace.sample_rate); positive windows additionally must be
    // >= 1 ns (cross-checked in Validate, below one-field range reach).
    {"telemetry.window_ns", "telemetry-window-ns", 0, 1e9, false,
     [](const SimConfig& c) { return c.telemetry_window_ns; },
     [](SimConfig& c, double v) { c.telemetry_window_ns = v; }},
    {"telemetry.max_windows", "telemetry-max-windows", 0, 1e15, true,
     [](const SimConfig& c) {
       return static_cast<double>(c.telemetry_max_windows);
     },
     [](SimConfig& c, double v) {
       c.telemetry_max_windows = static_cast<std::uint64_t>(v);
     }},
    {"pmem.enable", "pmem-enable", 0, 1, true,
     [](const SimConfig& c) { return c.pmem.enable ? 1.0 : 0.0; },
     [](SimConfig& c, double v) { c.pmem.enable = v != 0.0; }},
    {"pmem.flush_ns", "pmem-flush-ns", 0, 1'000'000, false,
     [](const SimConfig& c) { return c.pmem.flush_ns; },
     [](SimConfig& c, double v) { c.pmem.flush_ns = v; }},
    {"pmem.fence_ns", "pmem-fence-ns", 0, 1'000'000, false,
     [](const SimConfig& c) { return c.pmem.fence_ns; },
     [](SimConfig& c, double v) { c.pmem.fence_ns = v; }},
    // -1 disables the single-shot crash; any non-negative tick requires
    // pmem.enable=1 (cross-checked in Validate).
    {"pmem.crash_tick", "pmem-crash-tick", -1, 1e15, false,
     [](const SimConfig& c) { return c.pmem.crash_tick_ns; },
     [](SimConfig& c, double v) { c.pmem.crash_tick_ns = v; }},
    // ANN / HNSW workload knobs (DESIGN.md §16). Read only by the hnsw
    // workload and the serve engine's knn query kind; the defaults are a
    // strict passthrough for everything else.
    {"ann.dim", "ann-dim", 2, 1024, true,
     [](const SimConfig& c) { return static_cast<double>(c.ann.dim); },
     [](SimConfig& c, double v) { c.ann.dim = static_cast<int>(v); }},
    {"ann.m", "ann-m", 2, 64, true,
     [](const SimConfig& c) { return static_cast<double>(c.ann.m); },
     [](SimConfig& c, double v) { c.ann.m = static_cast<int>(v); }},
    {"ann.ef_search", "ann-ef-search", 1, 4096, true,
     [](const SimConfig& c) { return static_cast<double>(c.ann.ef_search); },
     [](SimConfig& c, double v) { c.ann.ef_search = static_cast<int>(v); }},
    {"ann.k", "ann-k", 1, 1024, true,
     [](const SimConfig& c) { return static_cast<double>(c.ann.k); },
     [](SimConfig& c, double v) { c.ann.k = static_cast<int>(v); }},
    {"ann.queries", "ann-queries", 1, 1'000'000, true,
     [](const SimConfig& c) { return static_cast<double>(c.ann.queries); },
     [](SimConfig& c, double v) { c.ann.queries = static_cast<int>(v); }},
};

// True and yields the value when `cfg` carries the row's key under either
// spelling. Both spellings with different values is a SimError: neither
// may silently win.
bool LookupKnob(const Config& cfg, const KnobRow& row, double* out) {
  const char* key = nullptr;
  if (cfg.Has(row.key)) {
    key = row.key;
    if (row.cli != nullptr && cfg.Has(row.cli) &&
        cfg.GetString(row.cli, "") != cfg.GetString(row.key, "")) {
      GP_THROW("config key '", row.key, "' given twice with different ",
               "values: '", cfg.GetString(row.key, ""), "', and '",
               cfg.GetString(row.cli, ""), "' as '", row.cli, "'");
    }
  } else if (row.cli != nullptr && cfg.Has(row.cli)) {
    key = row.cli;
  }
  if (key == nullptr) return false;
  // Parse by hand: a malformed value must be a recoverable SimError naming
  // the key (like the range checks), not Config::GetDouble's GP_FATAL.
  const std::string raw = cfg.GetString(key, "");
  char* end = nullptr;
  const double v = std::strtod(raw.c_str(), &end);
  if (raw.empty() || end != raw.c_str() + raw.size()) {
    GP_THROW("config key '", key, "': '", raw, "' is not a number");
  }
  *out = v;
  return true;
}

bool IsPowerOfTwo(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

// Range/integrality gate for one knob value. Called on the RAW parsed value
// in FromConfig (before row.set truncates it into an integer field — a
// fractional "threads=2.5" must fail, not silently floor) and again on the
// stored field value in Validate() for programmatically-built configs.
void CheckKnobValue(const KnobRow& row, double v) {
  if (!(v >= row.min && v <= row.max)) {  // NaN fails too
    GP_THROW("config key '", row.key, "' out of range: ", v, " not in [",
             row.min, ", ", row.max, "]");
  }
  if (row.integral && v != std::floor(v)) {
    GP_THROW("config key '", row.key, "' must be an integer, got ", v);
  }
}

}  // namespace

const char* ToString(Mode m) {
  switch (m) {
    case Mode::kBaseline:
      return "Baseline";
    case Mode::kUPei:
      return "U-PEI";
    case Mode::kGraphPim:
      return "GraphPIM";
    case Mode::kUncacheNoPim:
      return "UC-NoPIM";
  }
  return "?";
}

SimConfig SimConfig::Paper(Mode mode) {
  SimConfig cfg;
  cfg.mode = mode;
  return cfg;  // defaults are Table IV
}

SimConfig SimConfig::Scaled(Mode mode) {
  SimConfig cfg;
  cfg.mode = mode;
  cfg.cache.l1_size = 16 * kKiB;
  cfg.cache.l2_size = 32 * kKiB;
  cfg.cache.l3_size = 512 * kKiB;
  return cfg;
}

SimConfig SimConfig::FromConfig(const graphpim::Config& cfg, Mode mode) {
  SimConfig out = cfg.GetBool("full", false) ? Paper(mode) : Scaled(mode);
  for (const KnobRow& row : kKnobs) {
    double v = 0.0;
    if (LookupKnob(cfg, row, &v)) {
      CheckKnobValue(row, v);
      row.set(out, v);
    }
  }
  if (cfg.Has("topology")) {
    out.hmc.cube_topology =
        hmc::ParseCubeTopology(cfg.GetString("topology", "chain"));
  }
  out.Validate();
  return out;
}

std::vector<std::string> SimConfig::ConfigKeys() {
  std::vector<std::string> keys = {"full", "topology"};
  for (const KnobRow& row : kKnobs) {
    keys.push_back(row.key);
    if (row.cli != nullptr) keys.push_back(row.cli);
  }
  return keys;
}

void SimConfig::Validate() const {
  for (const KnobRow& row : kKnobs) {
    CheckKnobValue(row, row.get(*this));
  }
  // Structural invariants not expressible as one-field ranges. The memory
  // geometry is indexed by shift and mask, so each count is a power of two.
  const std::pair<const char*, std::uint64_t> geometry[] = {
      {"hmc.num_vaults", hmc.num_vaults},
      {"hmc.banks_per_vault", hmc.banks_per_vault},
      {"hmc.row_bytes", hmc.row_bytes},
      {"cache.l3_banks", cache.l3_banks}};
  for (const auto& [name, value] : geometry) {
    if (!IsPowerOfTwo(value)) {
      GP_THROW("config: ", name, " must be a power of two, got ", value);
    }
  }
  if (hmc.num_links == 0) GP_THROW("config: HMC needs at least one link");
  if (quantum <= 0) GP_THROW("config: quantum must be positive");
  if (bus_lock_penalty < 0) {
    GP_THROW("config: bus_lock_penalty must be >= 0");
  }
  if (!IsPowerOfTwo(hmc.cube_page_bytes)) {
    GP_THROW("config key 'cube_page_bytes' must be a power of two, got ",
             hmc.cube_page_bytes);
  }
  if (hmc.capacity_bytes % hmc.cube_page_bytes != 0) {
    GP_THROW("config key 'cube_page_bytes' (", hmc.cube_page_bytes,
             ") does not divide the cube capacity (", hmc.capacity_bytes,
             "): the page interleave would straddle the capacity boundary");
  }
  if (hmc.capacity_bytes / hmc.cube_page_bytes <
      static_cast<std::uint64_t>(hmc.num_cubes)) {
    GP_THROW("config key 'num_cubes' (", hmc.num_cubes,
             ") exceeds the per-cube page count; shrink cube_page_bytes");
  }
  if (telemetry_window_ns > 0.0 && telemetry_window_ns < 1.0) {
    GP_THROW("config key 'telemetry.window_ns' (", telemetry_window_ns,
             ") must be 0 (off) or >= 1 ns: sub-nanosecond windows are "
             "below the model's useful time granularity");
  }
  if (!pmem.enable && pmem.crash_tick_ns >= 0) {
    GP_THROW("config key 'pmem.crash_tick' (", pmem.crash_tick_ns,
             ") requires 'pmem.enable'=1: a crash point is meaningless "
             "without the persistent PMR");
  }
  if (ann.k > ann.ef_search) {
    GP_THROW("config key 'ann.k' (", ann.k, ") must be <= 'ann.ef_search' (",
             ann.ef_search, "): the beam must be at least as wide as the "
             "result list");
  }
}

std::string SimConfig::Describe() const {
  // Fixed geometry first (fields with no CLI knob), then every tunable in
  // field-table order — the table is the Describe source, so FromConfig
  // and Describe cannot drift apart.
  std::string out = StrFormat(
      "%s: %d OoO cores @ %.1fGHz, %d-issue, ROB %d | L1 %lluKB L2 %lluKB "
      "L3 %lluKB | HMC %ux%uGB (%s), %u vaults x %u banks, %u links",
      ToString(mode), num_cores, core.freq_ghz, core.issue_width, core.rob_size,
      static_cast<unsigned long long>(cache.l1_size / kKiB),
      static_cast<unsigned long long>(cache.l2_size / kKiB),
      static_cast<unsigned long long>(cache.l3_size / kKiB), hmc.num_cubes,
      static_cast<unsigned>(hmc.capacity_bytes / kGiB),
      hmc::ToString(hmc.cube_topology), hmc.num_vaults, hmc.banks_per_vault,
      hmc.num_links);
  out += " | knobs:";
  for (const KnobRow& row : kKnobs) {
    out += StrFormat(" %s=%g", row.key, row.get(*this));
  }
  return out;
}

}  // namespace graphpim::core
