#include "serve/traffic.h"

#include <cmath>
#include <cstdlib>

#include "common/log.h"
#include "common/random.h"
#include "common/string_util.h"
#include "serve/query.h"

namespace graphpim::serve {

namespace {

// Stream tags keep the per-purpose draw streams decorrelated while staying
// pure functions of the spec seed (same discipline as span.cc's kSpanSalt).
constexpr std::uint64_t kArrivalStream = 0x7365727665'41'5252ULL;  // "serve ARR"
constexpr std::uint64_t kKindStream = 0x7365727665'4b'4e44ULL;     // "serve KND"
constexpr std::uint64_t kTenantStream = 0x7365727665'54'4e54ULL;   // "serve TNT"
constexpr std::uint64_t kRootStream = 0x7365727665'52'4f54ULL;     // "serve ROT"
constexpr std::uint64_t kBurstStream = 0x7365727665'42'5354ULL;    // "serve BST"

std::uint64_t DrawU64(std::uint64_t seed, std::uint64_t stream_tag,
                      std::uint64_t index) {
  // Two rounds: one to fold the user seed into the stream tag, one to fold
  // in the counter. Purely value-dependent — no sequential generator state
  // — so any draw can be recomputed in isolation.
  const std::uint64_t stream_seed = SplitMix64(seed ^ stream_tag).Next();
  return SplitMix64(stream_seed ^ (index * 0x9e3779b97f4a7c15ULL)).Next();
}

std::string RegisteredKindNames() {
  std::string names;
  for (const QueryEmitter& e : QueryEmitters()) {
    if (!names.empty()) names += "|";
    names += e.name;
  }
  return names;
}

}  // namespace

const char* ToString(ArrivalModel m) {
  return m == ArrivalModel::kPoisson ? "poisson" : "bursty";
}

ArrivalModel ParseArrivalModel(const std::string& s) {
  if (s == "poisson") return ArrivalModel::kPoisson;
  if (s == "bursty" || s == "mmpp") return ArrivalModel::kBursty;
  GP_THROW("unknown arrival model '", s, "' (want poisson|bursty)");
}

std::vector<MixEntry> ParseMixSpec(const std::string& s) {
  std::vector<MixEntry> mix;
  for (const std::string& part : Split(s, ',')) {
    const std::string piece = Trim(part);
    if (piece.empty()) continue;
    const std::size_t eq = piece.find('=');
    if (eq == std::string::npos) {
      mix.emplace_back(piece, 1.0);  // bare name: weight 1
      continue;
    }
    const std::string name = Trim(piece.substr(0, eq));
    const std::string val = Trim(piece.substr(eq + 1));
    if (name.empty()) GP_THROW("empty kind name in mix spec '", s, "'");
    char* end = nullptr;
    const double w = std::strtod(val.c_str(), &end);
    if (val.empty() || end != val.c_str() + val.size() || !std::isfinite(w)) {
      GP_THROW("bad weight '", val, "' for kind '", name, "' in mix spec");
    }
    mix.emplace_back(name, w);
  }
  if (mix.empty()) GP_THROW("mix spec '", s, "' names no query kinds");
  return mix;
}

double UniformDraw(std::uint64_t seed, std::uint64_t stream_tag,
                   std::uint64_t index) {
  return static_cast<double>(DrawU64(seed, stream_tag, index) >> 11) *
         0x1.0p-53;
}

std::vector<ServeRequest> GenerateSchedule(const TrafficSpec& spec) {
  if (spec.num_vertices == 0) GP_THROW("traffic spec needs num_vertices > 0");
  if (spec.num_requests == 0) GP_THROW("traffic spec needs num_requests > 0");
  if (!(std::isfinite(spec.qps) && spec.qps > 0.0)) {
    GP_THROW("traffic spec needs a finite qps > 0, got ", spec.qps);
  }
  if (spec.num_tenants == 0) GP_THROW("traffic spec needs num_tenants > 0");
  if (!(std::isfinite(spec.burst_mult) && spec.burst_mult >= 1.0)) {
    GP_THROW("traffic spec burst_mult must be finite and >= 1, got ",
             spec.burst_mult);
  }
  if (spec.p_enter_burst <= 0.0 || spec.p_enter_burst >= 1.0 ||
      spec.p_exit_burst <= 0.0 || spec.p_exit_burst >= 1.0) {
    GP_THROW("traffic spec burst transition probabilities must lie in (0,1)");
  }
  if (spec.mix.empty()) GP_THROW("traffic spec needs a non-empty query mix");

  // Resolve the named mix against the registry once, in mix order. The
  // cumulative-threshold walk below then reproduces the historical
  // hard-coded comparisons exactly for the classic {bfs,sssp,prank} mix.
  const std::vector<QueryEmitter>& emitters = QueryEmitters();
  std::vector<QueryKindId> kinds;
  std::vector<double> weights;
  kinds.reserve(spec.mix.size());
  weights.reserve(spec.mix.size());
  double wsum = 0.0;
  for (const MixEntry& me : spec.mix) {
    const int k = FindQueryKind(me.first);
    if (k < 0) {
      GP_THROW("unknown query kind '", me.first, "' in traffic mix (want ",
               RegisteredKindNames(), ")");
    }
    if (me.second < 0.0) {
      GP_THROW("traffic mix weight for '", me.first, "' must be >= 0, got ",
               me.second);
    }
    kinds.push_back(static_cast<QueryKindId>(k));
    weights.push_back(me.second);
    wsum += me.second;
  }
  if (wsum <= 0.0) {
    weights[0] = wsum = 1.0;  // degenerate mix: everything the first kind
  }

  // Bursty normalization: with per-arrival transition probabilities the
  // state chain's stationary burst share is p_enter/(p_enter+p_exit). The
  // long-run throughput is N / sum(interarrivals), so the constraint is on
  // the MEAN INTERARRIVAL (harmonic in the rates), not the mean rate:
  //   pi_slow/slow_mult + pi_burst/burst_mult = 1
  // keeps it exactly 1/qps, so the offered-load axis stays honest. For
  // burst_mult >= 1 and pi_burst in (0,1) the solution always lies in
  // (0, 1] — no clamping needed.
  const double pi_burst =
      spec.p_enter_burst / (spec.p_enter_burst + spec.p_exit_burst);
  double slow_mult = 1.0;
  if (spec.model == ArrivalModel::kBursty) {
    slow_mult = (1.0 - pi_burst) / (1.0 - pi_burst / spec.burst_mult);
  }

  std::vector<ServeRequest> sched;
  sched.reserve(spec.num_requests);
  double clock_ns = 0.0;
  bool burst = false;
  for (std::uint64_t i = 0; i < spec.num_requests; ++i) {
    double rate = spec.qps;
    if (spec.model == ArrivalModel::kBursty) {
      // State transition between arrival i-1 and i (request 0 starts slow).
      if (i > 0) {
        const double u = UniformDraw(spec.seed, kBurstStream, i);
        if (burst ? (u < spec.p_exit_burst) : (u < spec.p_enter_burst)) {
          burst = !burst;
        }
      }
      rate *= burst ? spec.burst_mult : slow_mult;
    }
    // Exponential interarrival by inverse CDF; 1-u keeps the argument of
    // log strictly positive for u in [0,1).
    const double u = UniformDraw(spec.seed, kArrivalStream, i);
    clock_ns += -std::log(1.0 - u) / rate * 1e9;
    // Checked in ns: NsToTicks of a value past the Tick range is undefined.
    if (!(clock_ns < kServeClockLimitNs)) {
      GP_THROW("traffic spec qps ", spec.qps, " puts request ", i, " at ",
               clock_ns, " ns, past the serve clock's ", kServeClockLimitNs,
               " ns");
    }

    ServeRequest r;
    r.id = i;
    r.arrival = NsToTicks(clock_ns);
    r.tenant = static_cast<std::uint32_t>(DrawU64(spec.seed, kTenantStream, i) %
                                          spec.num_tenants);
    // Cumulative-weight kind draw in mix order; the fallthrough (possible
    // only by FP rounding at the top edge) lands on the last entry, which
    // is what the historical ternary chain did too.
    const double uk = UniformDraw(spec.seed, kKindStream, i) * wsum;
    std::size_t pick = kinds.size() - 1;
    double acc = 0.0;
    for (std::size_t j = 0; j < kinds.size(); ++j) {
      acc += weights[j];
      if (uk < acc) {
        pick = j;
        break;
      }
    }
    r.kind = kinds[pick];
    r.root = emitters[r.kind].sample_root(DrawU64(spec.seed, kRootStream, i),
                                          spec.num_vertices);
    sched.push_back(r);
  }
  return sched;
}

}  // namespace graphpim::serve
