// Synthetic query traffic for the serving engine (DESIGN.md §13).
//
// A traffic schedule is a time-ordered list of graph point-queries
// against the resident graph, drawn from the name-keyed QueryEmitter
// registry (serve/query.h): bfs, sssp, prank, knn. Generation is open
// loop: arrival times do not depend on how fast the machine under test
// serves, which is what makes a saturation sweep meaningful (offered
// load is an independent variable).
//
// DETERMINISM CONTRACT: every draw is value-derived — a counter-based
// SplitMix64 hash of (seed, stream tag, request index), the same
// discipline the span recorder uses for sampling. The schedule for a
// given spec is therefore bit-identical across --jobs counts, platforms,
// and reruns. Request identity (tenant, kind, root) depends only on the
// request index, NOT on the arrival rate, so every point of a --qps-grid
// sweep serves the same request population and differs only in arrival
// spacing — offered load stays a paired comparison.
#ifndef GRAPHPIM_SERVE_TRAFFIC_H_
#define GRAPHPIM_SERVE_TRAFFIC_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace graphpim::serve {

// Index into the QueryEmitter registry (serve/query.h). There is no kind
// enum and no kCount sentinel: the registry IS the set of kinds, and its
// size is the kind count. Requests carry the id; names exist only at the
// spec boundary (mix parsing, reports).
using QueryKindId = std::uint8_t;

// Arrival process shapes.
//   kPoisson — open-loop Poisson: i.i.d. exponential interarrivals.
//   kBursty  — two-state Markov-modulated Poisson (MMPP-style): a slow
//              and a burst state with hashed state transitions between
//              consecutive arrivals; rates are normalized so the long-run
//              offered load still equals the nominal qps.
enum class ArrivalModel : std::uint8_t { kPoisson = 0, kBursty };

const char* ToString(ArrivalModel m);

// "poisson" | "bursty" -> model; throws SimError on anything else.
ArrivalModel ParseArrivalModel(const std::string& s);

// One admitted unit of work.
struct ServeRequest {
  std::uint64_t id = 0;        // == request index in the schedule
  std::uint32_t tenant = 0;
  QueryKindId kind = 0;        // registry index (0 == first registered: bfs)
  VertexId root = 0;
  Tick arrival = 0;            // open-loop arrival time (simulated)
};

// Per-kind named weight of the traffic mix, in draw order. Order matters
// for bit-identity: the kind draw walks the cumulative weights in mix
// order, so {bfs,sssp,prank} with weights {.5,.3,.2} reproduces the
// historical three-kind threshold comparisons exactly.
using MixEntry = std::pair<std::string, double>;

// "--mix=knn=1" / "--mix=bfs=0.5,sssp=0.3,prank=0.2" -> entries in flag
// order. A bare name means weight 1. Throws SimError on malformed pieces:
// an empty name, or a weight that is not one finite number. Kind names are
// validated later, by GenerateSchedule, against the registry (so this
// parser has no registry dependency).
std::vector<MixEntry> ParseMixSpec(const std::string& s);

// The serve clock's range in simulated ns: 2^62 ps, about 53 days.
// Arrival times, dispatch costs and batch completions stay below it, so
// their conversions to Ticks (64-bit picoseconds, about 213 days) and the
// sums of those Ticks cannot wrap.
inline constexpr double kServeClockLimitNs =
    0x1p62 / static_cast<double>(kTicksPerNs);

struct TrafficSpec {
  ArrivalModel model = ArrivalModel::kPoisson;
  double qps = 1e6;                 // nominal offered load (queries/s,
                                    // simulated time)
  std::size_t num_requests = 48;    // schedule length
  std::uint32_t num_tenants = 2;
  VertexId num_vertices = 0;        // root domain; must be > 0
  // Query-kind mix: (registered kind name, weight), normalized internally.
  // An unknown name is a SimError naming the offender; an all-zero mix
  // degenerates to the first entry's kind only.
  std::vector<MixEntry> mix{{"bfs", 0.5}, {"sssp", 0.3}, {"prank", 0.2}};
  // Bursty-model shape: burst-state rate multiplier and per-arrival
  // transition probabilities (slow->burst, burst->slow).
  double burst_mult = 8.0;
  double p_enter_burst = 0.10;
  double p_exit_burst = 0.30;
  std::uint64_t seed = 1;
};

// A uniform double in [0, 1) that is a pure function of
// (seed, stream tag, index) — the value-derived SplitMix64 stream the
// schedule generator draws from. Exposed for tests.
double UniformDraw(std::uint64_t seed, std::uint64_t stream_tag,
                   std::uint64_t index);

// Expands `spec` into its full arrival schedule, sorted by arrival time
// (arrivals are generated as a cumulative sum, so the order is inherent).
// Kind names resolve through the QueryEmitter registry; roots come from
// each kind's registered root sampler. Throws SimError on a degenerate
// spec (no vertices, no requests, a qps that is not finite and positive,
// out-of-range or non-finite burst parameters, empty mix, unknown kind
// name, negative weight), and on a qps so low that an arrival would fall
// past kServeClockLimitNs.
std::vector<ServeRequest> GenerateSchedule(const TrafficSpec& spec);

}  // namespace graphpim::serve

#endif  // GRAPHPIM_SERVE_TRAFFIC_H_
