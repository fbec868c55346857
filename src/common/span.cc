#include "common/span.h"

#include <cmath>

#include "common/random.h"
#include "common/stats.h"
#include "common/string_util.h"

namespace graphpim::trace {

namespace {

// Salt mixed into the request-id hash so id 0 (core 0, first request) is
// not a degenerate SplitMix64 seed. A fixed constant keeps the sampling
// decision a pure function of the id.
constexpr std::uint64_t kSpanSalt = 0x5370616e52656364ULL;  // "SpanRecd"

std::uint64_t SampleThreshold(double sample_rate) {
  if (sample_rate <= 0.0) return 0;
  if (sample_rate >= 1.0) return ~0ULL;
  // sample_rate in (0,1): the product is strictly below 2^64, so the cast
  // is well defined.
  return static_cast<std::uint64_t>(sample_rate * 0x1p64);
}

bool SampledAgainst(std::uint64_t threshold, bool sample_all,
                    std::uint64_t request_id) {
  if (sample_all) return true;
  return SplitMix64(request_id ^ kSpanSalt).Next() < threshold;
}

}  // namespace

const char* ToString(SpanStage s) {
  switch (s) {
    case SpanStage::kIssue:
      return "issue";
    case SpanStage::kCacheLookup:
      return "cache";
    case SpanStage::kPouDecision:
      return "pou";
    case SpanStage::kHopLink:
      return "hop";
    case SpanStage::kCubeLink:
      return "cube_link";
    case SpanStage::kVaultQueue:
      return "vault_queue";
    case SpanStage::kBankAccess:
      return "bank";
    case SpanStage::kAtomicFu:
      return "fu";
    case SpanStage::kResponse:
      return "response";
    case SpanStage::kCount:
      break;
  }
  return "?";
}

std::uint64_t SpanRequestId(int core, std::uint64_t ordinal) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(core)) << 48) |
         (ordinal & ((1ULL << 48) - 1));
}

bool SampleSpan(double sample_rate, std::uint64_t request_id) {
  return SampledAgainst(SampleThreshold(sample_rate), sample_rate >= 1.0,
                        request_id);
}

SpanRecorder::SpanRecorder(double sample_rate, std::size_t max_spans)
    : sample_rate_(sample_rate),
      threshold_(SampleThreshold(sample_rate)),
      sample_all_(sample_rate >= 1.0),
      max_spans_(max_spans) {}

SpanRef SpanRecorder::Begin(std::uint64_t id, int core, char kind, Addr addr,
                            Tick begin) {
  if (!SampledAgainst(threshold_, sample_all_, id)) return SpanRef();
  if (max_spans_ != 0 && log_.spans.size() >= max_spans_) return SpanRef();
  SpanRecord rec;
  rec.id = id;
  rec.core = core;
  rec.kind = kind;
  rec.addr = addr;
  rec.begin = begin;
  rec.end = begin;
  log_.spans.push_back(std::move(rec));
  return SpanRef(static_cast<std::uint32_t>(log_.spans.size() - 1));
}

void SpanRecorder::Stage(SpanRef ref, SpanStage stage, Tick enter, Tick exit,
                         std::uint32_t detail) {
  if (!ref.valid()) return;
  SpanStageRecord st;
  st.stage = stage;
  st.detail = detail;
  st.enter = enter;
  st.exit = exit;
  log_.spans[ref.index()].stages.push_back(st);
}

void SpanRecorder::End(SpanRef ref, Tick end, bool offloaded) {
  if (!ref.valid()) return;
  SpanRecord& rec = log_.spans[ref.index()];
  rec.end = end;
  rec.offloaded = offloaded;
}

const SpanRecord* FindSpan(const SpanLog& log, std::uint64_t id) {
  for (const SpanRecord& sp : log.spans) {
    if (sp.id == id) return &sp;
  }
  return nullptr;
}

std::string FormatSpanChain(const SpanRecord& sp) {
  std::string s = StrFormat(
      "span %c t%d#%llu 0x%llx [%.1f, %.1f] ns:", sp.kind, sp.core,
      static_cast<unsigned long long>(sp.id & ((1ULL << 48) - 1)),
      static_cast<unsigned long long>(sp.addr), TicksToNs(sp.begin),
      TicksToNs(sp.end));
  bool first = true;
  for (const SpanStageRecord& st : sp.stages) {
    s += StrFormat("%s %s %.1f", first ? "" : " |", ToString(st.stage),
                   TicksToNs(st.exit - st.enter));
    first = false;
  }
  if (sp.offloaded) s += " (offloaded)";
  return s;
}

void FoldSpanStats(const SpanLog& log, StatRegistry* reg) {
  if (log.empty() || reg == nullptr) return;
  // 1 ns buckets x 65536 cover latencies up to ~64 us at single-ns
  // resolution; heavier tails land in the overflow bucket and report the
  // true max.
  constexpr double kBucketNs = 1.0;
  constexpr std::size_t kBuckets = 65536;
  const std::size_t kNumStages = static_cast<std::size_t>(SpanStage::kCount);
  std::vector<Histogram> per_stage(kNumStages, Histogram(kBucketNs, kBuckets));
  std::vector<double> atomic_stage_sum(kNumStages, 0.0);
  std::vector<std::uint64_t> atomic_stage_count(kNumStages, 0);
  Histogram atomic_total(kBucketNs, kBuckets);
  double atomic_unattributed = 0.0;
  std::uint64_t atomics = 0;
  for (const SpanRecord& sp : log.spans) {
    const bool is_atomic = sp.kind == 'A';
    double attributed = 0.0;
    for (const SpanStageRecord& st : sp.stages) {
      const double ns = TicksToNs(st.exit - st.enter);
      const std::size_t idx = static_cast<std::size_t>(st.stage);
      per_stage[idx].Record(ns);
      attributed += ns;
      if (is_atomic) {
        atomic_stage_sum[idx] += ns;
        ++atomic_stage_count[idx];
      }
    }
    if (is_atomic) {
      ++atomics;
      const double total = TicksToNs(sp.end - sp.begin);
      atomic_total.Record(total);
      if (total > attributed) atomic_unattributed += total - attributed;
    }
  }
  reg->Set("span.sampled", static_cast<double>(log.spans.size()));
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const Histogram& h = per_stage[i];
    if (h.total() == 0) continue;
    const std::string base = std::string("span.") + ToString(static_cast<SpanStage>(i));
    reg->Set(base + ".count", static_cast<double>(h.total()));
    reg->Set(base + ".sum_ns", h.mean() * static_cast<double>(h.total()));
    reg->Set(base + ".mean", h.mean());
    reg->Set(base + ".p50", h.Percentile(50.0));
    reg->Set(base + ".p95", h.Percentile(95.0));
    reg->Set(base + ".p99", h.Percentile(99.0));
  }
  if (atomics > 0) {
    reg->Set("span.atomic.count", static_cast<double>(atomics));
    reg->Set("span.atomic.total_ns",
             atomic_total.mean() * static_cast<double>(atomics));
    reg->Set("span.atomic.mean", atomic_total.mean());
    reg->Set("span.atomic.p50", atomic_total.Percentile(50.0));
    reg->Set("span.atomic.p95", atomic_total.Percentile(95.0));
    reg->Set("span.atomic.p99", atomic_total.Percentile(99.0));
    reg->Set("span.atomic.unattributed_ns", atomic_unattributed);
    for (std::size_t i = 0; i < kNumStages; ++i) {
      if (atomic_stage_count[i] == 0) continue;
      const std::string base =
          std::string("span.atomic.") + ToString(static_cast<SpanStage>(i));
      reg->Set(base + ".count", static_cast<double>(atomic_stage_count[i]));
      reg->Set(base + ".sum_ns", atomic_stage_sum[i]);
    }
  }
}

std::string SpanToJson(const SpanRecord& sp) {
  std::string out = StrFormat(
      "{\"id\":%llu,\"core\":%d,\"kind\":\"%c\",\"addr\":%llu,"
      "\"begin_ns\":%.3f,\"end_ns\":%.3f,\"offloaded\":%d,\"stages\":[",
      static_cast<unsigned long long>(sp.id), sp.core, sp.kind,
      static_cast<unsigned long long>(sp.addr), TicksToNs(sp.begin),
      TicksToNs(sp.end), sp.offloaded ? 1 : 0);
  bool first = true;
  for (const SpanStageRecord& st : sp.stages) {
    if (!first) out += ',';
    first = false;
    out += StrFormat("{\"s\":\"%s\",\"d\":%u,\"enter_ns\":%.3f,\"exit_ns\":%.3f}",
                     ToString(st.stage), st.detail, TicksToNs(st.enter),
                     TicksToNs(st.exit));
  }
  out += "]}";
  return out;
}

std::string SpansToJsonl(const SpanLog& log) {
  std::string out;
  for (const SpanRecord& sp : log.spans) {
    out += SpanToJson(sp);
    out += '\n';
  }
  return out;
}

std::string SpansToChromeEvents(const SpanLog& log) {
  if (log.empty()) return std::string();
  auto tick_us = [](Tick t) { return static_cast<double>(t) / 1e6; };
  std::string out;
  bool first = true;
  auto emit = [&](const std::string& event) {
    if (!first) out += ',';
    first = false;
    out += "\n";
    out += event;
  };
  // Track naming: pid 1 holds the phase and telemetry tracks (see
  // ToChromeEvents), pid 2 one row per core, pid 3 one row per cube, pid 4
  // one row per vault track.
  emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
       "\"args\":{\"name\":\"cores\"}}");
  emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,"
       "\"args\":{\"name\":\"cubes\"}}");
  emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":4,"
       "\"args\":{\"name\":\"vaults\"}}");
  for (const SpanRecord& sp : log.spans) {
    const char* kind = sp.kind == 'A' ? "atomic" : sp.kind == 'W' ? "store"
                                                                  : "load";
    emit(StrFormat(
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":2,\"tid\":%d,"
        "\"ts\":%.6f,\"dur\":%.6f,\"args\":{\"id\":\"%llu\","
        "\"addr\":\"0x%llx\",\"offloaded\":%d}}",
        kind, sp.core, tick_us(sp.begin), tick_us(sp.end - sp.begin),
        static_cast<unsigned long long>(sp.id),
        static_cast<unsigned long long>(sp.addr), sp.offloaded ? 1 : 0));
    for (const SpanStageRecord& st : sp.stages) {
      int pid = 2;
      int tid = sp.core;
      switch (st.stage) {
        case SpanStage::kHopLink:
        case SpanStage::kCubeLink:
        case SpanStage::kResponse:
          pid = 3;
          tid = static_cast<int>(st.detail);
          break;
        case SpanStage::kVaultQueue:
        case SpanStage::kBankAccess:
        case SpanStage::kAtomicFu:
          pid = 4;
          tid = static_cast<int>(st.detail);
          break;
        default:
          break;
      }
      emit(StrFormat(
          "{\"name\":\"span.%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
          "\"ts\":%.6f,\"dur\":%.6f,\"args\":{\"id\":\"%llu\"}}",
          ToString(st.stage), pid, tid, tick_us(st.enter),
          tick_us(st.exit - st.enter),
          static_cast<unsigned long long>(sp.id)));
    }
  }
  return out;
}

}  // namespace graphpim::trace
