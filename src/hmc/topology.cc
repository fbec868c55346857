#include "hmc/topology.h"

#include "common/log.h"
#include "hmc/flit.h"

namespace graphpim::hmc {

const char* ToString(CubeTopology t) {
  switch (t) {
    case CubeTopology::kChain:
      return "chain";
    case CubeTopology::kStar:
      return "star";
  }
  return "?";
}

CubeTopology ParseCubeTopology(const std::string& name) {
  if (name == "chain") return CubeTopology::kChain;
  if (name == "star") return CubeTopology::kStar;
  GP_THROW("unknown cube topology '", name, "' (want chain|star)");
}

HmcNetwork::HmcNetwork(const HmcParams& params, StatRegistry* stats,
                       Addr pmr_base, Addr pmr_end,
                       trace::SpanRecorder* spans)
    : params_(params), spans_(spans) {
  GP_CHECK(params_.num_cubes >= 1, "network needs at least one cube");
  map_.num_cubes = params_.num_cubes;
  map_.page_bytes = params_.cube_page_bytes;
  map_.pmr_base = pmr_base;
  map_.pmr_end = pmr_end;

  cubes_.reserve(params_.num_cubes);
  for (std::uint32_t i = 0; i < params_.num_cubes; ++i) {
    HmcParams cp = params_;
    // Cube 0 keeps the run's fault stream (single-cube byte identity);
    // remote cubes draw decorrelated streams so one injection schedule is
    // not replayed across the whole network.
    cp.fault.seed = fault::DeriveCubeFaultSeed(params_.fault.seed, i);
    cubes_.push_back(std::make_unique<HmcCube>(cp, stats, spans, i));
  }

  if (params_.num_cubes > 1) {
    // Network counters exist only on multi-cube machines: a single-cube
    // run must not intern new "hmc." names or its JSON counter surface
    // would drift from the pinned goldens.
    stats_ = StatScope(stats, "hmc");
    sid_local_ops_ = stats_.Counter("local_ops");
    sid_remote_ops_ = stats_.Counter("remote_ops");
    sid_hop_traversals_ = stats_.Counter("hop_traversals");
    sid_hop_flits_ = stats_.Counter("hop_flits");
    sid_hop_ns_ = stats_.Counter("hop_ns");
    sid_cubes_ = stats_.Counter("cubes");
    sid_capacity_gib_ = stats_.Counter("capacity_gib");
    SetSizeCounters();
    const std::uint32_t edges =
        params_.cube_topology == CubeTopology::kChain ? params_.num_cubes - 1
                                                      : 1;
    hop_links_.reserve(edges);
    for (std::uint32_t i = 0; i < edges; ++i) {
      hop_links_.emplace_back(params_.FlitTime());
    }
  }
}

void HmcNetwork::SetSizeCounters() {
  stats_.Set(sid_cubes_, static_cast<double>(params_.num_cubes));
  stats_.Set(sid_capacity_gib_, static_cast<double>(TotalCapacityBytes()) /
                                    static_cast<double>(kGiB));
}

void HmcNetwork::Reset() {
  for (auto& cube : cubes_) cube->Reset();
  for (Link& link : hop_links_) link.Reset();
  if (params_.num_cubes > 1) SetSizeCounters();
}

std::uint32_t HmcNetwork::HopsTo(std::uint32_t cube) const {
  if (params_.num_cubes <= 1 || cube == 0) return 0;
  return params_.cube_topology == CubeTopology::kChain ? cube : 1;
}

std::uint32_t HmcNetwork::HopEdge(std::uint32_t cube, std::uint32_t h) const {
  // Chain: the path to cube c passes through cubes 0..c-1; hop h rides the
  // edge into pass-through cube h. Star: every remote path crosses the one
  // hub pass-through port.
  (void)cube;
  return params_.cube_topology == CubeTopology::kChain ? h : 0;
}

Tick HmcNetwork::HopsOut(std::uint32_t cube, std::uint32_t flits, Tick when,
                         trace::SpanRef span) {
  const std::uint32_t hops = HopsTo(cube);
  Tick at = when;
  for (std::uint32_t h = 0; h < hops; ++h) {
    at = hop_links_[HopEdge(cube, h)].ReserveTx(flits, at) +
         params_.link_latency + params_.xbar_latency;
  }
  if (hops > 0) {
    stats_.Add(sid_hop_traversals_, hops);
    stats_.Add(sid_hop_flits_, static_cast<double>(flits) * hops);
    stats_.Add(sid_hop_ns_, TicksToNs(at - when));
    if (spans_ != nullptr) {
      spans_->Stage(span, trace::SpanStage::kHopLink, when, at, cube);
    }
  }
  return at;
}

Tick HmcNetwork::HopsBack(std::uint32_t cube, std::uint32_t flits, Tick when,
                          trace::SpanRef span) {
  const std::uint32_t hops = HopsTo(cube);
  Tick at = when;
  for (std::uint32_t h = hops; h > 0; --h) {
    at = hop_links_[HopEdge(cube, h - 1)].ReserveRx(flits, at) +
         params_.link_latency + params_.xbar_latency;
  }
  if (hops > 0) {
    stats_.Add(sid_hop_traversals_, hops);
    stats_.Add(sid_hop_flits_, static_cast<double>(flits) * hops);
    stats_.Add(sid_hop_ns_, TicksToNs(at - when));
    if (spans_ != nullptr) {
      spans_->Stage(span, trace::SpanStage::kHopLink, when, at, cube);
    }
  }
  return at;
}

Completion HmcNetwork::Read(Addr addr, std::uint32_t size, Tick when,
                            trace::SpanRef span) {
  if (params_.num_cubes <= 1) return cubes_[0]->Read(addr, size, when, span);
  const std::uint32_t c = map_.CubeOf(addr);
  if (c == 0) stats_.Inc(sid_local_ops_);
  else stats_.Inc(sid_remote_ops_);
  const Tick at_cube = HopsOut(c, ReadRequestFlits(size), when, span);
  Completion comp = cubes_[c]->Read(map_.LocalAddr(addr), size, at_cube, span);
  comp.response_at_host =
      HopsBack(c, comp.resp_flits, comp.response_at_host, span);
  return comp;
}

Completion HmcNetwork::Write(Addr addr, std::uint32_t size, Tick when,
                             trace::SpanRef span) {
  if (params_.num_cubes <= 1) return cubes_[0]->Write(addr, size, when, span);
  const std::uint32_t c = map_.CubeOf(addr);
  if (c == 0) stats_.Inc(sid_local_ops_);
  else stats_.Inc(sid_remote_ops_);
  const Tick at_cube = HopsOut(c, WriteRequestFlits(size), when, span);
  Completion comp = cubes_[c]->Write(map_.LocalAddr(addr), size, at_cube, span);
  comp.response_at_host =
      HopsBack(c, comp.resp_flits, comp.response_at_host, span);
  return comp;
}

Completion HmcNetwork::Atomic(Addr addr, AtomicOp op, const Value16& operand,
                              bool want_return, Tick when,
                              trace::SpanRef span) {
  if (params_.num_cubes <= 1) {
    return cubes_[0]->Atomic(addr, op, operand, want_return, when, span);
  }
  const std::uint32_t c = map_.CubeOf(addr);
  if (c == 0) stats_.Inc(sid_local_ops_);
  else stats_.Inc(sid_remote_ops_);
  const Tick at_cube = HopsOut(c, AtomicRequestFlits(op), when, span);
  Completion comp = cubes_[c]->Atomic(map_.LocalAddr(addr), op, operand,
                                      want_return, at_cube, span);
  comp.response_at_host =
      HopsBack(c, comp.resp_flits, comp.response_at_host, span);
  return comp;
}

void HmcNetwork::set_functional(bool on) {
  for (auto& c : cubes_) c->set_functional(on);
}

Value16 HmcNetwork::FunctionalRead(Addr addr) const {
  return cubes_[map_.CubeOf(addr)]->FunctionalRead(map_.LocalAddr(addr));
}

void HmcNetwork::FunctionalWrite(Addr addr, const Value16& v) {
  cubes_[map_.CubeOf(addr)]->FunctionalWrite(map_.LocalAddr(addr), v);
}

Tick HmcNetwork::TotalIntFuBusy() const {
  Tick sum = 0;
  for (const auto& c : cubes_) sum += c->TotalIntFuBusy();
  return sum;
}

Tick HmcNetwork::TotalFpFuBusy() const {
  Tick sum = 0;
  for (const auto& c : cubes_) sum += c->TotalFpFuBusy();
  return sum;
}

Tick HmcNetwork::TotalLinkBusy() const {
  Tick sum = 0;
  for (const auto& c : cubes_) sum += c->TotalLinkBusy();
  for (const auto& l : hop_links_) sum += l.busy_ticks();
  return sum;
}

std::uint32_t HmcNetwork::BusyBanksAt(Tick now) const {
  std::uint32_t n = 0;
  for (const auto& c : cubes_) n += c->BusyBanksAt(now);
  return n;
}

Tick HmcNetwork::MaxBankReady() const {
  Tick m = 0;
  for (const auto& c : cubes_) m = std::max(m, c->MaxBankReady());
  return m;
}

std::uint32_t HmcNetwork::TotalLinkCount() const {
  return num_cubes() * params_.num_links +
         static_cast<std::uint32_t>(hop_links_.size());
}

}  // namespace graphpim::hmc
