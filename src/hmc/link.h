// SerDes link model: FLIT serialization with full-duplex lanes.
//
// An HMC package exposes 4 high-speed links (Table IV: 120 GB/s each).
// Each link is full duplex: request FLITs occupy the TX lane, response
// FLITs the RX lane. Bandwidth is accounted with an epoch-capacity throttle
// (see throttle.h) so the loosely-ordered timestamps of the quantum
// execution model cannot artificially serialize the lanes. Busy time is
// accumulated for the energy model.
#ifndef GRAPHPIM_HMC_LINK_H_
#define GRAPHPIM_HMC_LINK_H_

#include <cstdint>

#include "common/types.h"
#include "hmc/throttle.h"

namespace graphpim::hmc {

class Link {
 public:
  explicit Link(Tick flit_time)
      : tx_(kEpoch, flit_time), rx_(kEpoch, flit_time) {}

  // Reserves the TX lane for `flits` FLITs no earlier than `earliest`.
  // Returns the tick at which the last FLIT has been transmitted.
  Tick ReserveTx(std::uint32_t flits, Tick earliest) {
    Tick done = tx_.Reserve(flits, earliest);
    tx_tail_ = done > tx_tail_ ? done : tx_tail_;
    return done;
  }

  // Same for the RX (response) lane.
  Tick ReserveRx(std::uint32_t flits, Tick earliest) {
    Tick done = rx_.Reserve(flits, earliest);
    rx_tail_ = done > rx_tail_ ? done : rx_tail_;
    return done;
  }

  // Approximate TX backlog indicator used for link selection.
  Tick tx_ready() const { return tx_tail_; }

  // Response-lane backlog. Mirrors tx_ready(): the retry model loads both
  // lanes with replayed packets, so selection that only watched TX would
  // pile responses onto a link whose RX lane is saturated with retries.
  Tick rx_ready() const { return rx_tail_; }

  Tick busy_ticks() const { return tx_.busy_ticks() + rx_.busy_ticks(); }

  // Idles both lanes, as in a freshly constructed link.
  void Reset() {
    tx_.Reset();
    rx_.Reset();
    tx_tail_ = 0;
    rx_tail_ = 0;
  }

 private:
  static constexpr Tick kEpoch = 25 * kTicksPerNs;

  EpochThrottle tx_;
  EpochThrottle rx_;
  Tick tx_tail_ = 0;
  Tick rx_tail_ = 0;
};

}  // namespace graphpim::hmc

#endif  // GRAPHPIM_HMC_LINK_H_
