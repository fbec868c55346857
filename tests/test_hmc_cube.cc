// Tests for the HMC model: FLIT accounting (Table V), bank timing, bank
// locking during RMW, FU pools, links, address mapping, functional store,
// and the epoch throttle.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "hmc/cube.h"
#include "hmc/flit.h"
#include "hmc/throttle.h"
#include "hmc/vault.h"

namespace graphpim::hmc {
namespace {

TEST(Flits, TableV) {
  // 64-byte READ: 1 request FLIT, 5 response FLITs.
  EXPECT_EQ(ReadRequestFlits(64), 1u);
  EXPECT_EQ(ReadResponseFlits(64), 5u);
  // 64-byte WRITE: 5 request FLITs, 1 response FLIT.
  EXPECT_EQ(WriteRequestFlits(64), 5u);
  EXPECT_EQ(WriteResponseFlits(64), 1u);
  // add without return: 2 request, 1 response.
  EXPECT_EQ(AtomicRequestFlits(AtomicOp::kAdd16), 2u);
  EXPECT_EQ(AtomicResponseFlits(AtomicOp::kAdd16, false), 1u);
  // add with return: 2 request, 2 response.
  EXPECT_EQ(AtomicResponseFlits(AtomicOp::kAdd16Ret, true), 2u);
  // boolean/bitwise/CAS: 2 request, 2 response.
  EXPECT_EQ(AtomicRequestFlits(AtomicOp::kCasEqual8), 2u);
  EXPECT_EQ(AtomicResponseFlits(AtomicOp::kCasEqual8, true), 2u);
  EXPECT_EQ(AtomicResponseFlits(AtomicOp::kSwap16, true), 2u);
  // compare-if-equal: 2 request, 1 response (flag only).
  EXPECT_EQ(AtomicResponseFlits(AtomicOp::kCompareEqual16, true), 1u);
}

TEST(Flits, SubLineSizes) {
  // GraphPIM's exact-size UC accesses use fewer FLITs than line fills.
  EXPECT_EQ(ReadResponseFlits(8), 2u);
  EXPECT_EQ(WriteRequestFlits(8), 2u);
  EXPECT_LT(ReadResponseFlits(8), ReadResponseFlits(64));
}

TEST(Throttle, AdmitsUpToCapacityPerEpoch) {
  EpochThrottle t(/*epoch=*/1000, /*per_unit=*/100);  // capacity 10
  Tick first = t.Reserve(1, 0);
  EXPECT_EQ(first, 100u);
  // Ten units fill epoch 0; the eleventh spills into epoch 1.
  for (int i = 0; i < 9; ++i) t.Reserve(1, 0);
  Tick spill = t.Reserve(1, 0);
  EXPECT_GE(spill, 1000u);
}

TEST(Throttle, OutOfOrderReservationsDoNotBlockEarlier) {
  EpochThrottle t(1000, 100);
  // A far-future reservation must not delay an earlier one.
  t.Reserve(1, 50000);
  Tick early = t.Reserve(1, 0);
  EXPECT_LE(early, 200u);
}

TEST(Throttle, TracksBusyTime) {
  EpochThrottle t(1000, 100);
  t.Reserve(3, 0);
  EXPECT_EQ(t.busy_ticks(), 300u);
}

// After a reset, the same reservations (out-of-order times and epoch
// spills included) return the ticks they returned on the new throttle.
TEST(Throttle, ResetReplaysTheSameTicks) {
  EpochThrottle t(1000, 100, 8);
  auto reserve = [&t] {
    std::vector<Tick> out;
    for (Tick when : {0, 0, 5000, 250, 99000, 98000, 98000, 0}) {
      out.push_back(t.Reserve(4, when));
    }
    out.push_back(t.busy_ticks());
    return out;
  };
  const std::vector<Tick> first = reserve();
  t.Reserve(7, 123456789);
  t.Reset();
  EXPECT_EQ(t.busy_ticks(), 0u);
  EXPECT_EQ(reserve(), first);
}

// The throttle before its window slots carried epoch tags: a cached epoch
// hint that spared most divisions, and a loop that zeroed every slot
// leaving the window. Kept as the reference the tagged window must match.
class HintAndClearThrottle {
 public:
  HintAndClearThrottle(Tick epoch_ticks, Tick per_unit_ticks,
                       std::size_t window)
      : epoch_ticks_(epoch_ticks),
        per_unit_ticks_(per_unit_ticks),
        used_(window, 0) {
    capacity_ = static_cast<std::uint32_t>(epoch_ticks / per_unit_ticks);
    if (capacity_ == 0) capacity_ = 1;
  }

  Tick Reserve(std::uint32_t units, Tick when) {
    busy_ += static_cast<Tick>(units) * per_unit_ticks_;
    std::uint64_t e = EpochOf(when);
    if (e < base_epoch_) e = base_epoch_;
    AdvanceTo(e);
    std::uint32_t remaining = units;
    std::uint32_t filled_before = 0;
    while (true) {
      std::uint32_t& u = used_[Slot(e)];
      std::uint32_t avail = capacity_ > u ? capacity_ - u : 0;
      std::uint32_t take = remaining < avail ? remaining : avail;
      filled_before = u;
      u += take;
      remaining -= take;
      if (remaining == 0) break;
      ++e;
      AdvanceTo(e);
    }
    Tick pos = e * epoch_ticks_ +
               static_cast<Tick>(filled_before) * per_unit_ticks_ +
               static_cast<Tick>(units) * per_unit_ticks_;
    return pos > when ? pos : when + static_cast<Tick>(units) * per_unit_ticks_;
  }

  Tick busy_ticks() const { return busy_; }

  void Reset() {
    std::fill(used_.begin(), used_.end(), 0);
    base_epoch_ = 0;
    hint_epoch_ = 0;
    hint_start_ = 0;
    busy_ = 0;
  }

 private:
  std::size_t Slot(std::uint64_t e) const {
    return static_cast<std::size_t>(e & (used_.size() - 1));
  }

  std::uint64_t EpochOf(Tick when) {
    Tick d = when - hint_start_;  // wraps huge when `when` precedes the hint
    if (d < epoch_ticks_) return hint_epoch_;
    if (d < 32 * epoch_ticks_) {
      do {
        hint_start_ += epoch_ticks_;
        ++hint_epoch_;
        d -= epoch_ticks_;
      } while (d >= epoch_ticks_);
      return hint_epoch_;
    }
    hint_epoch_ = when / epoch_ticks_;
    hint_start_ = hint_epoch_ * epoch_ticks_;
    return hint_epoch_;
  }

  void AdvanceTo(std::uint64_t e) {
    if (e < base_epoch_ + used_.size()) return;
    std::uint64_t new_base = e + 1 - used_.size();
    for (std::uint64_t i = base_epoch_;
         i < new_base && i < base_epoch_ + used_.size(); ++i) {
      used_[Slot(i)] = 0;
    }
    if (new_base > base_epoch_ + used_.size()) {
      for (auto& u : used_) u = 0;
    }
    base_epoch_ = new_base;
  }

  Tick epoch_ticks_;
  Tick per_unit_ticks_;
  std::uint32_t capacity_;
  std::vector<std::uint32_t> used_;
  std::uint64_t base_epoch_ = 0;
  std::uint64_t hint_epoch_ = 0;
  Tick hint_start_ = 0;
  Tick busy_ = 0;
};

// 120,000 seeded reservations per window size, with a reset halfway: each
// step moves the timestamp up to 40 epochs either way, and some steps jump
// past the window or go back before its base; unit counts reach three
// times an epoch's capacity. Every returned tick and the busy time must
// match the hint-and-clear reference.
TEST(Throttle, TaggedWindowMatchesHintAndClear) {
  constexpr Tick kEpoch = 1000;
  constexpr Tick kPerUnit = 70;  // capacity 14
  constexpr std::uint64_t kCapacity = kEpoch / kPerUnit;
  for (const std::size_t window : {4u, 8u, 64u}) {
    EpochThrottle t(kEpoch, kPerUnit, window);
    HintAndClearThrottle ref(kEpoch, kPerUnit, window);
    Rng rng(window);
    Tick when = 100 * kEpoch;
    Tick latest = when;
    std::vector<std::pair<std::uint32_t, Tick>> recent;
    for (int i = 0; i < 120000; ++i) {
      if (i == 60000) {
        // Replayed after the reset, the last reservations land on epochs
        // whose slots still carry the tags from before it.
        t.Reset();
        ref.Reset();
        for (const auto& [units, at] : recent) {
          ASSERT_EQ(t.Reserve(units, at), ref.Reserve(units, at)) << window;
        }
      }
      const std::uint64_t kind = rng.NextBounded(16);
      if (kind < 13) {
        const Tick step = rng.NextBounded(40 * kEpoch + 1);
        when = rng.NextBounded(2) == 0 ? when + step
                                       : (when > step ? when - step : 0);
      } else if (kind < 15) {
        when = latest + (window + rng.NextBounded(2 * window)) * kEpoch +
               rng.NextBounded(kEpoch);
      } else {
        const Tick back = (window + rng.NextBounded(2 * window)) * kEpoch;
        when = latest > back ? latest - back : 0;
      }
      latest = std::max(latest, when);
      const auto units = static_cast<std::uint32_t>(
          rng.NextBounded(3 * kCapacity + 1));
      ASSERT_EQ(t.Reserve(units, when), ref.Reserve(units, when))
          << "window " << window << " step " << i;
      recent.emplace_back(units, when);
      if (recent.size() > 16) recent.erase(recent.begin());
    }
    EXPECT_EQ(t.busy_ticks(), ref.busy_ticks()) << window;
  }
}

HmcParams TestParams() {
  HmcParams p;
  return p;
}

// After a reset, the same reads, writes and atomics (row hits, conflicts
// and FU queueing included) return the ticks they returned on the new
// vault, and the busy and backlog gauges start over.
TEST(Vault, ResetReplaysTheSameTicks) {
  const HmcParams p = TestParams();
  Vault v(p, nullptr);
  auto access = [&v] {
    std::vector<Tick> out;
    for (int i = 0; i < 12; ++i) {
      const Addr addr = static_cast<Addr>(i % 5) * 4096 + (i % 3) * 64;
      const Tick at = static_cast<Tick>(i) * 3000;
      const Vault::AccessResult r =
          i % 3 == 0   ? v.Read(addr, at)
          : i % 3 == 1 ? v.Write(addr, at)
                       : v.Atomic(addr, AtomicOp::kAdd16, at);
      out.insert(out.end(), {r.data_ready, r.done, Tick{r.row_hit}});
    }
    out.insert(out.end(), {v.int_fu_busy(), v.fp_fu_busy(), v.MaxBankReady(),
                           Tick{v.BusyBanksAt(0)}});
    return out;
  };
  const std::vector<Tick> first = access();
  v.Reset();
  EXPECT_EQ(v.MaxBankReady(), 0u);
  EXPECT_EQ(v.int_fu_busy(), 0u);
  EXPECT_EQ(access(), first);
}

TEST(Cube, VaultMappingCoversAllVaults) {
  HmcCube cube(TestParams());
  std::set<std::uint32_t> vaults;
  for (Addr a = 0; a < 64 * 64; a += 64) vaults.insert(cube.VaultOf(a));
  EXPECT_EQ(vaults.size(), 32u);
}

TEST(Cube, VaultLocalAddrIndependentOfVaultBits) {
  HmcCube cube(TestParams());
  // Two addresses in different vaults with the same local offset pattern
  // must decode to the same local address.
  Addr a = 0x10000;
  Addr b = a + 64;  // next vault
  EXPECT_NE(cube.VaultOf(a), cube.VaultOf(b));
  EXPECT_EQ(cube.VaultLocalAddr(a), cube.VaultLocalAddr(b));
}

TEST(Cube, ReadLatencyComponents) {
  HmcCube cube(TestParams());
  Completion c = cube.Read(0x1000, 64, 0);
  // Idle read: link + xbar + ctrl + tRCD + tCL + burst + response.
  double ns = TicksToNs(c.response_at_host);
  EXPECT_GT(ns, 30.0);
  EXPECT_LT(ns, 60.0);
  EXPECT_EQ(c.req_flits, 1u);
  EXPECT_EQ(c.resp_flits, 5u);
}

TEST(Cube, RowHitFasterThanRowMiss) {
  HmcCube cube(TestParams());
  Completion first = cube.Read(0x2000, 8, 0);
  EXPECT_FALSE(first.row_hit);
  // Same row, later access: row hit, shorter bank time.
  Completion second = cube.Read(0x2008, 8, first.internal_done + 1000);
  EXPECT_TRUE(second.row_hit);
  Tick t1 = first.response_at_host;
  Tick t2 = second.response_at_host - (first.internal_done + 1000);
  EXPECT_LT(t2, t1);
}

TEST(Cube, BankLockedDuringAtomic) {
  HmcCube cube(TestParams());
  // An atomic locks its bank; a read right behind it to the same bank must
  // wait for the full RMW (including write-back).
  Completion a = cube.Atomic(0x4000, AtomicOp::kAdd16, Value16{1, 0}, false, 0);
  Completion r = cube.Read(0x4000, 8, 0);
  EXPECT_GE(r.internal_done, a.internal_done);
}

TEST(Cube, AtomicResponseBeforeWriteback) {
  HmcCube cube(TestParams());
  Completion a = cube.Atomic(0x6000, AtomicOp::kAdd16Ret, Value16{1, 0}, true, 0);
  // The response leaves once the FU has the result; the bank frees later
  // (after write recovery).
  EXPECT_GT(a.internal_done, 0u);
  EXPECT_EQ(a.resp_flits, 2u);
}

TEST(Cube, SingleFpFuSerializes) {
  HmcParams p = TestParams();
  p.fp_fus_per_vault = 1;
  HmcCube one(p);
  // Two FP atomics to the same vault, different banks: FU is shared.
  Addr a1 = 0x0;                  // vault 0
  Addr a2 = 64ull * 32 * 32;      // vault 0, different bank region
  ASSERT_EQ(one.VaultOf(a1), one.VaultOf(a2));
  Completion c1 = one.Atomic(a1, AtomicOp::kFpAdd64, Value16{}, false, 0);
  Completion c2 = one.Atomic(a2, AtomicOp::kFpAdd64, Value16{}, false, 0);
  (void)c1;
  // The FP FU busy time equals two op latencies (they did not overlap).
  EXPECT_EQ(one.TotalFpFuBusy(), 2 * p.fu_fp_latency);
  EXPECT_GT(c2.response_at_host, c1.response_at_host);
}

TEST(Cube, FpAtomicRequiresExtension) {
  HmcParams p = TestParams();
  p.enable_fp_atomics = true;
  HmcCube cube(p);
  Completion c = cube.Atomic(0x100, AtomicOp::kFpAdd64, Value16{}, false, 0);
  EXPECT_GT(c.response_at_host, 0u);
}

TEST(Cube, FunctionalAtomicChain) {
  HmcCube cube(TestParams());
  cube.set_functional(true);
  Addr a = 0x9000;
  cube.FunctionalWrite(a, Value16{10, 0});
  cube.Atomic(a, AtomicOp::kAdd16, Value16{5, 0}, false, 0);
  cube.Atomic(a, AtomicOp::kAdd16, Value16{7, 0}, false, 0);
  EXPECT_EQ(cube.FunctionalRead(a).lo, 22u);
  // CAS only fires on match.
  Completion c = cube.Atomic(a, AtomicOp::kCasEqual8, Value16{99, 22}, true, 0);
  EXPECT_TRUE(c.outcome.flag);
  EXPECT_EQ(cube.FunctionalRead(a).lo, 99u);
}

TEST(Cube, StatsAccumulateFlits) {
  StatRegistry stats;
  HmcCube cube(TestParams(), &stats);
  cube.Read(0, 64, 0);
  cube.Write(64, 64, 0);
  cube.Atomic(128, AtomicOp::kAdd16, Value16{}, false, 0);
  EXPECT_DOUBLE_EQ(stats.Get("hmc.reads"), 1);
  EXPECT_DOUBLE_EQ(stats.Get("hmc.writes"), 1);
  EXPECT_DOUBLE_EQ(stats.Get("hmc.atomics"), 1);
  EXPECT_DOUBLE_EQ(stats.Get("hmc.req_flits"), 1 + 5 + 2);
  EXPECT_DOUBLE_EQ(stats.Get("hmc.resp_flits"), 5 + 1 + 1);
}

TEST(Cube, LinkBandwidthScaleSpeedsSerialization) {
  HmcParams slow = TestParams();
  slow.link_bw_scale = 0.01;  // pathological: make serialization dominant
  HmcParams fast = TestParams();
  fast.link_bw_scale = 1.0;
  HmcCube s(slow);
  HmcCube f(fast);
  Tick ts = s.Read(0, 64, 0).response_at_host;
  Tick tf = f.Read(0, 64, 0).response_at_host;
  EXPECT_GT(ts, tf);
}

TEST(Cube, ClosedPageUniformLatency) {
  HmcParams p = TestParams();
  p.closed_page = true;
  HmcCube cube(p);
  // Same row back to back: closed-page never row-hits, both accesses see
  // the same activate+access latency.
  Completion a = cube.Read(0x2000, 8, 0);
  Completion b = cube.Read(0x2008, 8, a.internal_done + 10000);
  EXPECT_FALSE(a.row_hit);
  EXPECT_FALSE(b.row_hit);
}

TEST(Cube, RefreshWindowStallsAccess) {
  HmcParams p = TestParams();
  p.t_refi = NsToTicks(1000.0);
  p.t_rfc = NsToTicks(200.0);
  StatRegistry stats;
  HmcCube cube(p, &stats);
  // Land inside the refresh window [800ns, 1000ns).
  cube.Read(0x3000, 8, NsToTicks(850.0));
  EXPECT_GE(stats.Get("hmc.refresh_stalls"), 1.0);
}

TEST(Cube, RefreshDisabled) {
  HmcParams p = TestParams();
  p.t_refi = 0;
  StatRegistry stats;
  HmcCube cube(p, &stats);
  cube.Read(0x3000, 8, NsToTicks(850.0));
  EXPECT_DOUBLE_EQ(stats.Get("hmc.refresh_stalls"), 0.0);
}

TEST(Cube, TightTrasGatesRowCycling) {
  HmcParams p = TestParams();
  HmcCube cube(p);
  // Conflicting rows in the same bank back to back: the second access
  // cannot precharge until tRAS after the first activate.
  Addr row0 = 0x0;
  Addr row1 = 64ull * 32 * 32 * 16;  // same vault+bank, different row
  ASSERT_EQ(cube.VaultOf(row0), cube.VaultOf(row1));
  Completion c0 = cube.Read(row0, 8, 0);
  Completion c1 = cube.Read(row1, 8, 0);
  EXPECT_FALSE(c1.row_hit);
  EXPECT_GT(c1.response_at_host, c0.response_at_host);
}

}  // namespace
}  // namespace graphpim::hmc
