// Failure-injection tests: invariant violations and user errors must
// terminate with a diagnostic rather than corrupt the simulation.
#include <gtest/gtest.h>

#include "common/config.h"
#include "common/log.h"
#include "core/sim_config.h"
#include "graph/generator.h"
#include "graph/region.h"
#include "hmc/cube.h"
#include "hmc/throttle.h"
#include "hmc/topology.h"
#include "mem/cache.h"
#include "mem/hierarchy.h"
#include "workloads/workload.h"

namespace graphpim {
namespace {

using DeathTest = ::testing::Test;

TEST(ErrorPaths, CheckMacroAborts) {
  EXPECT_DEATH({ GP_CHECK(1 == 2, "impossible"); }, "check failed");
}

TEST(ErrorPaths, PanicAborts) {
  EXPECT_DEATH({ GP_PANIC("boom ", 42); }, "boom 42");
}

TEST(ErrorPaths, FatalExitsWithDiagnostic) {
  EXPECT_EXIT({ GP_FATAL("bad config"); }, ::testing::ExitedWithCode(1), "bad config");
}

TEST(ErrorPaths, ConfigRejectsMalformedArg) {
  // A flag without '=' (say --help) is a user error the drivers report and
  // exit 1 on, so it is a SimError naming the token, not a process exit.
  const char* argv[] = {"prog", "--no-equals-sign"};
  try {
    Config::FromArgs(2, const_cast<char**>(argv));
    ADD_FAILURE() << "no SimError for a flag without '='";
  } catch (const SimError& e) {
    EXPECT_EQ(e.message(),
              "malformed argument '--no-equals-sign' (expected key=value)");
  }
}

TEST(ErrorPaths, ConfigRejectsNonNumeric) {
  // A malformed value is a user error the drivers report and exit 1 on:
  // a SimError naming the key and the value, not a process exit from
  // wherever the value happens to be read.
  Config cfg;
  cfg.Set("n", "abc");
  cfg.Set("b", "maybe");
  cfg.Set("e", "");
  cfg.Set("neg", "-1");
  cfg.Set("big", "18446744073709551616");  // 2^64
  auto expect_throw = [](auto get, const char* want) {
    try {
      get();
      ADD_FAILURE() << "no SimError for " << want;
    } catch (const SimError& e) {
      EXPECT_NE(e.message().find(want), std::string::npos) << e.message();
    }
  };
  expect_throw([&] { cfg.GetInt("n", 0); }, "'n': 'abc' is not an integer");
  expect_throw([&] { cfg.GetUint("n", 0); },
               "'n': 'abc' is not an unsigned integer");
  expect_throw([&] { cfg.GetDouble("n", 0.0); }, "'n': 'abc' is not a number");
  expect_throw([&] { cfg.GetBool("b", false); }, "'b': 'maybe' is not a boolean");
  // An empty value is not 0, and a negative unsigned one does not wrap to
  // 2^64 - 1.
  expect_throw([&] { cfg.GetInt("e", 7); }, "'e': '' is not an integer");
  expect_throw([&] { cfg.GetUint("e", 7); }, "'e': '' is not an unsigned integer");
  expect_throw([&] { cfg.GetDouble("e", 7.0); }, "'e': '' is not a number");
  expect_throw([&] { cfg.GetUint("neg", 7); },
               "'neg': '-1' is not an unsigned integer");
  // Out-of-range integers are not saturated.
  expect_throw([&] { cfg.GetInt("big", 7); }, "'big': '18446744073709551616' is not an integer");
  expect_throw([&] { cfg.GetUint("big", 7); },
               "'big': '18446744073709551616' is not an unsigned integer");
  EXPECT_EQ(cfg.GetInt("neg", 7), -1);
  EXPECT_EQ(cfg.GetDouble("neg", 7.0), -1.0);
}

TEST(ErrorPaths, RegionExhaustionIsFatal) {
  graph::Region r(0, 128);
  r.Allocate(100);
  EXPECT_DEATH({ r.Allocate(100); }, "region exhausted");
}

TEST(ErrorPaths, CacheRejectsBadGeometry) {
  EXPECT_DEATH({ mem::CacheArray c(1000, 3, 64); }, "");
  EXPECT_DEATH({ mem::CacheArray c(4096, 4, 48); }, "power of two");
}

// The vault, bank, row and L3-bank counts are indexed by shift and mask: a
// count that is not a power of two is a SimError naming its field.
TEST(ErrorPaths, ValidateRejectsNonPowerOfTwoGeometry) {
  struct Case {
    const char* field;
    void (*set)(core::SimConfig&);
  };
  const Case cases[] = {
      {"hmc.num_vaults", [](core::SimConfig& c) { c.hmc.num_vaults = 24; }},
      {"hmc.num_vaults", [](core::SimConfig& c) { c.hmc.num_vaults = 0; }},
      {"hmc.banks_per_vault",
       [](core::SimConfig& c) { c.hmc.banks_per_vault = 12; }},
      {"hmc.row_bytes", [](core::SimConfig& c) { c.hmc.row_bytes = 384; }},
      {"cache.l3_banks", [](core::SimConfig& c) { c.cache.l3_banks = 6; }},
  };
  for (const Case& k : cases) {
    core::SimConfig sc = core::SimConfig::Scaled(core::Mode::kBaseline);
    k.set(sc);
    try {
      sc.Validate();
      ADD_FAILURE() << k.field << " was accepted";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find(k.field), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("power of two"), std::string::npos)
          << e.what();
    }
  }
}

// Programs that build the models directly hit the same rule as a check.
TEST(ErrorPaths, ConstructorsRejectNonPowerOfTwoGeometry) {
  hmc::HmcParams vaults;
  vaults.num_vaults = 24;
  EXPECT_DEATH({ hmc::HmcCube cube(vaults); }, "vault count");
  hmc::HmcParams banks;
  banks.banks_per_vault = 12;
  EXPECT_DEATH({ hmc::Vault vault(banks, nullptr); }, "bank count");
  hmc::HmcParams rows;
  rows.row_bytes = 384;
  EXPECT_DEATH({ hmc::Vault vault(rows, nullptr); }, "row size");
  hmc::HmcNetwork net(hmc::HmcParams(), nullptr, 0, 0);
  mem::CacheParams cp;
  cp.l3_banks = 6;
  EXPECT_DEATH({ mem::CacheHierarchy hier(1, cp, &net); }, "L3 bank count");
  EXPECT_DEATH({ hmc::EpochThrottle throttle(1000, 100, 48); }, "window");
}

TEST(ErrorPaths, CacheDoubleInsertIsBug) {
  mem::CacheArray c(4096, 4, 64);
  c.Insert(0x40, false);
  EXPECT_DEATH({ c.Insert(0x40, false); }, "already present");
}

TEST(ErrorPaths, CacheDoubleInsertAfterAHoleIsBug) {
  // 0x0 and 0x400 share set 0 of the 16-set array. Invalidating 0x0 leaves
  // a free way in front of 0x400's, and the duplicate check must look past
  // it.
  mem::CacheArray c(4096, 4, 64);
  c.Insert(0x0, false);
  c.Insert(0x400, false);
  ASSERT_TRUE(c.Invalidate(0x0));
  EXPECT_DEATH({ c.Insert(0x400, false); }, "already present");
}

// Bad workload/profile names are recoverable (SimError): a sweep isolates
// the failing cell instead of dying, and the CLI drivers catch at main().
TEST(ErrorPaths, UnknownWorkloadThrows) {
  EXPECT_THROW({ workloads::CreateWorkload("nope"); }, SimError);
  try {
    workloads::CreateWorkload("nope");
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown workload"), std::string::npos);
  }
}

TEST(ErrorPaths, UnknownProfileThrows) {
  EXPECT_THROW({ graph::GenerateProfile("nope", 1024, 1); }, SimError);
}

TEST(ErrorPaths, ThrowMacroCarriesMessageAndLocation) {
  try {
    GP_THROW("bad knob '", "x", "' value ", 42);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.message(), "bad knob 'x' value 42");
    // what() appends file:line for log/CLI display.
    EXPECT_NE(std::string(e.what()).find("test_errors.cc"), std::string::npos);
  }
}

TEST(ErrorPaths, ConfigRequireKeysAcceptsAndRejects) {
  Config cfg;
  cfg.Set("jobs", "4");
  cfg.Set("sede", "1");  // typo of "seed"
  EXPECT_NO_THROW(cfg.RequireKeys({"jobs", "seed", "sede"}));
  try {
    cfg.RequireKeys({"jobs", "seed"});
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(e.message().find("sede"), std::string::npos);
    EXPECT_NE(e.message().find("seed"), std::string::npos);  // lists accepted
  }
}

TEST(ErrorPaths, UnknownLdbcNameIsFatal) {
  EXPECT_EXIT({ graph::LdbcSizeFromName("ldbc-9z"); }, ::testing::ExitedWithCode(1),
              "unknown LDBC dataset");
}

}  // namespace
}  // namespace graphpim
