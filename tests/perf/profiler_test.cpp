#include "perf/TinyProfiler.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace crocco::perf {
namespace {

TEST(TinyProfiler, AccumulatesScopesAndCalls) {
    TinyProfiler prof;
    for (int i = 0; i < 3; ++i) {
        TinyProfiler::Scope s(prof, "region");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(prof.calls("region"), 3);
    EXPECT_GE(prof.seconds("region"), 0.005);
    EXPECT_TRUE(prof.has("region"));
    EXPECT_FALSE(prof.has("other"));
}

TEST(TinyProfiler, AddTimeChargesRegionsDirectly) {
    TinyProfiler prof;
    prof.addTime("FillPatch", 1.5, 10);
    prof.addTime("FillPatch", 0.5, 5);
    prof.addTime("Advance", 3.0);
    EXPECT_DOUBLE_EQ(prof.seconds("FillPatch"), 2.0);
    EXPECT_EQ(prof.calls("FillPatch"), 15);
    const auto rep = prof.report();
    ASSERT_EQ(rep.size(), 2u);
    EXPECT_EQ(rep[0].name, "Advance"); // sorted by descending time
}

TEST(TinyProfiler, TableRendersAllRegions) {
    TinyProfiler prof;
    prof.addTime("WENOx", 0.25);
    prof.addTime("Viscous", 0.125);
    const std::string t = prof.table();
    EXPECT_NE(t.find("WENOx"), std::string::npos);
    EXPECT_NE(t.find("Viscous"), std::string::npos);
    EXPECT_NE(t.find("0.25"), std::string::npos);
}

TEST(TinyProfiler, ResetClears) {
    TinyProfiler prof;
    prof.addTime("x", 1.0);
    prof.reset();
    EXPECT_FALSE(prof.has("x"));
    EXPECT_TRUE(prof.report().empty());
}

} // namespace
} // namespace crocco::perf
