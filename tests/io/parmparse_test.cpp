#include "io/ParmParse.hpp"

#include "gpu/ThreadPool.hpp"

#include "TempDir.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>

namespace crocco::io {
namespace {

TEST(ParmParse, ParsesTypedValuesAndComments) {
    ParmParse pp;
    pp.parseText(R"(
# CRoCCo input deck
amr.max_level = 2          # three levels total
crocco.cfl = 0.45
run.name = dmr_summit
run.enabled = true
geom.prob_hi = 4.0 1.0 2.0
)");
    EXPECT_EQ(pp.getInt("amr.max_level"), 2);
    EXPECT_DOUBLE_EQ(pp.getDouble("crocco.cfl"), 0.45);
    EXPECT_EQ(pp.getString("run.name"), "dmr_summit");
    bool b = false;
    EXPECT_TRUE(pp.query("run.enabled", b));
    EXPECT_TRUE(b);
    std::vector<double> hi;
    EXPECT_TRUE(pp.queryArr("geom.prob_hi", hi));
    ASSERT_EQ(hi.size(), 3u);
    EXPECT_DOUBLE_EQ(hi[1], 1.0);
}

TEST(ParmParse, QueryLeavesDefaultWhenAbsentGetThrows) {
    ParmParse pp;
    pp.parseText("a.b = 1\n");
    int v = 42;
    EXPECT_FALSE(pp.query("missing", v));
    EXPECT_EQ(v, 42);
    EXPECT_THROW(pp.getInt("missing"), std::runtime_error);
    EXPECT_TRUE(pp.contains("a.b"));
    EXPECT_FALSE(pp.contains("missing"));
}

TEST(ParmParse, LaterDefinitionsOverride) {
    ParmParse pp;
    pp.parseText("x = 1\n");
    const char* argv[] = {"x=2"};
    pp.parseArgs(1, argv);
    EXPECT_EQ(pp.getInt("x"), 2);
}

TEST(ParmParse, RejectsMalformedLines) {
    ParmParse pp;
    EXPECT_THROW(pp.parseText("no equals sign here\n"), std::runtime_error);
    EXPECT_THROW(pp.parseText("= 3\n"), std::runtime_error);
    EXPECT_THROW(pp.parseText("key =\n"), std::runtime_error);
}

TEST(ParmParse, TracksUnusedKeys) {
    ParmParse pp;
    pp.parseText("used.key = 1\ntypo.key = 2\n");
    int v;
    pp.query("used.key", v);
    const auto unused = pp.unusedKeys();
    ASSERT_EQ(unused.size(), 1u);
    EXPECT_EQ(unused[0], "typo.key");
}

TEST(ParmParse, FileRoundTrip) {
    const testing::TempDir dir("crocco_deck_test");
    const std::string path = dir.path + "/deck.inputs";
    std::ofstream(path) << "amr.blocking_factor = 8\n";
    ParmParse pp;
    pp.parseFile(path);
    EXPECT_EQ(pp.getInt("amr.blocking_factor"), 8);
    EXPECT_THROW(ParmParse().parseFile(dir.path + "/nope.inputs"), std::runtime_error);
}

TEST(ParmParse, MakeConfigAppliesPaperDeckKeys) {
    // The paper's configuration (§III-B/V-C): blocking factor 8, max grid
    // 128, 3 levels, curvilinear interpolation, WENO-SYMBO.
    ParmParse pp;
    pp.parseText(R"(
amr.max_level = 2
amr.blocking_factor = 8
amr.max_grid_size = 128
amr.ref_ratio = 2
amr.regrid_int = 10
crocco.cfl = 0.5
crocco.weno_scheme = symbo
crocco.reconstruction = characteristic
crocco.interp = curvilinear
crocco.tagging = density
crocco.tag_threshold = 0.3
crocco.les_cs = 0.17
gas.gamma = 1.4
)");
    const auto cfg = pp.makeConfig();
    EXPECT_EQ(cfg.amrInfo.maxLevel, 2);
    EXPECT_EQ(cfg.amrInfo.blockingFactor, 8);
    EXPECT_EQ(cfg.amrInfo.maxGridSize, 128);
    EXPECT_EQ(cfg.amrInfo.refRatio, amr::IntVect(2));
    EXPECT_EQ(cfg.regridFreq, 10);
    EXPECT_DOUBLE_EQ(cfg.cfl, 0.5);
    EXPECT_EQ(cfg.scheme, core::WenoScheme::Symbo);
    EXPECT_EQ(cfg.recon, core::Reconstruction::CharacteristicWise);
    EXPECT_EQ(cfg.interp, core::InterpChoice::Curvilinear);
    EXPECT_EQ(cfg.tagging.criterion, core::TagCriterion::DensityGradient);
    EXPECT_DOUBLE_EQ(cfg.tagging.threshold, 0.3);
    EXPECT_DOUBLE_EQ(cfg.sgs.cs, 0.17);
    EXPECT_TRUE(pp.unusedKeys().empty());
}

TEST(ParmParse, MakeConfigRejectsUnknownEnumValues) {
    ParmParse pp;
    pp.parseText("crocco.weno_scheme = weno9\n");
    EXPECT_THROW(pp.makeConfig(), std::runtime_error);
}

TEST(ParmParse, MakeConfigKeepsDefaultsForUnsetKeys) {
    ParmParse pp;
    pp.parseText("crocco.cfl = 0.3\n");
    core::CroccoAmr::Config defaults;
    defaults.amrInfo.maxLevel = 1;
    const auto cfg = pp.makeConfig(defaults);
    EXPECT_EQ(cfg.amrInfo.maxLevel, 1);
    EXPECT_DOUBLE_EQ(cfg.cfl, 0.3);
}

/// makeConfig on a one-line deck must throw a runtime_error naming `key`
/// (each of these values used to crash or stall the solver instead).
void expectRejected(const std::string& line, const std::string& key) {
    ParmParse pp;
    pp.parseText(line + "\n");
    try {
        pp.makeConfig();
        FAIL() << "accepted '" << line << "'";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
            << e.what();
    }
}

TEST(ParmParse, MakeConfigRejectsNegativeMaxLevel) {
    expectRejected("amr.max_level = -1", "amr.max_level");
}

TEST(ParmParse, MakeConfigRejectsZeroBlockingFactor) {
    expectRejected("amr.blocking_factor = 0", "amr.blocking_factor");
}

TEST(ParmParse, MakeConfigRejectsZeroMaxGridSize) {
    expectRejected("amr.max_grid_size = 0", "amr.max_grid_size");
}

TEST(ParmParse, MakeConfigRejectsZeroRefRatio) {
    expectRejected("amr.ref_ratio = 0", "amr.ref_ratio");
}

TEST(ParmParse, MakeConfigRejectsNonPositiveCfl) {
    expectRejected("crocco.cfl = 0", "crocco.cfl");
    expectRejected("crocco.cfl = -0.5", "crocco.cfl");
}

/// A query of `key` on a one-line deck must throw a runtime_error naming
/// the key.
template <typename T>
void expectQueryRejects(const std::string& line, const std::string& key) {
    ParmParse pp;
    pp.parseText(line + "\n");
    T out{};
    try {
        pp.query(key, out);
        FAIL() << "accepted '" << line << "'";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
            << e.what();
    }
}

TEST(ParmParse, IntegerKeysAreReadWhole) {
    expectQueryRejects<int>("amr.max_level = 3x", "amr.max_level");
    expectQueryRejects<int>("amr.max_level = 2.9", "amr.max_level");
    expectQueryRejects<int>("amr.max_level = two", "amr.max_level");
    expectRejected("gpu.num_threads = 3x", "gpu.num_threads");
    ParmParse pp;
    pp.parseText("amr.max_level = -1\namr.regrid_int = 12\n");
    EXPECT_EQ(pp.getInt("amr.max_level"), -1);
    EXPECT_EQ(pp.getInt("amr.regrid_int"), 12);
}

TEST(ParmParse, NumberKeysRejectTrailingText) {
    expectQueryRejects<double>("crocco.cfl = 0.5abc", "crocco.cfl");
    expectQueryRejects<double>("crocco.cfl = abc", "crocco.cfl");
    expectRejected("gas.gamma = 1.4.1", "gas.gamma");
    ParmParse pp;
    pp.parseText("crocco.cfl = 5e-1\ngas.gamma = -1.25\n");
    EXPECT_DOUBLE_EQ(pp.getDouble("crocco.cfl"), 0.5);
    EXPECT_DOUBLE_EQ(pp.getDouble("gas.gamma"), -1.25);
}

TEST(ParmParse, BooleanKeysAcceptOnlyTheEightSpellings) {
    expectQueryRejects<bool>("resilience.sdc_guard = ture", "resilience.sdc_guard");
    expectQueryRejects<bool>("resilience.sdc_guard = 2", "resilience.sdc_guard");
    expectRejected("resilience.sdc_guard = ture", "resilience.sdc_guard");
    for (const char* yes : {"1", "true", "yes", "on"}) {
        ParmParse pp;
        pp.parseText(std::string("b = ") + yes + "\n");
        bool b = false;
        EXPECT_TRUE(pp.query("b", b));
        EXPECT_TRUE(b) << yes;
    }
    for (const char* no : {"0", "false", "no", "off"}) {
        ParmParse pp;
        pp.parseText(std::string("b = ") + no + "\n");
        bool b = true;
        EXPECT_TRUE(pp.query("b", b));
        EXPECT_FALSE(b) << no;
    }
}

/// Sets (or, with nullptr, unsets) GPU_NUM_THREADS for one scope.
class ScopedThreadsEnv {
public:
    explicit ScopedThreadsEnv(const char* value) {
        if (const char* old = std::getenv("GPU_NUM_THREADS")) saved_ = old;
        if (value) ::setenv("GPU_NUM_THREADS", value, 1);
        else ::unsetenv("GPU_NUM_THREADS");
    }
    ~ScopedThreadsEnv() {
        if (saved_) ::setenv("GPU_NUM_THREADS", saved_->c_str(), 1);
        else ::unsetenv("GPU_NUM_THREADS");
    }

private:
    std::optional<std::string> saved_;
};

TEST(ParmParse, MakeConfigRejectsThreadCountAboveCeiling) {
    ScopedThreadsEnv env(nullptr);
    expectRejected("gpu.num_threads = -1", "gpu.num_threads");
    expectRejected("gpu.num_threads = 257", "gpu.num_threads");
    expectRejected("gpu.num_threads = 40000", "gpu.num_threads");
    ParmParse pp;
    pp.parseText("gpu.num_threads = 256\n");
    EXPECT_EQ(pp.makeConfig().gpuNumThreads, gpu::ThreadPool::kMaxThreads);
}

TEST(ParmParse, EnvironmentThreadCountOverridesDeckWithinCeiling) {
    ParmParse pp;
    pp.parseText("gpu.num_threads = 2\n");
    {
        ScopedThreadsEnv env("3");
        EXPECT_EQ(pp.makeConfig().gpuNumThreads, 3);
    }
    for (const char* bad : {"40000", "257", "-2", "four", "3x", "2.9", ""}) {
        ScopedThreadsEnv env(bad);
        try {
            (void)pp.makeConfig();
            FAIL() << "accepted GPU_NUM_THREADS=" << bad;
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("GPU_NUM_THREADS"),
                      std::string::npos)
                << e.what();
        }
    }
}

} // namespace
} // namespace crocco::io
