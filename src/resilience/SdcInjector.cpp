#include "resilience/SdcInjector.hpp"

#include <cassert>
#include <cstring>

namespace crocco::resilience {

namespace {

/// Flip one bit of a double in place. The injectors restrict themselves to
/// mantissa bits (0..51): the value stays finite, so the flip is *silent*
/// — StateValidator's NaN/Inf screen never sees it and only the guard
/// machinery can.
void flipBit(amr::Real& v, int bit) {
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof u);
    u ^= (std::uint64_t{1} << bit);
    std::memcpy(&v, &u, sizeof u);
}

int draw(std::mt19937_64& rng, int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
}

} // namespace

SdcInjector::SdcInjector(std::uint64_t seed) : rng_(seed) {}

void SdcInjector::setColdRate(double rate) {
    assert(rate >= 0.0 && rate <= 1.0);
    coldRate_ = rate;
}

void SdcInjector::armColdFlip(int step, int level, int fab) {
    coldArms_.push_back({step, level, fab, /*ghost=*/false, /*spent=*/false});
}

void SdcInjector::armGhostFlip(int step, int level, int fab) {
    coldArms_.push_back({step, level, fab, /*ghost=*/true, /*spent=*/false});
}

void SdcInjector::armStageFlip(int step, int stage, int level, int fab) {
    stageArms_.push_back({step, stage, level, fab, /*spent=*/false});
}

void SdcInjector::flipValidBit(amr::MultiFab& mf, int fab) {
    const amr::Box& vb = mf.validBox(fab);
    const amr::IntVect p(draw(rng_, vb.smallEnd()[0], vb.bigEnd()[0]),
                         draw(rng_, vb.smallEnd()[1], vb.bigEnd()[1]),
                         draw(rng_, vb.smallEnd()[2], vb.bigEnd()[2]));
    const int comp = draw(rng_, 0, mf.nComp() - 1);
    const int bit = draw(rng_, 0, 51);
    flipBit(mf.fab(fab)(p, comp), bit);
}

void SdcInjector::flipGhostBit(amr::MultiFab& mf, int fab) {
    if (mf.nGrow() == 0) { // no ghost layer: degrade to a valid-region flip
        flipValidBit(mf, fab);
        return;
    }
    // Pick a cell of the low-x ghost slab: in the allocated region, outside
    // the stamped valid box.
    const amr::Box gb = mf.grownBox(fab);
    const amr::Box& vb = mf.validBox(fab);
    const amr::IntVect p(draw(rng_, gb.smallEnd()[0], vb.smallEnd()[0] - 1),
                         draw(rng_, vb.smallEnd()[1], vb.bigEnd()[1]),
                         draw(rng_, vb.smallEnd()[2], vb.bigEnd()[2]));
    const int comp = draw(rng_, 0, mf.nComp() - 1);
    const int bit = draw(rng_, 0, 51);
    flipBit(mf.fab(fab)(p, comp), bit);
}

bool SdcInjector::corruptCold(int step, std::vector<amr::MultiFab>& U,
                              int finestLevel) {
    if (!enabled_) return false;
    bool fired = false;
    for (ColdArm& arm : coldArms_) {
        if (arm.spent || arm.step != step) continue;
        arm.spent = true;
        if (arm.level < 0 || arm.level > finestLevel) continue;
        amr::MultiFab& mf = U[static_cast<std::size_t>(arm.level)];
        if (arm.fab < 0 || arm.fab >= mf.numFabs()) continue;
        if (arm.ghost) {
            flipGhostBit(mf, arm.fab);
            ++stats_.ghostFlips;
        } else {
            flipValidBit(mf, arm.fab);
            ++stats_.coldFlips;
        }
        fired = true;
    }
    if (coldRate_ > 0.0) {
        std::uniform_real_distribution<double> uni(0.0, 1.0);
        for (int lev = 0; lev <= finestLevel; ++lev) {
            amr::MultiFab& mf = U[static_cast<std::size_t>(lev)];
            for (int f = 0; f < mf.numFabs(); ++f) {
                ++stats_.decisions;
                if (uni(rng_) < coldRate_) {
                    flipValidBit(mf, f);
                    ++stats_.coldFlips;
                    fired = true;
                }
            }
        }
    }
    return fired;
}

bool SdcInjector::corruptStage(int step, int stage, int level,
                               amr::MultiFab& dU) {
    if (!enabled_) return false;
    bool fired = false;
    for (StageArm& arm : stageArms_) {
        if (arm.spent || arm.step != step || arm.stage != stage ||
            arm.level != level)
            continue;
        arm.spent = true;
        if (arm.fab < 0 || arm.fab >= dU.numFabs()) continue;
        flipValidBit(dU, arm.fab);
        ++stats_.stageFlips;
        fired = true;
    }
    return fired;
}

} // namespace crocco::resilience
