#include "amr/MultiFab.hpp"

#include "amr/CommCache.hpp"
#include "check/Check.hpp"
#include "gpu/Gpu.hpp"
#include "resilience/Crc32.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <sstream>

namespace crocco::amr {

std::uint32_t regionCrc(const FArrayBox& f, const Box& region, int comp,
                        int ncomp) {
    // crc32 chains, crc32(a‖b) = crc32(b, crc32(a)), so one call per
    // contiguous i-run gives the per-Real chain's value. Each run is read
    // through the Array4 view (check builds validate every cell) into a
    // small local buffer, in pieces when it is longer than the buffer.
    constexpr int kRun = 64;
    Real run[kRun];
    const auto a = f.const_array();
    const IntVect lo = region.smallEnd(), hi = region.bigEnd();
    std::uint32_t crc = 0;
    for (int n = comp; n < comp + ncomp; ++n)
        for (int k = lo[2]; k <= hi[2]; ++k)
            for (int j = lo[1]; j <= hi[1]; ++j)
                for (int i0 = lo[0]; i0 <= hi[0]; i0 += kRun) {
                    const int len = std::min(kRun, hi[0] - i0 + 1);
                    for (int m = 0; m < len; ++m) run[m] = a(i0 + m, j, k, n);
                    crc = resilience::crc32(
                        run, static_cast<std::size_t>(len) * sizeof(Real), crc);
                }
    return crc;
}

namespace {

/// Flip one bit of one Real inside a fab rectangle — the payload damage a
/// Corrupt fault does in flight. `word` deterministically selects the cell,
/// component (forEachCell order, components outermost), and bit.
void scrambleRegionBit(FArrayBox& f, const Box& region, int comp, int ncomp,
                       std::uint64_t word) {
    const std::int64_t nvals = region.numPts() * ncomp;
    if (nvals <= 0) return;
    const auto target =
        static_cast<std::int64_t>(word % static_cast<std::uint64_t>(nvals));
    const auto bit = static_cast<unsigned>((word >> 32) % (sizeof(Real) * 8));
    auto a = f.array();
    std::int64_t idx = 0;
    bool done = false;
    for (int n = comp; n < comp + ncomp && !done; ++n) {
        forEachCell(region, [&](int i, int j, int k) {
            if (done || idx++ != target) return;
            Real v = a(i, j, k, n);
            std::uint64_t bits = 0;
            std::memcpy(&bits, &v, sizeof(Real));
            bits ^= (std::uint64_t{1} << bit);
            std::memcpy(&v, &bits, sizeof(Real));
            a(i, j, k, n) = v;
            done = true;
        });
    }
}

} // namespace

MultiFab::MultiFab(const BoxArray& ba, const DistributionMapping& dm, int ncomp,
                   int ngrow, parallel::SimComm* comm) {
    define(ba, dm, ncomp, ngrow, comm);
}

void MultiFab::define(const BoxArray& ba, const DistributionMapping& dm, int ncomp,
                      int ngrow, parallel::SimComm* comm) {
    define(ba, dm, ncomp, ngrow, comm,
           std::vector<bool>(static_cast<std::size_t>(ba.size()), true));
}

void MultiFab::define(const BoxArray& ba, const DistributionMapping& dm, int ncomp,
                      int ngrow, parallel::SimComm* comm,
                      const std::vector<bool>& allocate) {
    assert(ba.size() == dm.size());
    assert(static_cast<int>(allocate.size()) == ba.size());
    assert(ncomp >= 1 && ngrow >= 0);
    ba_ = ba;
    dm_ = dm;
    ncomp_ = ncomp;
    ngrow_ = ngrow;
    comm_ = comm;
    fabs_.clear();
    fabs_.resize(static_cast<std::size_t>(ba.size()));
    for (int i = 0; i < ba.size(); ++i) {
        if (!allocate[static_cast<std::size_t>(i)]) continue;
        FArrayBox& f = fabs_[static_cast<std::size_t>(i)];
        // MultiFab storage models fresh device allocations: nothing fills
        // it, and check builds poison it and start the shadow map at Uninit
        // so never-written reads are caught.
        f.resize(ba[i].grow(ngrow), ncomp);
        if constexpr (check::enabled) f.markUninitialized(ba[i]);
    }
}

void MultiFab::invalidateGhosts() {
    if constexpr (check::enabled) {
        for (auto& f : fabs_) f.invalidateGhostShadow();
    }
}

void MultiFab::setVal(Real v) {
    // Each fab's sweep models one device kernel launch (FArrayBox loops do
    // not route through gpu::ParallelFor, so they are counted here).
    gpu::ParallelForIndex(numFabs(), [&](int i) {
        gpu::LaunchStats::add();
        fabs_[i].setVal(v);
    });
}

void MultiFab::setVal(Real v, int comp, int ncomp) {
    gpu::ParallelForIndex(numFabs(), [&](int i) {
        gpu::LaunchStats::add();
        fabs_[i].setVal(v, fabs_[i].box(), comp, ncomp);
    });
}

void MultiFab::replay(const CommPattern& pattern, const MultiFab& src,
                      int srcComp, int destComp, int numComp,
                      const std::string& tag, bool p2p) {
    assert(pattern.dstSize == numFabs() &&
           static_cast<int>(pattern.dstStart.size()) == numFabs() + 1);
    // An attached fault injector is the one switch for the verified path:
    // off-rank payloads then cross the hardened wire in the serial pass
    // below instead of being copied here.
    const bool verified = comm_ && comm_->faults();
    const auto offRank = [&](const CopyDescriptor& d) {
        return src.distributionMap()[d.srcFab] != dm_[d.dstFab];
    };
    // One pool task per dst fab runs that fab's descriptors in build order.
    // A task writes only its own fab, and reads only src cells no task
    // writes (valid cells of siblings for fillBoundary, a different const
    // MultiFab for parallelCopy), so the copies are thread-count
    // independent; where grown sources overlap (the coordinate gather)
    // the later descriptor still lands last.
    gpu::ParallelForIndex(numFabs(), [&](int f) {
        const auto fi = static_cast<std::size_t>(f);
        for (int c = pattern.dstStart[fi]; c < pattern.dstStart[fi + 1]; ++c) {
            const CopyDescriptor& d = pattern.copies[static_cast<std::size_t>(c)];
            if (verified && offRank(d)) continue;
            fabs_[fi].copyFrom(src.fab(d.srcFab), d.region, srcComp, destComp,
                               numComp, d.shift);
        }
    });
    if (!comm_) return;
    // The off-rank messages, in one serial pass in build order, so SimComm
    // sees the message stream a serial replay would send, byte for byte (a
    // dead rank raises RankFailure at the same message), and the injector
    // draws its decisions in message order. Verified, each payload lands
    // here through SimComm::sendVerified (CRC stamp, injected fault, NACK +
    // retransmit), after every on-rank copy of the call. That order shows
    // only where descriptors overlap, in the coordinate gather, whose
    // sources agree on every cell they share.
    const auto kind = p2p ? parallel::MessageKind::PointToPoint
                          : parallel::MessageKind::ParallelCopy;
    for (const CopyDescriptor& d : pattern.copies) {
        if (!offRank(d)) continue; // on-rank copies never hit the network
        const int srcRank = src.distributionMap()[d.srcFab];
        const int dstRank = dm_[d.dstFab];
        const std::int64_t bytes =
            d.npts * numComp * static_cast<std::int64_t>(sizeof(Real));
        if (!verified) {
            comm_->recordMessage(srcRank, dstRank, bytes, kind, tag);
            continue;
        }
        FArrayBox& to = fabs_[static_cast<std::size_t>(d.dstFab)];
        const FArrayBox& from = src.fab(d.srcFab);
        parallel::SimComm::Transfer t;
        t.src = srcRank;
        t.dst = dstRank;
        t.bytes = bytes;
        t.kind = kind;
        t.tag = tag;
        t.deliver = [&] {
            to.copyFrom(from, d.region, srcComp, destComp, numComp, d.shift);
        };
        t.payloadCrc = [&] {
            return regionCrc(from, d.region.shift(d.shift), srcComp, numComp);
        };
        t.deliveredCrc = [&] {
            return regionCrc(to, d.region, destComp, numComp);
        };
        t.scramble = [&](std::uint64_t w) {
            scrambleRegionBit(to, d.region, destComp, numComp, w);
        };
        comm_->sendVerified(t);
    }
}

namespace {

/// Check-build replay guard: a sampled cache hit re-derives the pattern and
/// requires it byte-identical to the cached descriptors — the invariant the
/// CommCache invalidation rules promise (docs/performance.md). A mismatch
/// means a stale pattern survived a layout change.
void verifyReplay(const CommPattern& cached, const CommPattern& rebuilt,
                  const char* what) {
    if (cached == rebuilt) return;
    std::ostringstream os;
    os << what << " cache replay diverges from re-derivation: cached "
       << cached.copies.size() << " copies (srcSize=" << cached.srcSize
       << ", dstSize=" << cached.dstSize << "), rebuilt "
       << rebuilt.copies.size() << " copies (srcSize=" << rebuilt.srcSize
       << ", dstSize=" << rebuilt.dstSize << ")";
    for (std::size_t c = 0;
         c < cached.copies.size() && c < rebuilt.copies.size(); ++c) {
        if (cached.copies[c] == rebuilt.copies[c]) continue;
        os << "; first differing descriptor at index " << c;
        break;
    }
    check::fail(check::Kind::CommCache, os.str());
}

} // namespace

CommPattern MultiFab::buildFillBoundaryPattern(
    const std::vector<IntVect>& shifts) const {
    CommPattern pattern;
    pattern.srcSize = pattern.dstSize = ba_.size();
    for (int i = 0; i < numFabs(); ++i) {
        // Ghost region of fab i = allocated box minus valid box.
        for (const Box& g : boxDiff(grownBox(i), ba_[i])) {
            for (const IntVect& s : shifts) {
                // A ghost cell at index p is filled from valid cell p + s
                // of a periodic image (s == 0 covers interior neighbors).
                for (const auto& [j, isect] : ba_.intersections(g.shift(s))) {
                    const Box dstRegion = isect.shift(-s);
                    pattern.copies.push_back(
                        {i, j, dstRegion, s, dstRegion.numPts()});
                }
            }
        }
    }
    pattern.indexByDst();
    return pattern;
}

void MultiFab::fillBoundary(const Geometry& geom) {
    const auto shifts = geom.periodicShifts();
    CommCache& cache = CommCache::instance();
    if (comm_) cache.noteCommSize(comm_->size());
    const CommCache::Key key{ba_.id(), ba_.id(), ngrow_, 0, hashShifts(shifts),
                             CommCache::FillBoundary};
    const bool cacheable = ba_.id() != 0;
    if (cacheable) {
        if (const CommPattern* pat = cache.lookup(key, ba_.size(), ba_.size())) {
            if (check::enabled && check::commGuardShouldVerify())
                verifyReplay(*pat, buildFillBoundaryPattern(shifts),
                             "FillBoundary");
            replay(*pat, *this, 0, 0, ncomp_, "FillBoundary", /*p2p=*/true);
            return;
        }
    }
    CommPattern pattern = buildFillBoundaryPattern(shifts);
    const CommPattern& stored =
        cacheable ? cache.insert(key, std::move(pattern)) : pattern;
    replay(stored, *this, 0, 0, ncomp_, "FillBoundary", /*p2p=*/true);
}

void MultiFab::parallelCopy(const MultiFab& src, int srcComp, int destComp,
                            int numComp, int dstNGrow, int srcNGrow,
                            const std::string& tag,
                            const Geometry* geomForPeriodicity) {
    // The replay's tasks read src while writing this MultiFab's fabs.
    assert(&src != this);
    assert(dstNGrow <= ngrow_ && srcNGrow <= src.nGrow());
    assert(srcComp + numComp <= src.nComp() && destComp + numComp <= ncomp_);
    std::vector<IntVect> shifts{IntVect::zero()};
    if (geomForPeriodicity) shifts = geomForPeriodicity->periodicShifts();
    CommCache& cache = CommCache::instance();
    if (comm_) cache.noteCommSize(comm_->size());
    const CommCache::Key key{src.boxArray().id(), ba_.id(), dstNGrow, srcNGrow,
                             hashShifts(shifts), CommCache::ParallelCopy};
    const bool cacheable = ba_.id() != 0 && src.boxArray().id() != 0;
    if (cacheable) {
        if (const CommPattern* pat =
                cache.lookup(key, src.boxArray().size(), ba_.size())) {
            if (check::enabled && check::commGuardShouldVerify())
                verifyReplay(
                    *pat,
                    buildParallelCopyPattern(src, dstNGrow, srcNGrow, shifts),
                    "ParallelCopy");
            replay(*pat, src, srcComp, destComp, numComp, tag, /*p2p=*/false);
            return;
        }
    }
    CommPattern pattern =
        buildParallelCopyPattern(src, dstNGrow, srcNGrow, shifts);
    const CommPattern& stored =
        cacheable ? cache.insert(key, std::move(pattern)) : pattern;
    replay(stored, src, srcComp, destComp, numComp, tag, /*p2p=*/false);
}

CommPattern MultiFab::buildParallelCopyPattern(
    const MultiFab& src, int dstNGrow, int srcNGrow,
    const std::vector<IntVect>& shifts) const {
    CommPattern pattern;
    pattern.srcSize = src.boxArray().size();
    pattern.dstSize = ba_.size();
    for (int i = 0; i < numFabs(); ++i) {
        const Box dstRegion = ba_[i].grow(dstNGrow);
        for (const IntVect& s : shifts) {
            // A dst cell at index p receives src cell p + s (s != 0
            // reaches across a periodic boundary into the domain image).
            // The hash query is over ungrown boxes, so widen it by
            // srcNGrow and re-intersect against the grown source box.
            for (const auto& [j, coarse] : src.boxArray().intersections(
                     dstRegion.shift(s).grow(srcNGrow))) {
                const Box isect =
                    src.boxArray()[j].grow(srcNGrow) & dstRegion.shift(s);
                if (!isect.ok()) continue;
                (void)coarse;
                pattern.copies.push_back(
                    {i, j, isect.shift(-s), s, isect.numPts()});
            }
        }
    }
    pattern.indexByDst();
    return pattern;
}

void MultiFab::mult(Real a, int comp, int numComp, int ngrow) {
    assert(comp + numComp <= ncomp_);
    assert(ngrow >= 0 && ngrow <= ngrow_);
    gpu::ParallelForIndex(numFabs(), [&](int i) {
        gpu::LaunchStats::add();
        auto arr = fabs_[i].array();
        for (int n = comp; n < comp + numComp; ++n)
            forEachCell(ba_[i].grow(ngrow), [&](int ii, int j, int k) {
                arr(ii, j, k, n) *= a;
            });
    });
}

void MultiFab::copy(MultiFab& dst, const MultiFab& src, int srcComp, int destComp,
                    int numComp, int ngrow) {
    assert(dst.boxArray() == src.boxArray());
    assert(ngrow <= dst.nGrow() && ngrow <= src.nGrow());
    gpu::ParallelForIndex(dst.numFabs(), [&](int i) {
        dst.fabs_[i].copyFrom(src.fab(i), dst.ba_[i].grow(ngrow), srcComp,
                              destComp, numComp);
    });
}

void MultiFab::saxpy(MultiFab& dst, Real a, const MultiFab& src, int srcComp,
                     int destComp, int numComp) {
    assert(dst.boxArray() == src.boxArray());
    gpu::ParallelForIndex(dst.numFabs(), [&](int i) {
        gpu::LaunchStats::add();
        dst.fabs_[i].saxpy(a, src.fab(i), dst.ba_[i], srcComp, destComp, numComp);
    });
}

// The reductions below compute one partial per fab (each fab's sweep is the
// serial Fortran-order loop) and combine the partials in fab-index order.
// The decomposition and the combination order depend only on the BoxArray,
// never on the thread count, so results are bitwise identical for every
// gpu.num_threads setting — the determinism contract of docs/performance.md.

Real MultiFab::min(int comp) const {
    std::vector<Real> partial(static_cast<std::size_t>(numFabs()),
                              std::numeric_limits<Real>::infinity());
    gpu::ParallelForIndex(numFabs(), [&](int i) {
        partial[static_cast<std::size_t>(i)] = fabs_[i].min(ba_[i], comp);
    });
    Real m = std::numeric_limits<Real>::infinity();
    for (Real p : partial) m = std::min(m, p);
    return m;
}

Real MultiFab::max(int comp) const {
    std::vector<Real> partial(static_cast<std::size_t>(numFabs()),
                              -std::numeric_limits<Real>::infinity());
    gpu::ParallelForIndex(numFabs(), [&](int i) {
        partial[static_cast<std::size_t>(i)] = fabs_[i].max(ba_[i], comp);
    });
    Real m = -std::numeric_limits<Real>::infinity();
    for (Real p : partial) m = std::max(m, p);
    return m;
}

Real MultiFab::sum(int comp) const {
    std::vector<Real> partial(static_cast<std::size_t>(numFabs()), 0.0);
    gpu::ParallelForIndex(numFabs(), [&](int i) {
        partial[static_cast<std::size_t>(i)] = fabs_[i].sum(ba_[i], comp);
    });
    Real s = 0.0;
    for (Real p : partial) s += p;
    return s;
}

Real MultiFab::norm2(int comp) const {
    std::vector<Real> partial(static_cast<std::size_t>(numFabs()), 0.0);
    gpu::ParallelForIndex(numFabs(), [&](int i) {
        auto a = const_array(i);
        Real p = 0.0;
        forEachCell(ba_[i], [&](int ii, int j, int k) {
            const Real v = a(ii, j, k, comp);
            p += v * v;
        });
        partial[static_cast<std::size_t>(i)] = p;
    });
    Real s = 0.0;
    for (Real p : partial) s += p;
    return std::sqrt(s);
}

Real MultiFab::l2Diff(const MultiFab& a, const MultiFab& b, int comp) {
    assert(a.boxArray() == b.boxArray());
    std::vector<Real> partial(static_cast<std::size_t>(a.numFabs()), 0.0);
    gpu::ParallelForIndex(a.numFabs(), [&](int i) {
        const Real d = FArrayBox::l2Diff(a.fab(i), b.fab(i), a.ba_[i], comp);
        partial[static_cast<std::size_t>(i)] = d * d;
    });
    Real s = 0.0;
    for (Real p : partial) s += p;
    return std::sqrt(s);
}

} // namespace crocco::amr
