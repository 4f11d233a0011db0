// Fault-tolerant communication (docs/resilience.md §5): every injected
// message fault must be detected by the hardened exchange and transparently
// recovered — or raised as a located error — and rank deaths must surface
// as RankFailure at the operations a real MPI run would hang in.
#include "parallel/CommFaults.hpp"
#include "parallel/SimComm.hpp"

#include "amr/FillPatch.hpp"
#include "amr/MultiFab.hpp"
#include "resilience/Crc32.hpp"

#include "FaultCampaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

namespace crocco::parallel {
namespace {

// ---------------------------------------------------------------- injector

std::vector<std::optional<MessageFault>> drawDecisions(CommFaults& f, int n) {
    std::vector<std::optional<MessageFault>> out;
    for (int i = 0; i < n; ++i) out.push_back(f.decide());
    return out;
}

TEST(CommFaults, SameSeedSameScheduleReproducesDecisions) {
    CommFaults::Rates r;
    r.drop = 0.2;
    r.duplicate = 0.1;
    r.delay = 0.1;
    r.corrupt = 0.2;
    CommFaults a(1234), b(1234);
    a.setRates(r);
    b.setRates(r);
    EXPECT_EQ(drawDecisions(a, 200), drawDecisions(b, 200));
    EXPECT_GT(a.stats().fired(), 0); // 60% fault rate over 200 draws
    EXPECT_EQ(a.stats().decisions, 200);
    // A different seed produces a different stream (vanishingly unlikely
    // to collide over 200 draws at these rates).
    CommFaults a2(1234), c(5678);
    a2.setRates(r);
    c.setRates(r);
    EXPECT_NE(drawDecisions(a2, 200), drawDecisions(c, 200));
}

TEST(CommFaults, RatesAreValidated) {
    CommFaults f;
    CommFaults::Rates r;
    r.drop = -0.1;
    EXPECT_THROW(f.setRates(r), std::invalid_argument);
    r.drop = 1.5;
    EXPECT_THROW(f.setRates(r), std::invalid_argument);
    r.drop = 0.6;
    r.corrupt = 0.6; // sum > 1
    EXPECT_THROW(f.setRates(r), std::invalid_argument);
    r.corrupt = 0.4; // sum == 1 is fine
    EXPECT_NO_THROW(f.setRates(r));
}

TEST(CommFaults, ArmedFaultHitsExactlyTheNthMessage) {
    CommFaults f; // zero rates: only the armed fault can fire
    f.armMessageFault(MessageFault::Corrupt, 2);
    EXPECT_FALSE(f.decide().has_value());
    EXPECT_FALSE(f.decide().has_value());
    const auto hit = f.decide();
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, MessageFault::Corrupt);
    EXPECT_FALSE(f.decide().has_value()); // one-shot
    EXPECT_EQ(f.stats().corruptions, 1);
}

TEST(CommFaults, RankDeathScheduleFiresOncePerStep) {
    CommFaults f;
    f.armRankDeath(5, 2);
    EXPECT_FALSE(f.takeRankDeath(4).has_value());
    const auto dead = f.takeRankDeath(5);
    ASSERT_TRUE(dead.has_value());
    EXPECT_EQ(*dead, 2);
    EXPECT_FALSE(f.takeRankDeath(5).has_value()); // consumed
    EXPECT_EQ(f.stats().rankDeaths, 1);
}

TEST(CommFaults, DisabledDecideConsumesNoRandomness) {
    // Enabling the injector mid-run must not shift the decision stream of
    // later messages relative to a run enabled from the same point.
    CommFaults::Rates r;
    r.drop = 0.5;
    CommFaults a(99), b(99);
    a.setRates(r);
    b.setRates(r);
    a.setEnabled(false);
    for (int i = 0; i < 7; ++i)
        EXPECT_FALSE(a.decide().has_value());
    a.setEnabled(true);
    EXPECT_EQ(drawDecisions(a, 50), drawDecisions(b, 50));
}

// --------------------------------------------------- hardened p2p transfer

/// One simulated wire: a sender-side buffer, a receiver-side buffer, and
/// the Transfer callbacks SimComm needs to damage and repair the payload.
struct Wire {
    std::vector<double> src;
    std::vector<double> dst;

    explicit Wire(int n) : src(n), dst(n, 0.0) {
        for (int i = 0; i < n; ++i) src[static_cast<std::size_t>(i)] = 1.5 * i;
    }

    SimComm::Transfer transfer(int s, int d, const std::string& tag) {
        SimComm::Transfer t;
        t.src = s;
        t.dst = d;
        t.bytes = static_cast<std::int64_t>(src.size() * sizeof(double));
        t.tag = tag;
        t.deliver = [this] { dst = src; };
        t.payloadCrc = [this] {
            return resilience::crc32(src.data(), src.size() * sizeof(double));
        };
        t.deliveredCrc = [this] {
            return resilience::crc32(dst.data(), dst.size() * sizeof(double));
        };
        t.scramble = [this](std::uint64_t word) {
            double& v = dst[word % dst.size()];
            std::uint64_t bits = 0;
            std::memcpy(&bits, &v, sizeof(bits));
            bits ^= std::uint64_t{1} << ((word >> 32) % 64u);
            std::memcpy(&v, &bits, sizeof(bits));
        };
        return t;
    }

    bool intact() const { return dst == src; }
};

TEST(HardenedExchange, RegionCrcEqualsThePerRealChain) {
    // regionCrc checksums whole i-runs (in buffer-sized pieces) where the
    // definition chains crc32 over each Real: the values must agree on
    // odd-shaped regions, runs longer than the buffer included.
    using amr::Box;
    using amr::IntVect;
    amr::FArrayBox fab(Box(IntVect{-3, -2, -1}, IntVect{137, 4, 3}), 3);
    auto a = fab.array();
    for (int n = 0; n < 3; ++n)
        amr::forEachCell(fab.box(), [&](int i, int j, int k) {
            a(i, j, k, n) = std::sin(0.37 * i + 1.3 * j - 0.71 * k + 2.1 * n);
        });
    const std::vector<Box> regions = {
        fab.box(),
        Box(IntVect{0, 0, 0}, IntVect{0, 0, 0}),
        Box(IntVect{5, -1, 0}, IntVect{69, 3, 2}),   // 65-cell runs
        Box(IntVect{-3, 1, -1}, IntVect{124, 1, 3}), // 128-cell runs
        Box(IntVect{7, -2, 2}, IntVect{9, 4, 2}),
    };
    for (const Box& r : regions) {
        for (const auto& [comp, ncomp] :
             std::vector<std::pair<int, int>>{{0, 3}, {1, 1}, {1, 2}}) {
            std::uint32_t chain = 0;
            for (int n = comp; n < comp + ncomp; ++n)
                amr::forEachCell(r, [&](int i, int j, int k) {
                    const amr::Real v = a(i, j, k, n);
                    chain = resilience::crc32(&v, sizeof(amr::Real), chain);
                });
            EXPECT_EQ(amr::regionCrc(fab, r, comp, ncomp), chain)
                << "region " << r << " comps " << comp << "+" << ncomp;
        }
    }
}

TEST(HardenedExchange, CleanTransferRecordsCrcStampedMessage) {
    SimComm comm(2);
    CommFaults faults;
    comm.attachFaults(&faults);
    Wire w(16);
    comm.sendVerified(w.transfer(0, 1, "FB"));
    EXPECT_TRUE(w.intact());
    ASSERT_EQ(comm.log().count(), 1u);
    EXPECT_EQ(comm.log().messages()[0].crc,
              resilience::crc32(w.src.data(), w.src.size() * sizeof(double)));
    EXPECT_EQ(faults.stats().decisions, 1);
    EXPECT_EQ(comm.log().summarize().retransmits, 0u);
}

TEST(HardenedExchange, DropTimesOutAndRetransmits) {
    SimComm comm(2);
    CommFaults faults;
    faults.armMessageFault(MessageFault::Drop, 0);
    comm.attachFaults(&faults);
    Wire w(16);
    comm.sendVerified(w.transfer(0, 1, "FB"));
    EXPECT_TRUE(w.intact()); // recovered transparently
    EXPECT_EQ(faults.stats().drops, 1);
    EXPECT_EQ(comm.log().summarize().retransmits, 1u);
    // Wire traffic: original transmission (lost but sent) + retransmit.
    ASSERT_EQ(comm.log().count(), 2u);
    EXPECT_EQ(comm.log().messages()[0].tag, "FB");
    EXPECT_EQ(comm.log().messages()[1].tag, "FB/rtx1");
    EXPECT_EQ(comm.log().messages()[1].crc, comm.log().messages()[0].crc);
}

TEST(HardenedExchange, DuplicateIsDiscardedBySequenceNumber) {
    SimComm comm(2);
    CommFaults faults;
    faults.armMessageFault(MessageFault::Duplicate, 0);
    comm.attachFaults(&faults);
    Wire w(16);
    comm.sendVerified(w.transfer(0, 1, "FB"));
    EXPECT_TRUE(w.intact());
    EXPECT_EQ(faults.stats().duplicates, 1);
    EXPECT_EQ(comm.log().summarize().duplicates, 1u);
    EXPECT_EQ(comm.log().summarize().retransmits, 0u); // no damage, no recovery
    // Both copies crossed the wire.
    ASSERT_EQ(comm.log().count(), 2u);
    EXPECT_EQ(comm.log().messages()[1].tag, "FB/dup");
    EXPECT_EQ(comm.log().messages()[1].bytes, comm.log().messages()[0].bytes);
}

TEST(HardenedExchange, DelayedPayloadLosesToTheRetransmit) {
    SimComm comm(2);
    CommFaults faults;
    faults.armMessageFault(MessageFault::Delay, 0);
    comm.attachFaults(&faults);
    Wire w(16);
    comm.sendVerified(w.transfer(0, 1, "FB"));
    EXPECT_TRUE(w.intact());
    EXPECT_EQ(faults.stats().delays, 1);
    const auto wire = comm.log().summarize();
    EXPECT_EQ(wire.retransmits, 1u);
    // The late original landed after the retransmit and was discarded: the
    // wire carried it once, before the retransmit, and no NACK.
    EXPECT_EQ(wire.messages, 2u);
    EXPECT_EQ(wire.nacks, 0u);
}

TEST(HardenedExchange, CorruptionIsCaughtByCrcAndNacked) {
    SimComm comm(2);
    CommFaults faults;
    faults.armMessageFault(MessageFault::Corrupt, 0);
    comm.attachFaults(&faults);
    Wire w(16);
    comm.sendVerified(w.transfer(0, 1, "FB"));
    EXPECT_TRUE(w.intact()); // retransmit repaired the flipped bit
    EXPECT_EQ(faults.stats().corruptions, 1);
    EXPECT_EQ(comm.log().summarize().nacks, 1u);
    EXPECT_EQ(comm.log().summarize().retransmits, 1u);
    // original, NACK (receiver -> sender, 8 B), retransmit
    ASSERT_EQ(comm.log().count(), 3u);
    const auto& nack = comm.log().messages()[1];
    EXPECT_EQ(nack.tag, "FB/nack");
    EXPECT_EQ(nack.src, 1);
    EXPECT_EQ(nack.dst, 0);
    EXPECT_EQ(nack.bytes, 8);
}

TEST(HardenedExchange, PersistentlyBrokenLinkExhaustsRetransmitBudget) {
    // Negative test: persistent mode re-faults every retransmit, so a
    // drop-rate-1.0 link can never deliver and the exchange must fail
    // loudly with a located error instead of pretending success.
    SimComm comm(2);
    CommFaults faults;
    CommFaults::Rates r;
    r.drop = 1.0;
    faults.setRates(r);
    faults.setPersistent(true);
    comm.attachFaults(&faults);
    Wire w(16);
    try {
        comm.sendVerified(w.transfer(0, 1, "FB"));
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("undeliverable"), std::string::npos) << msg;
        EXPECT_NE(msg.find("0 -> 1"), std::string::npos) << msg;
        EXPECT_NE(msg.find("FB"), std::string::npos) << msg;
        EXPECT_NE(msg.find("after " + std::to_string(SimComm::kMaxRetransmits) +
                           " retransmits"),
                  std::string::npos)
            << msg;
    }
    EXPECT_EQ(comm.log().summarize().retransmits,
              static_cast<std::size_t>(SimComm::kMaxRetransmits));
    EXPECT_FALSE(w.intact());
}

TEST(HardenedExchange, VerificationWithoutInjectorCatchesRealCorruption) {
    // Damage the injector did not cause is caught whenever the verified
    // path runs: with no injector attached, a payload scribbled between
    // CRC and check is caught and repaired.
    SimComm comm(2);
    Wire w(16);
    auto t = w.transfer(0, 1, "FB");
    bool first = true;
    t.deliver = [&w, &first] {
        w.dst = w.src;
        if (first) { // one-shot in-flight damage
            w.dst[3] += 1.0;
            first = false;
        }
    };
    comm.sendVerified(t);
    EXPECT_TRUE(w.intact());
    EXPECT_EQ(comm.log().summarize().nacks, 1u);
    EXPECT_EQ(comm.log().summarize().retransmits, 1u);
}

TEST(HardenedExchange, OnRankTransferBypassesTheWire) {
    SimComm comm(2);
    CommFaults faults;
    comm.attachFaults(&faults);
    Wire w(8);
    comm.sendVerified(w.transfer(1, 1, "local"));
    EXPECT_TRUE(w.intact());
    EXPECT_EQ(comm.log().count(), 0u);
    EXPECT_EQ(faults.stats().decisions, 0);
}

// --------------------------------------------------- rank death and shrink

TEST(RankDeath, OperationsTouchingTheDeadRankRaiseRankFailure) {
    SimComm comm(3);
    comm.killRank(1);
    EXPECT_FALSE(comm.rankAlive(1));
    EXPECT_EQ(comm.aliveCount(), 2);
    try {
        comm.recordMessage(0, 1, 8, MessageKind::PointToPoint, "FB");
        FAIL() << "expected RankFailure";
    } catch (const RankFailure& e) {
        EXPECT_EQ(e.deadRank(), 1);
    }
    // Collectives touch every rank.
    EXPECT_THROW(comm.reduceRealMin({1.0, 2.0, 3.0}, "dt"), RankFailure);
    // Survivors can still talk to each other.
    EXPECT_NO_THROW(comm.recordMessage(0, 2, 8, MessageKind::PointToPoint, "FB"));
}

TEST(RankDeath, KillRankValidatesItsTarget) {
    SimComm comm(2);
    EXPECT_THROW(comm.killRank(-1), std::invalid_argument);
    EXPECT_THROW(comm.killRank(2), std::invalid_argument);
    comm.killRank(0);
    EXPECT_THROW(comm.killRank(0), std::invalid_argument); // already dead
    EXPECT_THROW(comm.killRank(1), std::logic_error); // no survivor left
    SimComm solo(1);
    EXPECT_THROW(solo.killRank(0), std::logic_error);
}

TEST(RankDeath, ShrinkRenumbersSurvivors) {
    SimComm comm(4);
    comm.killRank(1);
    const auto map = comm.shrink();
    ASSERT_EQ(map.size(), 4u);
    EXPECT_EQ(map[0], 0);
    EXPECT_EQ(map[1], -1);
    EXPECT_EQ(map[2], 1);
    EXPECT_EQ(map[3], 2);
    EXPECT_EQ(comm.size(), 3);
    EXPECT_EQ(comm.aliveCount(), 3);
    EXPECT_FALSE(comm.anyDead());
    // The shrunken communicator is fully operational.
    EXPECT_NO_THROW(comm.recordMessage(0, 2, 8, MessageKind::PointToPoint, "FB"));
    EXPECT_DOUBLE_EQ(comm.reduceRealMin({1.0, 2.0, 3.0}, "t"), 1.0);
}

// ----------------------------------------- MultiFab exchange under faults

double field(int i, int j, int k, int n) {
    return n + std::sin(0.7 * i + 1.3 * j + 2.1 * k);
}

std::vector<amr::Box> tiledBoxes(const amr::Box& domain, int size) {
    std::vector<amr::Box> out;
    amr::forEachCell(domain.coarsen(size), [&](int i, int j, int k) {
        const amr::IntVect lo = amr::IntVect{i, j, k} * size;
        out.emplace_back(lo, lo + amr::IntVect(size - 1));
    });
    return out;
}

void fillField(amr::MultiFab& mf) {
    for (int f = 0; f < mf.numFabs(); ++f) {
        auto a = mf.array(f);
        for (int n = 0; n < mf.nComp(); ++n)
            amr::forEachCell(mf.validBox(f), [&](int i, int j, int k) {
                a(i, j, k, n) = field(i, j, k, n);
            });
    }
}

TEST(MultiFabFaults, GhostExchangeRecoversEveryInjectedFault) {
    const amr::Box domain(amr::IntVect::zero(), amr::IntVect(15));
    const amr::Geometry geom(domain, {0, 0, 0}, {1, 1, 1},
                             amr::Periodicity::all());
    amr::BoxArray ba(tiledBoxes(domain, 4));
    amr::DistributionMapping dm(ba, 4);

    SimComm clean(4), faulty(4);
    CommFaults faults(777);
    CommFaults::Rates r;
    r.drop = 0.15;
    r.duplicate = 0.1;
    r.delay = 0.1;
    r.corrupt = 0.15;
    faults.setRates(r);
    faulty.attachFaults(&faults);

    amr::MultiFab ref(ba, dm, 2, 2, &clean);
    amr::MultiFab mf(ba, dm, 2, 2, &faulty);
    fillField(ref);
    fillField(mf);
    ref.fillBoundary(geom);
    mf.fillBoundary(geom);

    // Half the messages were faulted, yet every ghost cell is bitwise
    // identical to the fault-free exchange.
    EXPECT_GT(faults.stats().fired(), 0);
    testing::expectWireAccountsForInjectedFaults(faulty.log(), faults.stats());
    for (int f = 0; f < ref.numFabs(); ++f) {
        auto a = ref.const_array(f);
        auto b = mf.const_array(f);
        for (int n = 0; n < 2; ++n)
            amr::forEachCell(ref.grownBox(f), [&](int i, int j, int k) {
                ASSERT_EQ(a(i, j, k, n), b(i, j, k, n))
                    << "fab " << f << " (" << i << "," << j << "," << k << ")";
            });
    }
}

TEST(MultiFabFaults, VerificationOffKeepsTheMessageStreamByteIdentical) {
    // The acceptance gate for the seed path: with no injector attached, the
    // hardened code must record exactly the stream the unhardened
    // implementation recorded — same order, same fields, crc 0. Attaching
    // an injector that never faults turns verification on: the same
    // stream, crc-stamped, with no extra traffic.
    const amr::Box domain(amr::IntVect::zero(), amr::IntVect(15));
    const amr::Geometry geom(domain, {0, 0, 0}, {1, 1, 1},
                             amr::Periodicity::all());
    amr::BoxArray ba(tiledBoxes(domain, 4));
    amr::DistributionMapping dm(ba, 4);

    auto exchange = [&](SimComm& comm) {
        amr::MultiFab mf(ba, dm, 2, 2, &comm);
        fillField(mf);
        mf.fillBoundary(geom);
        return comm.log().messages();
    };

    SimComm off(4), on(4);
    CommFaults zeroRate;
    on.attachFaults(&zeroRate);
    const auto plain = exchange(off);
    const auto verified = exchange(on);

    ASSERT_GT(plain.size(), 0u);
    ASSERT_EQ(plain.size(), verified.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i].src, verified[i].src);
        EXPECT_EQ(plain[i].dst, verified[i].dst);
        EXPECT_EQ(plain[i].bytes, verified[i].bytes);
        EXPECT_EQ(plain[i].kind, verified[i].kind);
        EXPECT_EQ(plain[i].tag, verified[i].tag);
        EXPECT_EQ(plain[i].crc, 0u); // seed stream untouched
        EXPECT_NE(verified[i].crc, 0u);
    }
    EXPECT_EQ(zeroRate.stats().decisions,
              static_cast<std::int64_t>(verified.size()));
    EXPECT_EQ(on.log().summarize().retransmits, 0u);
}

TEST(MultiFabFaults, AverageDownShipsThroughTheVerifiedExchange) {
    // AverageDown restricts on the fine ranks and ships the result with
    // parallelCopy, so its payloads cross the CRC-verified exchange: an
    // armed corruption and drop are repaired, and the coarse data is the
    // injector-free result bit for bit. Fine boxes start 4 fine cells off
    // the coarse tiling, so coarsened fine boxes straddle coarse boxes.
    const amr::IntVect ratio(2);
    const amr::BoxArray cba(
        tiledBoxes(amr::Box(amr::IntVect::zero(), amr::IntVect(15)), 8));
    std::vector<amr::Box> fineBoxes;
    amr::forEachCell(amr::Box(amr::IntVect::zero(), amr::IntVect(2)),
                     [&](int i, int j, int k) {
                         const amr::IntVect lo =
                             amr::IntVect(4) + amr::IntVect{i, j, k} * 8;
                         fineBoxes.emplace_back(lo, lo + amr::IntVect(7));
                     });
    const amr::BoxArray fba(fineBoxes);
    const amr::DistributionMapping cdm(cba, 2), fdm(fba, 2);

    SimComm clean(2), faulty(2);
    CommFaults faults(2026);
    faults.armMessageFault(MessageFault::Corrupt, 0);
    faults.armMessageFault(MessageFault::Drop, 1);
    faulty.attachFaults(&faults);
    auto averageDown = [&](SimComm& comm) {
        amr::MultiFab fine(fba, fdm, 3, 1, &comm);
        amr::MultiFab crse(cba, cdm, 3, 1, &comm);
        fillField(fine);
        crse.setVal(-1.0);
        amr::AverageDown(fine, crse, ratio, 0, 0, 3);
        return crse;
    };
    const amr::MultiFab ref = averageDown(clean);
    const amr::MultiFab got = averageDown(faulty);

    EXPECT_EQ(faults.stats().corruptions, 1);
    EXPECT_EQ(faults.stats().drops, 1);
    testing::expectWireAccountsForInjectedFaults(faulty.log(), faults.stats());
    for (int f = 0; f < ref.numFabs(); ++f) {
        auto a = ref.const_array(f);
        auto b = got.const_array(f);
        for (int n = 0; n < 3; ++n)
            amr::forEachCell(ref.validBox(f), [&](int i, int j, int k) {
                ASSERT_EQ(std::memcmp(&a(i, j, k, n), &b(i, j, k, n),
                                      sizeof(amr::Real)),
                          0)
                    << "fab " << f << " (" << i << "," << j << "," << k << ")";
            });
    }

    // Every record is AverageDown's, CRC-stamped and a ParallelCopy; the
    // originals are one message per off-rank (coarse, fine) overlap.
    using Shipment = std::tuple<int, int, std::int64_t>;
    std::vector<Shipment> shipped, overlaps;
    for (const Message& m : faulty.log().messages()) {
        EXPECT_EQ(m.tag.rfind("AverageDown", 0), 0u) << m.tag;
        EXPECT_EQ(m.kind, MessageKind::ParallelCopy) << m.tag;
        EXPECT_NE(m.crc, 0u) << m.tag;
        if (m.tag == "AverageDown") shipped.emplace_back(m.src, m.dst, m.bytes);
    }
    for (int ci = 0; ci < cba.size(); ++ci)
        for (int fj = 0; fj < fba.size(); ++fj) {
            const amr::Box overlap = cba[ci] & fba[fj].coarsen(ratio);
            if (!overlap.ok() || fdm[fj] == cdm[ci]) continue;
            overlaps.emplace_back(fdm[fj], cdm[ci],
                                  overlap.numPts() * 3 *
                                      static_cast<std::int64_t>(sizeof(amr::Real)));
        }
    std::sort(shipped.begin(), shipped.end());
    std::sort(overlaps.begin(), overlaps.end());
    EXPECT_GE(overlaps.size(), 2u);
    EXPECT_EQ(shipped, overlaps);
}

} // namespace
} // namespace crocco::parallel
