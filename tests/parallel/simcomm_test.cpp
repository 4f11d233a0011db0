#include "parallel/SimComm.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace crocco::parallel {
namespace {

TEST(SimComm, ReductionsReturnExactResults) {
    SimComm comm(4);
    EXPECT_DOUBLE_EQ(comm.reduceRealMin({3.0, 1.0, 2.0, 9.0}, "t"), 1.0);
    EXPECT_DOUBLE_EQ(comm.reduceRealMax({3.0, 1.0, 2.0, 9.0}, "t"), 9.0);
    EXPECT_DOUBLE_EQ(comm.reduceRealSum({1.0, 2.0, 3.0, 4.0}, "t"), 10.0);
}

TEST(SimComm, ReductionsRejectWrongSizedPerRankVector) {
    // A silently-wrong reduction (empty vector, or one value per box
    // instead of per rank) is a classic MPI bug; the guard must name the
    // operation, the tag, and both sizes.
    SimComm comm(4);
    EXPECT_THROW(comm.reduceRealMin({}, "dt"), std::invalid_argument);
    EXPECT_THROW(comm.reduceRealMax({1.0, 2.0}, "t"), std::invalid_argument);
    EXPECT_THROW(comm.reduceRealSum(std::vector<double>(5, 1.0), "t"),
                 std::invalid_argument);
    try {
        comm.reduceRealMin(std::vector<double>(3, 1.0), "compute_dt");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("reduceRealMin"), std::string::npos) << msg;
        EXPECT_NE(msg.find("compute_dt"), std::string::npos) << msg;
        EXPECT_NE(msg.find("3"), std::string::npos) << msg;
        EXPECT_NE(msg.find("4"), std::string::npos) << msg;
    }
    // Failed reductions log no traffic.
    EXPECT_EQ(comm.log().count(), 0u);
    // A single-rank "communicator" still accepts its one entry.
    SimComm solo(1);
    EXPECT_DOUBLE_EQ(solo.reduceRealSum({2.5}, "t"), 2.5);
}

TEST(SimComm, ReductionLogsTreeTraffic) {
    SimComm comm(8);
    comm.reduceRealMin(std::vector<double>(8, 1.0), "dt");
    // A binomial reduction over P ranks moves P-1 payloads.
    EXPECT_EQ(comm.log().count(MessageKind::Reduction), 7u);
    EXPECT_EQ(comm.log().totalBytes(MessageKind::Reduction), 7 * 8);
}

TEST(SimComm, P2POnRankIsFree) {
    SimComm comm(2);
    comm.recordP2P(0, 0, 100, "local");
    EXPECT_EQ(comm.log().count(), 0u);
    comm.recordP2P(0, 1, 100, "remote");
    EXPECT_EQ(comm.log().count(MessageKind::PointToPoint), 1u);
}

TEST(CommLog, AggregatesByKindAndRank) {
    CommLog log;
    log.record({0, 1, 100, MessageKind::PointToPoint, "a"});
    log.record({1, 2, 50, MessageKind::ParallelCopy, "b"});
    log.record({2, 0, 25, MessageKind::ParallelCopy, "b"});
    EXPECT_EQ(log.count(), 3u);
    EXPECT_EQ(log.totalBytes(), 175);
    EXPECT_EQ(log.totalBytes(MessageKind::ParallelCopy), 75);
    const auto per = log.bytesPerRank(3);
    EXPECT_EQ(per[0], 125); // sent 100 + received 25
    EXPECT_EQ(per[1], 150);
    EXPECT_EQ(per[2], 75);
}

TEST(SimComm, NonblockingSendsCommitAtWaitallInPostingOrder) {
    // The async fillBoundary contract: isend records nothing until waitall,
    // and waitall commits in the order requests are passed — so the logged
    // message stream is byte-identical to the blocking recordMessage path.
    SimComm comm(4);
    std::vector<SimComm::Request> reqs;
    reqs.push_back(comm.isend(0, 1, 100, MessageKind::PointToPoint, "FB"));
    reqs.push_back(comm.isend(2, 3, 200, MessageKind::PointToPoint, "FB"));
    reqs.push_back(comm.irecv(0, 1, "FB"));
    reqs.push_back(comm.irecv(2, 3, "FB"));
    EXPECT_EQ(comm.log().count(), 0u); // nothing visible before completion
    EXPECT_EQ(comm.pendingCount(), 4u);
    comm.waitall(reqs);
    EXPECT_EQ(comm.pendingCount(), 0u);
    ASSERT_EQ(comm.log().count(), 2u);
    const auto& msgs = comm.log().messages();
    EXPECT_EQ(msgs[0].src, 0);
    EXPECT_EQ(msgs[0].dst, 1);
    EXPECT_EQ(msgs[0].bytes, 100);
    EXPECT_EQ(msgs[0].tag, "FB");
    EXPECT_EQ(msgs[1].src, 2);
    EXPECT_EQ(msgs[1].bytes, 200);
}

TEST(SimComm, NonblockingMatchesBlockingMessageStream) {
    SimComm blocking(3), async(3);
    blocking.recordMessage(0, 1, 64, MessageKind::PointToPoint, "FillBoundary");
    blocking.recordMessage(1, 2, 32, MessageKind::PointToPoint, "FillBoundary");
    std::vector<SimComm::Request> reqs;
    reqs.push_back(async.isend(0, 1, 64, MessageKind::PointToPoint, "FillBoundary"));
    reqs.push_back(async.isend(1, 2, 32, MessageKind::PointToPoint, "FillBoundary"));
    async.waitall(reqs);
    const auto& a = blocking.log().messages();
    const auto& b = async.log().messages();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].src, b[i].src);
        EXPECT_EQ(a[i].dst, b[i].dst);
        EXPECT_EQ(a[i].bytes, b[i].bytes);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].tag, b[i].tag);
    }
}

TEST(SimComm, WaitallRejectsUnknownAndCompletedRequests) {
    SimComm comm(2);
    const auto r = comm.isend(0, 1, 8, MessageKind::PointToPoint, "t");
    comm.waitall({r});
    EXPECT_THROW(comm.waitall({r}), std::logic_error);   // already completed
    EXPECT_THROW(comm.waitall({999}), std::logic_error); // never posted
}

TEST(SimComm, UnmatchedReceiveDiagnosesTheHang) {
    // A receive with no matching send would hang a real MPI_Waitall; the
    // simulation turns that into an immediate located failure.
    SimComm comm(2);
    const auto r = comm.irecv(0, 1, "FillBoundary");
    EXPECT_THROW(comm.waitall({r}), std::logic_error);
    // Matched across waitall calls is fine: send committed first.
    SimComm ok(2);
    const auto s = ok.isend(0, 1, 8, MessageKind::PointToPoint, "FB");
    ok.waitall({s});
    const auto r2 = ok.irecv(0, 1, "FB");
    EXPECT_NO_THROW(ok.waitall({r2}));
}

TEST(CommLog, SummaryCountsKindsBytesAndFaultTraffic) {
    CommLog log;
    log.record({0, 1, 100, MessageKind::PointToPoint, "FB", 7});
    log.record({1, 2, 50, MessageKind::ParallelCopy, "PC", 0});
    log.record({0, 1, 100, MessageKind::PointToPoint, "FB/rtx1", 7});
    log.record({1, 0, 8, MessageKind::PointToPoint, "FB/nack", 7});
    log.record({0, 1, 100, MessageKind::PointToPoint, "FB/dup", 7});
    log.record({0, 2, 30, MessageKind::Reduction, "ComputeDt", 0});

    const auto s = log.summarize();
    EXPECT_EQ(s.messages, 6u);
    EXPECT_EQ(s.bytes, 388);
    EXPECT_EQ(s.p2p, 4u);
    EXPECT_EQ(s.parallelCopy, 1u);
    EXPECT_EQ(s.reductions, 1u);
    EXPECT_EQ(s.retransmits, 1u);
    EXPECT_EQ(s.nacks, 1u);
    EXPECT_EQ(s.duplicates, 1u);

    // fromIndex slices a step's traffic out of the cumulative log.
    const auto tail = log.summarize(5);
    EXPECT_EQ(tail.messages, 1u);
    EXPECT_EQ(tail.reductions, 1u);
    EXPECT_EQ(tail.bytes, 30);

    const std::string line = CommLog::formatSummary(s);
    EXPECT_NE(line.find("msgs=6"), std::string::npos) << line;
    EXPECT_NE(line.find("bytes=388"), std::string::npos) << line;
    EXPECT_NE(line.find("p2p=4"), std::string::npos) << line;
    EXPECT_NE(line.find("pc=1"), std::string::npos) << line;
    EXPECT_NE(line.find("red=1"), std::string::npos) << line;
    EXPECT_NE(line.find("rtx=1"), std::string::npos) << line;
    EXPECT_NE(line.find("nack=1"), std::string::npos) << line;
    EXPECT_NE(line.find("dup=1"), std::string::npos) << line;
}

TEST(CommLog, DisableSuppressesRecording) {
    CommLog log;
    log.setEnabled(false);
    log.record({0, 1, 10, MessageKind::PointToPoint, "x"});
    EXPECT_EQ(log.count(), 0u);
    log.setEnabled(true);
    log.record({0, 1, 10, MessageKind::PointToPoint, "x"});
    EXPECT_EQ(log.count(), 1u);
}

} // namespace
} // namespace crocco::parallel
