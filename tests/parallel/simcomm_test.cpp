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
