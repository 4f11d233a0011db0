#pragma once

#include "parallel/CommFaults.hpp"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace crocco::parallel {

/// Classification of recorded traffic. Mirrors the communication the paper
/// profiles: point-to-point ghost exchange (FillBoundary), the global
/// ParallelCopy inside the curvilinear interpolator, and the ReduceRealMin
/// in ComputeDt.
enum class MessageKind { PointToPoint, ParallelCopy, Reduction };

struct Message {
    int src = 0;
    int dst = 0;
    std::int64_t bytes = 0;
    MessageKind kind = MessageKind::PointToPoint;
    std::string tag;
    /// CRC32 of the payload when the message went through the verified
    /// exchange path; 0 on the plain (unverified) path, so the recorded
    /// stream of a verification-off run is unchanged from the seed.
    std::uint32_t crc = 0;
};

/// Record of every inter-rank message generated by the in-process MPI
/// simulation. The machine model replays these against the Summit network
/// model; tests use the aggregate queries.
class CommLog {
public:
    void record(Message m);
    void clear() { messages_.clear(); }
    void setEnabled(bool e) { enabled_ = e; }
    bool enabled() const { return enabled_; }

    const std::vector<Message>& messages() const { return messages_; }
    std::size_t count() const { return messages_.size(); }
    std::size_t count(MessageKind k) const;
    std::int64_t totalBytes() const;
    std::int64_t totalBytes(MessageKind k) const;

    /// Bytes sent+received per rank (size nranks); the per-iteration
    /// communication time is governed by the busiest rank.
    std::vector<std::int64_t> bytesPerRank(int nranks) const;

    /// Aggregate view of one slice of the log (messages [fromIndex, end)),
    /// e.g. one step's traffic from a count() mark taken before it. Fault
    /// traffic is classified by the tag suffixes the hardened exchange
    /// appends ("/rtxN", "/nack", "/dup").
    struct Summary {
        std::size_t messages = 0;    ///< everything, fault traffic included
        std::int64_t bytes = 0;      ///< payload bytes of those messages
        std::size_t p2p = 0;         ///< kind == PointToPoint
        std::size_t parallelCopy = 0;///< kind == ParallelCopy
        std::size_t reductions = 0;  ///< kind == Reduction
        std::size_t retransmits = 0; ///< tag contains "/rtx"
        std::size_t nacks = 0;       ///< tag ends in "/nack"
        std::size_t duplicates = 0;  ///< tag ends in "/dup"
    };

    /// Summarize the log from `fromIndex` (a count() snapshot taken at the
    /// start of the step) to the current end.
    Summary summarize(std::size_t fromIndex = 0) const;

private:
    std::vector<Message> messages_;
    bool enabled_ = true;
};

/// In-process stand-in for an MPI communicator.
///
/// All "ranks" live in this process, so data movement is a memory copy; what
/// this class provides is the *bookkeeping* an MPI run would have — rank
/// count, ownership checks, and a log of every message that would have
/// crossed the network. Collective results are therefore exact (no real
/// nondeterminism), and the paper's communication structure is preserved
/// for the performance model.
///
/// Fault tolerance (docs/resilience.md §5): an attached CommFaults injector
/// drops, duplicates, delays or bit-flips verified transfers, and schedules
/// rank deaths. The hardened exchange (sendVerified) checksums every
/// payload with CRC32, NACKs corruption, and retransmits with exponential
/// backoff until the payload lands intact — or raises a located error
/// after maxRetransmits(). Dead ranks are detected at the first operation
/// touching them as RankFailure; shrink() then rebuilds the communicator
/// over the survivors, ULFM-style. With no injector attached and
/// verification off, every code path below is byte-identical to the
/// unhardened implementation.
class SimComm {
public:
    explicit SimComm(int nranks = 1);

    int size() const { return nranks_; }
    CommLog& log() { return log_; }
    const CommLog& log() const { return log_; }

    /// Record a point-to-point message (no-op when src == dst: local copy).
    void recordP2P(int src, int dst, std::int64_t bytes, const std::string& tag);

    /// Record one message of the given kind between two ranks.
    void recordMessage(int src, int dst, std::int64_t bytes, MessageKind kind,
                       const std::string& tag);

    /// Global min-reduction over one value per rank; logs the collective.
    /// Mirrors amrex::ParallelDescriptor::ReduceRealMin used by ComputeDt.
    /// `perRank` must hold exactly size() entries; throws
    /// std::invalid_argument otherwise (as do the Max/Sum variants).
    double reduceRealMin(const std::vector<double>& perRank, const std::string& tag);
    double reduceRealMax(const std::vector<double>& perRank, const std::string& tag);
    double reduceRealSum(const std::vector<double>& perRank, const std::string& tag);

    /// --- Fault-tolerant exchange (hardened path) -----------------------

    /// Attach a message-fault injector; non-owning, nullptr detaches.
    void attachFaults(CommFaults* f) { faults_ = f; }
    CommFaults* faults() const { return faults_; }

    /// Receive timeout in (modeled) seconds: how long a receiver waits for
    /// a payload before declaring it lost and requesting a retransmit.
    /// Deck key `comm.timeout`; also the base of the exponential backoff
    /// charged to FaultStats::modeledDelaySeconds.
    void setTimeout(double seconds);
    double timeout() const { return timeoutSeconds_; }

    /// Retransmits attempted per message before the exchange gives up and
    /// throws (deck key `comm.max_retransmits`).
    void setMaxRetransmits(int n);
    int maxRetransmits() const { return maxRetransmits_; }

    /// CRC-verify every transfer routed through the hardened entry points
    /// even without an injector attached (deck key `comm.verify`). An
    /// attached injector implies verification.
    void setVerifyExchanges(bool v) { verifyExchanges_ = v; }
    bool exchangeVerification() const {
        return verifyExchanges_ || faults_ != nullptr;
    }

    /// One verified payload transfer: the callbacks give SimComm access to
    /// the real data movement so injected faults damage (and recovery
    /// repairs) the actual payload, not just the bookkeeping.
    struct Transfer {
        int src = 0;
        int dst = 0;
        std::int64_t bytes = 0;
        MessageKind kind = MessageKind::PointToPoint;
        std::string tag;
        /// Perform the payload copy (idempotent; re-run on retransmit).
        std::function<void()> deliver;
        /// CRC32 of the payload at the sender (computed before transfer).
        std::function<std::uint32_t()> payloadCrc;
        /// CRC32 of the delivered payload at the receiver.
        std::function<std::uint32_t()> deliveredCrc;
        /// Flip one payload bit in the delivered data (in-flight
        /// corruption); the word seeds the bit choice deterministically.
        std::function<void(std::uint64_t)> scramble;
    };

    /// Blocking verified transfer: record the message (CRC-stamped),
    /// deliver the payload through the fault injector, verify, and NACK +
    /// retransmit with exponential backoff until the payload arrives
    /// intact. Throws RankFailure on a dead endpoint and std::runtime_error
    /// (located: src, dst, tag) when maxRetransmits() is exhausted.
    void sendVerified(const Transfer& t);

    /// Counters of the hardened exchange (process of docs/resilience.md §5).
    struct FaultStats {
        std::int64_t verified = 0;      ///< transfers through the hardened path
        std::int64_t delivered = 0;     ///< payloads accepted intact
        std::int64_t dropped = 0;       ///< payloads lost in flight
        std::int64_t duplicated = 0;    ///< payloads delivered twice
        std::int64_t delayed = 0;       ///< payloads late past the timeout
        std::int64_t corrupted = 0;     ///< payload bit flips injected
        std::int64_t crcFailures = 0;   ///< CRC mismatches detected
        std::int64_t nacks = 0;         ///< corruption NACKs sent
        std::int64_t timeouts = 0;      ///< receive timeouts fired
        std::int64_t retransmits = 0;   ///< retransmissions performed
        std::int64_t duplicateDiscards = 0; ///< sequence-number discards
        /// Modeled seconds lost to detection latency (timeout waits plus
        /// exponential backoff); feeds machine/FailureModel calibration.
        double modeledDelaySeconds = 0.0;
    };
    const FaultStats& faultStats() const { return fstats_; }
    void resetFaultStats() { fstats_ = {}; }

    /// --- Rank failure and recovery (ULFM-style) ------------------------

    /// Mark a rank dead. Every later operation touching it raises
    /// RankFailure until shrink() removes it. Throws
    /// std::invalid_argument on an unknown/already-dead rank and
    /// std::logic_error when the death would leave no survivors.
    void killRank(int rank);
    bool rankAlive(int rank) const;
    int aliveCount() const;
    bool anyDead() const { return anyDead_; }

    /// Rebuild the communicator over the surviving ranks (the analogue of
    /// MPIX_Comm_shrink): survivors are renumbered densely preserving
    /// order and size() drops. Returns the old-rank -> new-rank map, -1
    /// for dead ranks.
    std::vector<int> shrink();

private:
    void checkAlive(int rank, const char* what) const;
    /// sendVerified's detect-and-retransmit loop: charges the timeout
    /// backoff, records the retransmit messages, and re-delivers until the
    /// CRC matches. `delivered` tells whether the first transmission
    /// already landed payload bytes.
    void recoverTransfer(const Transfer& t, std::uint32_t wantCrc,
                         bool delivered);

    int nranks_;
    CommLog log_;

    CommFaults* faults_ = nullptr;
    bool verifyExchanges_ = false;
    double timeoutSeconds_ = 30.0;
    int maxRetransmits_ = 4;
    FaultStats fstats_;
    std::vector<bool> alive_;
    bool anyDead_ = false;
};

} // namespace crocco::parallel
