#pragma once

#include "parallel/CommFaults.hpp"

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
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
    /// exchange path; 0 on the plain path, so the recorded stream of a run
    /// with no fault injector attached is unchanged from the seed.
    std::uint32_t crc = 0;
};

/// Record of every inter-rank message generated by the in-process MPI
/// simulation: what crossed the wire, fault traffic included. Tests and
/// dmrbench read it through summarize(); the machine model does not read
/// it (ScalingSimulator derives its message counts from BoxArrays).
class CommLog {
public:
    void record(Message m) { messages_.push_back(std::move(m)); }
    void clear() { messages_.clear(); }

    const std::vector<Message>& messages() const { return messages_; }
    std::size_t count() const { return messages_.size(); }

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
/// drops, duplicates, delays or bit-flips transfers, and schedules rank
/// deaths. Attaching one is the only switch: exactly while an injector is
/// attached, MultiFab routes every off-rank FillBoundary and ParallelCopy
/// payload through the hardened exchange (sendVerified), which checksums
/// it with CRC32, NACKs corruption, and retransmits until the payload
/// lands intact — or raises a located error after kMaxRetransmits. Dead
/// ranks are detected at the first operation touching them as
/// RankFailure; shrink() then rebuilds the communicator over the
/// survivors, ULFM-style. What crossed the wire is read from log(), what
/// was injected from CommFaults::stats(). With no injector attached, the
/// recorded stream is byte-identical to the unhardened implementation.
class SimComm {
public:
    /// Retransmits attempted per message before the hardened exchange
    /// gives up and throws.
    static constexpr int kMaxRetransmits = 4;

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
    /// std::invalid_argument otherwise.
    double reduceRealMin(const std::vector<double>& perRank, const std::string& tag);

    /// --- Fault-tolerant exchange (hardened path) -----------------------

    /// Attach a message-fault injector; non-owning, nullptr detaches. An
    /// attached injector turns the verified exchange on.
    void attachFaults(CommFaults* f) { faults_ = f; }
    CommFaults* faults() const { return faults_; }

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
    /// deliver the payload through the fault injector (if one is
    /// attached), verify, and NACK + retransmit until the payload arrives
    /// intact. Throws RankFailure on a dead endpoint and std::runtime_error
    /// (located: src, dst, tag, retransmits tried) when kMaxRetransmits is
    /// exhausted.
    void sendVerified(const Transfer& t);

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
    /// sendVerified's detect-and-retransmit loop: records the retransmit
    /// messages and re-delivers until the CRC matches. `delivered` tells
    /// whether the first transmission already landed payload bytes.
    void recoverTransfer(const Transfer& t, std::uint32_t wantCrc,
                         bool delivered);

    int nranks_;
    CommLog log_;

    CommFaults* faults_ = nullptr;
    std::vector<bool> alive_;
    bool anyDead_ = false;
};

} // namespace crocco::parallel
