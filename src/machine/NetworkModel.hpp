#pragma once

#include <cstdint>
#include <vector>

namespace crocco::machine {

/// α-β model of Summit's fat-tree EDR InfiniBand with a mild congestion
/// factor at scale, plus the cost structure of AMReX's ParallelCopy: a
/// *global* metadata coordination phase (every rank must discover who sends
/// to it when the source and destination BoxArrays differ) followed by the
/// actual data movement. The coordination term is what makes ParallelCopy
/// "global communication" (§III-B) and what erodes weak scaling at high
/// node counts (§VI-B).
struct NetworkModel {
    double latency = 1.5e-6;        ///< per point-to-point message, seconds
    double bandwidth = 23.0e9;      ///< per-NODE effective injection, B/s
                                    ///< (dual-rail EDR), shared by all the
                                    ///< node's ranks
    double gpuStagingOverhead = 6e-6; ///< extra per-message cost when message
                                      ///< buffers live in GPU memory
    double contentionPerDoubling = 0.04; ///< fat-tree congestion growth
    double parallelCopyMetaPerRank = 1.0e-6; ///< global-coordination cost,
                                             ///< seconds per participating rank
    double hostCopyBandwidth = 8.0e9; ///< on-node memcpy rate for local
                                      ///< FillPatch copies (CPU runs)
    double gpuDirectFactor = 3.0;     ///< GPU ranks drive the NIC more
                                      ///< efficiently (GPUDirect + NVLink
                                      ///< staging) than core-per-rank CPU
                                      ///< processes sharing it 42 ways

    /// Congestion multiplier at a node count (1.0 for a single node).
    double contention(int nodes) const;

    /// Latency (α) term of a point-to-point phase: the per-message fixed
    /// cost paid nmsgs times. With one message per intersecting box pair,
    /// this is the term that grows with the box count.
    double alphaTime(int nmsgs, bool gpuRun) const;

    /// Bandwidth (β) term of a point-to-point phase: `bytes` through the
    /// rank's share of the node's injection bandwidth, inflated by
    /// fat-tree contention at `nodes`.
    double betaTime(std::int64_t bytes, int nodes, bool gpuRun,
                    int ranksPerNode) const;

    /// Time for the busiest rank's point-to-point phase: nmsgs messages
    /// totalling `bytes` (sent + received), with the node's injection
    /// bandwidth split across `ranksPerNode` ranks. Exactly
    /// alphaTime + betaTime.
    double p2pPhaseTime(int nmsgs, std::int64_t bytes, int nodes, bool gpuRun,
                        int ranksPerNode) const;

    /// MPI_Allreduce-style reduction over nranks.
    double reductionTime(int nranks, int nodes) const;

    /// ParallelCopy global metadata coordination over nranks.
    double parallelCopyMetaTime(int nranks, bool gpuRun) const;
};

/// Per-rank accumulator of message counts and bytes for one communication
/// phase; the phase completes when the busiest rank does.
class PhaseLoad {
public:
    explicit PhaseLoad(int nranks) : msgs_(nranks, 0), bytes_(nranks, 0) {}

    void addMessage(int src, int dst, std::int64_t nbytes);

    int nRanks() const { return static_cast<int>(msgs_.size()); }
    int maxMessages() const;
    std::int64_t maxBytes() const;
    std::int64_t totalBytes() const;

    /// Completion time of this phase under the network model.
    double time(const NetworkModel& net, int nodes, bool gpuRun,
                int ranksPerNode) const;

private:
    std::vector<int> msgs_;
    std::vector<std::int64_t> bytes_;
};

} // namespace crocco::machine
