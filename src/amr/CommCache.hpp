#pragma once

#include "amr/Box.hpp"

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

namespace crocco::amr {

/// One precomputed copy of a ghost-exchange / ParallelCopy pattern:
/// dst fab `dstFab`, region `region` (dst index space) receives src fab
/// `srcFab` shifted by `shift` (src cell = dst cell + shift). Component
/// counts and ranks are NOT stored — descriptors are ncomp-independent and
/// DistributionMapping-independent, so one pattern serves every MultiFab
/// pair living on the same (BoxArray, ngrow) signature.
struct CopyDescriptor {
    int dstFab = 0;
    int srcFab = 0;
    Box region;
    IntVect shift;
    std::int64_t npts = 0; ///< region.numPts(), cached for message sizing

    /// Field-wise equality — the byte-identity the check build's replay
    /// guard asserts between a cached pattern and its re-derivation.
    bool operator==(const CopyDescriptor&) const = default;
};

/// A full communication pattern plus cheap validation fields (guards the
/// astronomically unlikely collision of two derived BoxArray ids).
struct CommPattern {
    std::vector<CopyDescriptor> copies;
    int srcSize = 0; ///< boxes in the source BoxArray when built
    int dstSize = 0; ///< boxes in the destination BoxArray when built

    bool operator==(const CommPattern&) const = default;
};

/// Process-wide LRU cache of communication patterns, mirroring AMReX's
/// CommMetaData caching (Zhang et al., 2020): FillBoundary / ParallelCopy
/// re-run the BoxArray hash intersection only on the first call for a given
/// (src BoxArray id, dst BoxArray id, ngrows, periodic-shift set) signature;
/// every later call — every RK3 stage, every FillPatch of an unchanged
/// hierarchy — replays the stored descriptors, including the SimComm message
/// recording.
///
/// Invalidation: AmrCore::setLevel drops entries mentioning a replaced
/// level's BoxArray id whenever regrid (or checkpoint restore) changes the
/// layout. Entries keyed on ids *derived* from a dropped id (the coarsened
/// scratch layouts inside FillPatch) become unreachable rather than stale —
/// a fresh parent id derives fresh child ids — and age out of the LRU.
///
/// Cache keys never depend on component counts, DistributionMappings, or
/// SimComm state; those are applied at replay time.
class CommCache {
public:
    enum Kind : int { FillBoundary = 0, ParallelCopy = 1 };

    struct Key {
        std::uint64_t srcId = 0;
        std::uint64_t dstId = 0;
        int dstNGrow = 0;
        int srcNGrow = 0;
        std::uint64_t shiftsHash = 0;
        int kind = FillBoundary;
        bool operator==(const Key&) const = default;
    };

    struct Stats {
        std::int64_t hits = 0;
        std::int64_t misses = 0;
        std::int64_t invalidations = 0; ///< entries removed by invalidate()
        std::int64_t evictions = 0;     ///< entries dropped by the LRU bound
    };

    static CommCache& instance();

    /// Patterns retained (LRU, default 64). Shrinking evicts oldest entries
    /// immediately; 0 retains nothing, so every call runs the uncached
    /// build path (the seed behavior the tests and bench/comm_cache compare
    /// against).
    void setCapacity(std::size_t cap);
    std::size_t capacity() const { return capacity_; }
    std::size_t size() const { return map_.size(); }

    /// nullptr on miss (or when the validation fields do not match — a
    /// collided key is dropped and rebuilt). The returned pointer is valid
    /// until the next insert/invalidate/clear call.
    const CommPattern* lookup(const Key& k, int srcSize, int dstSize);

    /// Store (or replace) a pattern; returns the stored copy. No-op at
    /// capacity 0 (returns a reference to a thread-local scratch instead).
    const CommPattern& insert(const Key& k, CommPattern pattern);

    /// Drop every entry whose key mentions `baId` as source or destination.
    void invalidate(std::uint64_t baId);

    /// Guard against a shrunk communicator: patterns themselves are
    /// rank-independent, but the replay of a cached pattern records
    /// messages with the *current* DistributionMapping — and after a rank
    /// death every mapping in the hierarchy is rebuilt, so replaying
    /// against a half-updated hierarchy would mix old and new rank
    /// numberings. The first call records the communicator size; a later
    /// call with a different size drops every entry (counted as
    /// invalidations) and re-records.
    void noteCommSize(int nranks);

    /// Communicator size last noted; 0 before the first noteCommSize.
    int notedCommSize() const { return commSize_; }

    void clear();
    void resetStats() { stats_ = {}; }
    const Stats& stats() const { return stats_; }

private:
    struct KeyHash {
        std::size_t operator()(const Key& k) const;
    };
    using Entry = std::pair<Key, CommPattern>;

    void touch(std::list<Entry>::iterator it);

    std::list<Entry> lru_; // front = most recently used
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map_;
    std::size_t capacity_ = 64;
    int commSize_ = 0;
    Stats stats_;
};

/// Order-sensitive hash of a periodic-shift set (part of the cache key: the
/// same BoxArray exchanged under different periodicities has different
/// patterns).
std::uint64_t hashShifts(const std::vector<IntVect>& shifts);

} // namespace crocco::amr
