#pragma once

#include <functional>
#include <string>
#include <vector>

namespace crocco::resilience {

/// Rotating-checkpoint manager: keeps the last K checkpoints under a root
/// directory, verifies integrity (header + per-level CRC32) before trusting
/// one, and falls back to the previous good checkpoint when the newest is
/// corrupt. Deliberately decoupled from the solver through read/write
/// callbacks so it layers over core::CroccoAmr without a dependency cycle;
/// mirrors the role checkpoint/restart plays as a first-class subsystem in
/// AMReX.
class RestartManager {
public:
    /// Callback that writes or reads one checkpoint at `dir`.
    using CheckpointFn = std::function<void(const std::string& dir)>;

    explicit RestartManager(std::string root, int keepLast = 2);

    const std::string& root() const { return root_; }
    int keepLast() const { return keepLast_; }

    /// Canonical directory for a step: <root>/chk000042.
    std::string dirFor(int step) const;

    /// Write one checkpoint for `step` through `writer` (which must be
    /// atomic — CroccoAmr::writeCheckpoint stages into a tmp dir and
    /// renames), then prune to the newest keepLast(). Returns the directory
    /// written.
    std::string write(int step, const CheckpointFn& writer);

    /// Checkpoint directories currently present, newest step first.
    std::vector<std::string> available() const;

    /// Step number encoded in a checkpoint directory name, or -1.
    static int stepOf(const std::string& dir);

    /// Fast integrity check of one checkpoint: the header is format v2 and
    /// parses, and every recorded per-level CRC32/length matches the level
    /// file on disk. Never throws; on failure returns false and, when
    /// `why` is non-null, explains.
    static bool verify(const std::string& dir, std::string* why = nullptr);

    /// Restore the newest checkpoint that passes verify() *and* loads
    /// cleanly through `reader`; corrupt or unreadable ones are skipped
    /// with their reason collected. Returns the directory restored; throws
    /// std::runtime_error listing every failure when none restores.
    std::string restoreLatest(const CheckpointFn& reader) const;

private:
    std::string root_;
    int keepLast_;
};

} // namespace crocco::resilience
