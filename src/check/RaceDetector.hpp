#pragma once

#include "amr/Box.hpp"
#include "check/FabShadow.hpp"

#include <cstdint>
#include <vector>

namespace crocco::check {

/// Launch-level race detector for the gpu::ThreadPool fan-out, i.e. for
/// every pool-parallel gpu::ParallelForIndex launch (cell launches are
/// plain loops on the calling thread and never reach the pool).
///
/// Model: a pool launch runs `ntasks` tasks whose order is unspecified
/// across workers, so any two *different* tasks of the same launch are
/// concurrent. Every Array4 access made while a task runs is charged to
/// that task (nested launches serialize on the calling worker, so their
/// accesses are charged to the enclosing task — matching the pool's
/// execution rules). At endLaunch the per-task logs are scanned pairwise:
/// two tasks conflict when they touched the same fab allocation with
/// intersecting cell bounding boxes and intersecting component sets, and at
/// least one side wrote. Conflicts report through check::fail(Kind::Race).
///
/// Accesses are merged into per-(fab, read/write) records — a bounding box
/// plus a component bitmask (components >= 63 share the top bit) — so the
/// scan is conservative-exact for the codebase's rectangular access
/// patterns: disjoint fabs, disjoint regions of one fab, and disjoint
/// components are all recognized as race-free. FArrayBox::copyFrom seals the task's log
/// before and after each copy, so every copy region is its own exact
/// rectangle: a pooled exchange task that writes its fab's ghost slabs is
/// not merged into one box that covers the valid cells another task reads.
struct AccessRecord {
    std::uint64_t fabId = 0;
    amr::Box allocBox;        ///< copied from the shadow at first touch
    amr::Box bbox;            ///< union of cells this task touched
    std::uint64_t compMask = 0;
    bool write = false;
};

struct TaskLog {
    std::vector<AccessRecord> records;
    std::size_t sealed = 0; ///< records[0, sealed) take no more accesses

    void record(const FabShadow* sh, int i, int j, int k, int n, bool write) {
        const std::uint64_t id = sh->id();
        const std::uint64_t bit = 1ull << (n < 63 ? n : 63);
        const amr::Box cell({i, j, k}, {i, j, k});
        // Recent-first: kernels touch one fab in long runs, so the match is
        // almost always the last record.
        for (std::size_t r = records.size(); r > sealed; --r) {
            AccessRecord& rec = records[r - 1];
            if (rec.fabId == id && rec.write == write) {
                rec.bbox = amr::Box::bboxUnion(rec.bbox, cell);
                rec.compMask |= bit;
                return;
            }
        }
        records.push_back({id, sh->allocBox(), cell, bit, write});
    }

    /// Close every open record: later accesses start new ones.
    void seal() { sealed = records.size(); }
};

class RaceDetector {
public:
    static RaceDetector& instance();

    /// Called by ThreadPool::run around a parallel launch (serial fallbacks
    /// are deterministic and record nothing).
    void beginLaunch(int ntasks);
    /// Scans the logs, reports conflicts, and clears the launch state.
    void endLaunch();

    /// Log of one task of the active launch; nullptr when no launch is
    /// active (then accesses go unrecorded).
    TaskLog* log(int task) {
        return active_ ? &logs_[static_cast<std::size_t>(task)] : nullptr;
    }

    std::uint64_t launches() const { return launches_; }

    /// RAII binding of the calling worker to task `task` for the duration
    /// of one task body (installed by ThreadPool's claim loop).
    class TaskScope {
    public:
        explicit TaskScope(int task);
        ~TaskScope();
        TaskScope(const TaskScope&) = delete;
        TaskScope& operator=(const TaskScope&) = delete;
    };

private:
    bool active_ = false;
    std::uint64_t launches_ = 0;
    std::vector<TaskLog> logs_;
};

/// Worker-local log of the task currently executing (nullptr outside a
/// tracked parallel launch).
extern thread_local TaskLog* tlTaskLog;

/// Seal the running task's log (no-op outside a tracked parallel launch).
inline void sealTaskLog() {
    if (TaskLog* log = tlTaskLog) log->seal();
}

/// Hot-path hook used by the Array4 accessors.
inline void recordAccess(const FabShadow* sh, int i, int j, int k, int n,
                         bool write) {
    if (TaskLog* log = tlTaskLog) {
        if (sh->defined()) log->record(sh, i, j, k, n, write);
    }
}

} // namespace crocco::check
