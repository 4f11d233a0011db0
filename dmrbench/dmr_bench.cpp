// DMR benchmark workload runner: runs one workload of the double Mach
// reflection through core::CroccoAmr's public API, checks the result, and
// prints one JSON report on the last line of stdout. run.py builds this
// program, runs it in its own process per workload, and turns the report
// into the benchmark's result line.
//
//   dmr_bench --workload <dmr_steady|dmr_regrid|dmr_guarded> --seed <n>
//             --seconds <s> --trace <0|1> --out <dir>
//             [--size full|tiny] [--corrupt none|state]
//
// Untraced runs (--trace 0) repeat {construct + init, solve to the
// workload's fixed simulated end time, output checks, checkpoint the final
// state and restore it into a fresh solver} for --seconds and report
// medians. Traced runs (--trace 1) alternate untraced solves, which give
// the counts, with traced solves that record spans around every call into
// the solver, the BC/IC callbacks, and a layer probe that re-runs each
// layer's public entry point on the current hierarchy without touching the
// solver's state. Spans are kept in memory and written
// as Chrome trace-event JSON at exit. Every reported time is scaled to a
// reference host speed measured by a fixed kernel timed between steps
// (HostReference); the unscaled times are reported as wall.*.
#include "amr/CommCache.hpp"
#include "amr/FillPatch.hpp"
#include "amr/Interpolater.hpp"
#include "core/ComputeDt.hpp"
#include "core/CroccoAmr.hpp"
#include "core/Rk3.hpp"
#include "core/Tagging.hpp"
#include "core/Viscous.hpp"
#include "core/Weno.hpp"
#include "gpu/Arena.hpp"
#include "gpu/Gpu.hpp"
#include "gpu/LaunchStats.hpp"
#include "gpu/ThreadPool.hpp"
#include "mesh/GridMetrics.hpp"
#include "parallel/SimComm.hpp"
#include "problems/Dmr.hpp"
#include "resilience/FabGuard.hpp"
#include "resilience/RestartManager.hpp"
#include "resilience/SdcInjector.hpp"
#include "resilience/StateValidator.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace crocco;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;
using amr::MultiFab;
using amr::Real;

double secondsBetween(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in (0, 100]).
double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

// ---------------------------------------------------------------------------
// Host-speed reference

/// Reference time the reported times are scaled to (see HostReference).
constexpr double kRefNominal = 0.010;

/// A fixed kernel of the benchmark's own, timed between the solver calls of
/// a run. The host is a shared VM whose throughput drifts by up to a factor
/// of two over minutes. The times of each solve are scaled by
/// kRefNominal / (median reference time of that solve), and layer times by
/// the run's median, so they read as seconds on a host where this kernel
/// takes kRefNominal. The kernel is a WENO5 reconstruction and flux
/// difference along x, y and z of a five-component 48x24x16 field with
/// three ghost cells, the solver's dominant kind of work. It is frozen: a
/// change to the solver does not change it.
class HostReference {
public:
    HostReference() : u_(std::size_t(PX) * PY * PZ * NC), du_(std::size_t(NX) * NY * NZ * NC) {
        for (std::size_t n = 0; n < u_.size(); ++n)
            u_[n] = 1.0 + 0.5 * std::sin(0.013 * double(n)) + 0.1 * std::cos(0.37 * double(n));
    }

    /// Runs the kernel once, records and returns its wall time.
    double sample() {
        const auto t0 = Clock::now();
        const std::ptrdiff_t sy = PX, sz = std::ptrdiff_t(PX) * PY, sc = sz * PZ;
        for (int dir = 0; dir < 3; ++dir) {
            const std::ptrdiff_t s = dir == 0 ? 1 : dir == 1 ? sy : sz;
            for (int c = 0; c < NC; ++c)
                for (int k = 0; k < NZ; ++k)
                    for (int j = 0; j < NY; ++j) {
                        const double* p = &u_[std::size_t(c * sc + (k + G) * sz + (j + G) * sy + G)];
                        double* o = &du_[((std::size_t(c) * NZ + k) * NY + j) * NX];
                        for (int i = 0; i < NX; ++i) {
                            const double* q = p + i;
                            const double fl = weno5(q[-3 * s], q[-2 * s], q[-s], q[0], q[s]);
                            const double fr = weno5(q[-2 * s], q[-s], q[0], q[s], q[2 * s]);
                            o[i] = (dir == 0 ? 0.0 : o[i]) + (fr - fl);
                        }
                    }
        }
        for (double x : du_) sink_ += x;
        const double t = secondsBetween(t0, Clock::now());
        if (!std::isfinite(sink_)) throw std::runtime_error("reference kernel is not finite");
        samples_.push_back(t);
        return t;
    }

    void clear() { samples_.clear(); }
    std::size_t count() const { return samples_.size(); }
    /// Median time of the samples from index `first` on.
    double medianSince(std::size_t first) const {
        return median({samples_.begin() + static_cast<std::ptrdiff_t>(first), samples_.end()});
    }

private:
    static constexpr int NX = 48, NY = 24, NZ = 16, G = 3, NC = 5;
    static constexpr int PX = NX + 2 * G, PY = NY + 2 * G, PZ = NZ + 2 * G;

    static double weno5(double a, double b, double c, double d, double e) {
        const double d0 = a - 2 * b + c, e0 = a - 4 * b + 3 * c;
        const double d1 = b - 2 * c + d, e1 = b - d;
        const double d2 = c - 2 * d + e, e2 = 3 * c - 4 * d + e;
        const double b0 = 13.0 / 12.0 * d0 * d0 + 0.25 * e0 * e0;
        const double b1 = 13.0 / 12.0 * d1 * d1 + 0.25 * e1 * e1;
        const double b2 = 13.0 / 12.0 * d2 * d2 + 0.25 * e2 * e2;
        const double a0 = 0.1 / ((1e-6 + b0) * (1e-6 + b0));
        const double a1 = 0.6 / ((1e-6 + b1) * (1e-6 + b1));
        const double a2 = 0.3 / ((1e-6 + b2) * (1e-6 + b2));
        const double q0 = (2 * a - 7 * b + 11 * c) / 6.0;
        const double q1 = (-b + 5 * c + 2 * d) / 6.0;
        const double q2 = (2 * c + 5 * d - e) / 6.0;
        return (a0 * q0 + a1 * q1 + a2 * q2) / (a0 + a1 + a2);
    }

    std::vector<double> u_, du_;
    std::vector<double> samples_;
    double sink_ = 0.0;
};

// ---------------------------------------------------------------------------
// Spans

/// In-memory span recorder. Spans opened on a pool worker thread whose own
/// stack is empty are parented to the innermost span open on the thread
/// that owns the tracer: pool launches are synchronous, so that span
/// encloses the worker's work.
class Tracer {
public:
    struct Span {
        const char* name;
        std::int64_t startNs;
        std::int64_t endNs;
        int parent;
        int tid;
    };

    Tracer() : origin_(Clock::now()), owner_(std::this_thread::get_id()) {}

    /// Spans are recorded only while enabled (the traced phase of a run).
    void setEnabled(bool e) { enabled_ = e; }

    int open(const char* name) {
        if (!enabled_) return -1;
        const std::int64_t t = nowNs();
        std::lock_guard<std::mutex> lock(m_);
        auto& stack = stackForThisThread();
        int parent = -1;
        if (!stack.empty()) parent = stack.back();
        else if (!ownerStack_.empty()) parent = ownerStack_.back();
        const int id = static_cast<int>(spans_.size());
        spans_.push_back({name, t, -1, parent, threadIndex()});
        stack.push_back(id);
        return id;
    }

    void close(int id) {
        if (id < 0) return;
        const std::int64_t t = nowNs();
        std::lock_guard<std::mutex> lock(m_);
        spans_[static_cast<std::size_t>(id)].endNs = t;
        auto& stack = stackForThisThread();
        if (!stack.empty() && stack.back() == id) stack.pop_back();
    }

    const std::vector<Span>& spans() const { return spans_; }

    /// Self time of every span: its duration minus the part of its interval
    /// covered by the union of its children.
    std::vector<double> selfTimes() const {
        std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
            spans_.size());
        for (const Span& s : spans_)
            if (s.parent >= 0)
                kids[static_cast<std::size_t>(s.parent)].push_back(
                    {s.startNs, s.endNs});
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            auto& iv = kids[i];
            std::sort(iv.begin(), iv.end());
            std::int64_t covered = 0, curLo = 0, curHi = -1;
            for (const auto& [lo, hi] : iv) {
                if (lo > curHi) {
                    if (curHi > curLo) covered += curHi - curLo;
                    curLo = lo;
                    curHi = hi;
                } else {
                    curHi = std::max(curHi, hi);
                }
            }
            if (curHi > curLo) covered += curHi - curLo;
            self[i] = 1e-9 * static_cast<double>(spans_[i].endNs -
                                                 spans_[i].startNs - covered);
        }
        return self;
    }

    /// Chrome trace-event JSON (complete events, microseconds).
    void writeChrome(const std::string& path) const {
        const auto self = selfTimes();
        std::ofstream out(path);
        out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        char buf[320];
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            std::snprintf(buf, sizeof buf,
                          "%s\n{\"name\":\"%s\",\"cat\":\"dmrbench\",\"ph\":\"X\","
                          "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                          "\"args\":{\"id\":%zu,\"parent\":%d,\"self_us\":%.3f}}",
                          i ? "," : "", s.name, s.tid, 1e-3 * static_cast<double>(s.startNs),
                          1e-3 * static_cast<double>(s.endNs - s.startNs), i,
                          s.parent, 1e6 * self[i]);
            out << buf;
        }
        out << "\n]}\n";
    }

private:
    std::int64_t nowNs() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }
    std::vector<int>& stackForThisThread() {
        if (std::this_thread::get_id() == owner_) return ownerStack_;
        thread_local std::vector<int> workerStack;
        return workerStack;
    }
    int threadIndex() {
        const auto id = std::this_thread::get_id();
        auto it = tids_.find(id);
        if (it != tids_.end()) return it->second;
        const int idx = static_cast<int>(tids_.size());
        tids_.emplace(id, idx);
        return idx;
    }

    bool enabled_ = false;
    Clock::time_point origin_;
    std::thread::id owner_;
    std::mutex m_;
    std::vector<Span> spans_;
    std::vector<int> ownerStack_;
    std::map<std::thread::id, int> tids_;
};

class SpanScope {
public:
    SpanScope(Tracer& t, const char* name) : t_(t), id_(t.open(name)) {}
    ~SpanScope() { t_.close(id_); }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

private:
    Tracer& t_;
    int id_;
};

// ---------------------------------------------------------------------------
// Workloads

struct FlipPlan {
    struct Cold {
        int step, level, fab;
    };
    std::vector<Cold> cold;
    int stageStep = -1, stage = 0, stageLevel = 0;
};

struct Workload {
    std::string name;
    problems::Dmr::Options dmr;
    int maxGridSize = 64;
    int regridFreq = 0; ///< 0 = hierarchy frozen after init
    int nranks = 1;
    int threads = 1;
    Real smagorinsky = 0.0;
    Real tEnd = 0.0;        ///< fixed simulated end time of one solve
    int nominalSteps = 0;   ///< steps a solve takes to reach tEnd
    bool guarded = false;
    int checkpointEvery = 0;
    int sdcSample = 0;
    int minReps = 3;
    int minSteps = 40;      ///< step samples a run collects at least
    int minSetups = 7;      ///< setup samples a run collects at least
};

/// Workload table. Sizes are chosen so one solve takes a few seconds on
/// one core and a run repeats it several times; `tiny` shrinks every
/// workload for the benchmark's self-test.
Workload makeWorkload(const std::string& name, bool tiny) {
    Workload w;
    w.name = name;
    w.dmr.curvilinear = true;
    w.dmr.nz = 8;
    if (name == "dmr_steady" || name == "dmr_guarded") {
        // Kernel-bound: one refinement level on a hierarchy frozen after
        // init, Smagorinsky LES on (viscousFlux runs), one rank, one thread.
        w.dmr.nx = tiny ? 32 : 64;
        w.dmr.ny = tiny ? 8 : 16;
        w.dmr.maxLevel = 1;
        w.maxGridSize = 64;
        w.smagorinsky = 0.1;
        // Twenty steps: the guarded solve's one rolled-back step is then 5%
        // of its steps, clear of the p90 tail.
        w.nominalSteps = tiny ? 3 : 20;
        w.tEnd = tiny ? 0.0035 : 0.0134;
        w.minSteps = tiny ? 3 : 100;
        if (name == "dmr_guarded") {
            // Resilience-bound: guard verify every step, dual execution on
            // every third step (a minority of steps, so the step-time median
            // does not sit between the two kinds of step), a checkpoint
            // every few steps, and seeded cold-state and stage-output flips
            // the ladder must repair.
            w.guarded = true;
            w.checkpointEvery = tiny ? 2 : 4;
            w.sdcSample = tiny ? 2 : 3;
        }
    } else if (name == "dmr_regrid") {
        // AMR-bound: three levels of small boxes regridded every step with
        // the curvilinear interpolator, eight simulated ranks, two threads.
        w.dmr.nx = 32;
        w.dmr.ny = 8;
        w.dmr.maxLevel = 2;
        w.maxGridSize = 8;
        w.regridFreq = 1;
        w.nranks = 8;
        w.threads = 2;
        // Seven steps: five of them change the grid, so the step-time
        // median sits inside the slower kind of step, not between the two.
        w.nominalSteps = tiny ? 2 : 7;
        w.tEnd = tiny ? 0.0019 : 0.0041;
        w.minSteps = tiny ? 2 : 40;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    if (tiny) {
        w.minReps = 1;
        w.minSetups = 2;
    }
    return w;
}

/// Highest percentile of the ladder that leaves at least ten samples
/// beyond it when a run collects the workload's minimum step count.
int tailPercentile(int minSteps) {
    for (int p : {99, 95, 90, 75, 50})
        if (minSteps * (100 - p) >= 10 * 100) return p;
    return 50;
}

// ---------------------------------------------------------------------------
// Inputs generated from the seed

struct Inputs {
    Real waveAmplitude;
    std::uint64_t flipSeed;
    std::mt19937_64 rng;
};

Inputs makeInputs(std::uint64_t seed) {
    std::seed_seq seq{static_cast<std::uint32_t>(seed),
                      static_cast<std::uint32_t>(seed >> 32), 0xD3B2u};
    std::mt19937_64 rng(seq);
    Inputs in{0.0, 0, std::mt19937_64{}};
    // A narrow band around the DMR default wave amplitude: the seed varies
    // the grid, not the workload's cost.
    in.waveAmplitude = 0.0195 + 0.001 * std::uniform_real_distribution<double>(0, 1)(rng);
    in.flipSeed = rng();
    in.rng = std::mt19937_64(rng());
    return in;
}

int uniformInt(std::mt19937_64& rng, int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
}

/// Two cold flips (one early, one late) and one stage-output flip on a
/// dual-execution step, at seeded steps, levels and fabs.
FlipPlan makeFlipPlan(const Workload& w, const core::CroccoAmr& solver,
                      std::mt19937_64 rng) {
    FlipPlan plan;
    const int last = std::max(2, w.nominalSteps - 1);
    const int mid = std::max(1, last / 2);
    const int nlev = solver.finestLevel() + 1;
    for (auto [lo, hi] : {std::pair{1, mid}, std::pair{mid + 1, last}}) {
        FlipPlan::Cold c{};
        c.step = uniformInt(rng, lo, std::max(lo, hi));
        c.level = uniformInt(rng, 0, nlev - 1);
        c.fab = uniformInt(rng, 0, solver.boxArray(c.level).size() - 1);
        plan.cold.push_back(c);
    }
    std::vector<int> dualSteps;
    for (int s = 1; s <= last; ++s)
        if (s % w.sdcSample == 0) dualSteps.push_back(s);
    plan.stageStep = dualSteps[static_cast<std::size_t>(
        uniformInt(rng, 0, static_cast<int>(dualSteps.size()) - 1))];
    plan.stage = uniformInt(rng, 0, 2);
    plan.stageLevel = uniformInt(rng, 0, nlev - 1);
    return plan;
}

// ---------------------------------------------------------------------------
// The solver under test

struct Problem {
    problems::Dmr dmr;
    core::CroccoAmr::Config cfg;
};

Problem makeProblem(const Workload& w, const Inputs& in) {
    problems::Dmr::Options o = w.dmr;
    o.waveAmplitude = in.waveAmplitude;
    problems::Dmr dmr(o);
    auto cfg = dmr.solverConfig(core::CodeVersion::V20);
    cfg.amrInfo.maxGridSize = w.maxGridSize;
    cfg.regridFreq = w.regridFreq > 0 ? w.regridFreq
                                      : std::numeric_limits<int>::max();
    cfg.nranks = w.nranks;
    cfg.gpuNumThreads = w.threads;
    cfg.sgs.cs = w.smagorinsky;
    cfg.interp = core::InterpChoice::Curvilinear;
    if (w.guarded) {
        cfg.sdc.guard = true;
        cfg.sdc.interval = 1;
        cfg.sdc.sample = w.sdcSample;
    }
    return {dmr, cfg};
}

std::vector<MultiFab> copyState(const core::CroccoAmr& s) {
    std::vector<MultiFab> U;
    for (int lev = 0; lev <= s.finestLevel(); ++lev) U.push_back(s.state(lev));
    return U;
}

// ---------------------------------------------------------------------------
// Output checks

struct CheckResult {
    std::string name;
    bool ok;
    double value;
    double limit;
};

constexpr int kProbeEvery = 2;          // traced solves probe every n-th step
constexpr double kShockTolCells = 1.0;  // level-0 cells
constexpr double kPlateauTol = 1e-3;    // max relative deviation

/// Incident shock on the top boundary: the x where density along the top
/// row of level 0 first falls through the pre/post midpoint, against
/// Dmr::shockXAtTop at the row's physical height.
CheckResult checkShock(const core::CroccoAmr& s, const Workload& w) {
    const auto& U = s.state(0);
    const auto& X = s.coords(0);
    const int jTop = w.dmr.ny - 1;
    std::vector<std::array<double, 3>> row; // i, x, rho
    double yRow = 0.0;
    for (int f = 0; f < U.numFabs(); ++f) {
        const auto& vb = U.validBox(f);
        if (jTop < vb.smallEnd()[1] || jTop > vb.bigEnd()[1] || vb.smallEnd()[2] > 0)
            continue;
        auto u = U.const_array(f);
        auto x = X.const_array(f);
        for (int i = vb.smallEnd()[0]; i <= vb.bigEnd()[0]; ++i) {
            row.push_back({double(i), x(i, jTop, 0, 0), u(i, jTop, 0, core::URHO)});
            yRow = x(i, jTop, 0, 1);
        }
    }
    std::sort(row.begin(), row.end());
    const double mid =
        0.5 * (problems::Dmr::postShockState()[0] + problems::Dmr::preShockState()[0]);
    double xs = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t n = 1; n < row.size(); ++n) {
        if (row[n - 1][2] >= mid && row[n][2] < mid) {
            const double a = (row[n - 1][2] - mid) / (row[n - 1][2] - row[n][2]);
            xs = row[n - 1][1] + a * (row[n][1] - row[n - 1][1]);
            break;
        }
    }
    const double dx0 = 4.0 / w.dmr.nx;
    const double err =
        std::abs(xs - problems::Dmr::shockXAtTop(s.time(), yRow)) / dx0;
    return {"shock_position", std::isfinite(err) && err <= kShockTolCells, err,
            kShockTolCells};
}

/// Post-shock plateau: level-0 cells in the upper half, at least four
/// cells behind the incident shock, visited with fn(fab, i, j, k).
template <typename F>
void forEachPlateauCell(const core::CroccoAmr& s, const Workload& w, F&& fn) {
    const auto& U = s.state(0);
    const auto& X = s.coords(0);
    const double margin = 4.0 * 4.0 / w.dmr.nx;
    for (int f = 0; f < U.numFabs(); ++f) {
        auto x = X.const_array(f);
        amr::forEachCell(U.validBox(f), [&](int i, int j, int k) {
            const double px = x(i, j, k, 0), py = x(i, j, k, 1);
            if (py >= 0.5 && px <= problems::Dmr::shockXAtTop(s.time(), py) - margin)
                fn(f, i, j, k);
        });
    }
}

/// The plateau cells against Dmr::postShockState(), as the largest
/// component-wise deviation relative to max(|reference|, 1).
CheckResult checkPlateau(const core::CroccoAmr& s, const Workload& w) {
    const auto post = problems::Dmr::postShockState();
    double worst = 0.0;
    long cells = 0;
    forEachPlateauCell(s, w, [&](int f, int i, int j, int k) {
        auto u = s.state(0).const_array(f);
        ++cells;
        for (int n = 0; n < core::NCONS; ++n) {
            const double ref = post[static_cast<std::size_t>(n)];
            const double d = std::abs(u(i, j, k, n) - ref) / std::max(std::abs(ref), 1.0);
            worst = std::isfinite(d) ? std::max(worst, d)
                                     : std::numeric_limits<double>::infinity();
        }
    });
    return {"post_shock_plateau", cells > 0 && worst <= kPlateauTol, worst,
            kPlateauTol};
}

CheckResult checkValid(const core::CroccoAmr& s, const core::GasModel& gas) {
    const auto rep = resilience::validateHierarchy(copyState(s), s.finestLevel(), gas);
    return {"validate_hierarchy", rep.healthy(), double(rep.faultCount), 0.0};
}

bool bitwiseSameState(const core::CroccoAmr& a, const core::CroccoAmr& b) {
    if (a.finestLevel() != b.finestLevel()) return false;
    for (int lev = 0; lev <= a.finestLevel(); ++lev) {
        const auto& ua = a.state(lev);
        const auto& ub = b.state(lev);
        if (ua.numFabs() != ub.numFabs()) return false;
        for (int f = 0; f < ua.numFabs(); ++f)
            if (!(ua.validBox(f) == ub.validBox(f)) ||
                !resilience::FabGuard::bitwiseEqual(ua.fab(f), ub.fab(f),
                                                    ua.validBox(f), core::NCONS))
                return false;
    }
    return true;
}

// ---------------------------------------------------------------------------
// Layer probe

/// Re-runs each layer's public entry point on the solver's current
/// hierarchy, in Algorithm 1/2 order, writing only scratch copies.
void probeLayers(Tracer& tr, const core::CroccoAmr& s, const core::CroccoAmr::Config& cfg,
                 const amr::PhysBCFunct& bc, const amr::Interpolater& interp) {
    SpanScope probe(tr, "probe");
    const int finest = s.finestLevel();
    const Real t = s.time();
    const auto ratio = s.refRatio();
    auto* comm = s.comm();
    std::vector<MultiFab> sborder(static_cast<std::size_t>(finest) + 1);
    for (int lev = 0; lev <= finest; ++lev) {
        sborder[lev].define(s.boxArray(lev), s.dmap(lev), core::NCONS,
                            core::NGHOST, comm);
        if (lev == 0) {
            SpanScope sp(tr, "amr.fill_patch");
            amr::FillPatchSingleLevel(sborder[0], s.state(0), s.geom(0), bc, t);
        } else {
            SpanScope sp(tr, "amr.fill_patch_fine");
            amr::FillPatchTwoLevels(sborder[lev], s.state(lev), s.state(lev - 1),
                                    s.geom(lev), s.geom(lev - 1), ratio, interp, bc,
                                    bc, t, &s.coords(lev), &s.coords(lev - 1));
        }
        {
            SpanScope sp(tr, "amr.fill_boundary");
            sborder[lev].fillBoundary(s.geom(lev));
        }
        if (lev > 0) {
            SpanScope sp(tr, "amr.parallel_copy");
            const int ngc = 3;
            const auto cba = s.boxArray(lev).coarsen(ratio);
            MultiFab ctmp(cba, s.dmap(lev), core::NCONS, ngc, comm);
            ctmp.parallelCopy(s.state(lev - 1), 0, 0, core::NCONS, ngc, 0,
                              "ParallelCopy", &s.geom(lev - 1));
            MultiFab ccoords(cba, s.dmap(lev), 3, ngc, comm);
            ccoords.parallelCopy(s.coords(lev - 1), 0, 0, 3, ngc,
                                 s.coords(lev - 1).nGrow(), "ParallelCopy_interp");
        }
    }
    std::vector<amr::IntVect> tags;
    {
        SpanScope sp(tr, "core.tag");
        for (int lev = 0; lev <= std::min(finest, s.maxLevel() - 1); ++lev) {
            tags.clear();
            core::tagCells(sborder[lev], cfg.tagging, tags);
        }
    }
    {
        SpanScope sp(tr, "mesh.metrics");
        for (int lev = 0; lev <= finest; ++lev) {
            MultiFab m(s.boxArray(lev), s.dmap(lev), mesh::MetricComps,
                       core::NGHOST, comm);
            mesh::computeMetrics(s.coords(lev), m, s.geom(lev));
        }
    }
    Real dt = 0.0;
    {
        SpanScope sp(tr, "core.compute_dt");
        dt = std::numeric_limits<Real>::infinity();
        for (int lev = 0; lev <= finest; ++lev)
            dt = std::min(dt, core::computeDt(s.state(lev), s.metrics(lev), s.geom(lev),
                                              cfg.gas, cfg.cfl));
    }
    static const char* wenoNames[3] = {"core.weno_x", "core.weno_y", "core.weno_z"};
    std::vector<MultiFab> dU(static_cast<std::size_t>(finest) + 1);
    for (int lev = 0; lev <= finest; ++lev) {
        dU[lev].define(s.boxArray(lev), s.dmap(lev), core::NCONS, 0, comm);
        dU[lev].setVal(0.0);
    }
    for (int dir = 0; dir < 3; ++dir) {
        SpanScope sp(tr, wenoNames[dir]);
        for (int lev = 0; lev <= finest; ++lev) {
            const auto dxi = s.geom(lev).cellSizeArray();
            gpu::ParallelForIndex(dU[lev].numFabs(), [&](int f) {
                core::wenoFlux(dir, sborder[lev].const_array(f),
                               s.metrics(lev).const_array(f), dU[lev].validBox(f),
                               dU[lev].array(f), dxi[static_cast<std::size_t>(dir)],
                               cfg.gas, cfg.scheme, cfg.variant, cfg.recon);
            });
        }
    }
    const bool viscous = cfg.gas.viscous() || cfg.sgs.active();
    if (viscous) {
        SpanScope sp(tr, "core.viscous");
        for (int lev = 0; lev <= finest; ++lev) {
            const auto dxi = s.geom(lev).cellSizeArray();
            gpu::ParallelForIndex(dU[lev].numFabs(), [&](int f) {
                core::viscousFlux(sborder[lev].const_array(f),
                                  s.metrics(lev).const_array(f), dU[lev].validBox(f),
                                  dU[lev].array(f), dxi, cfg.gas, cfg.variant, cfg.sgs);
            });
        }
    }
    {
        std::vector<MultiFab> Ucopy = copyState(s);
        std::vector<MultiFab> G(static_cast<std::size_t>(finest) + 1);
        for (int lev = 0; lev <= finest; ++lev) {
            G[lev].define(s.boxArray(lev), s.dmap(lev), core::NCONS, 0, comm);
            G[lev].setVal(0.0);
        }
        {
            SpanScope sp(tr, "core.update");
            for (int lev = 0; lev <= finest; ++lev)
                core::rk3StageUpdate(G[lev], Ucopy[lev], dU[lev], core::Rk3::A[0],
                                     core::Rk3::B[0], dt, false);
        }
        SpanScope sp(tr, "amr.average_down");
        for (int lev = finest; lev > 0; --lev)
            amr::AverageDown(Ucopy[lev], Ucopy[lev - 1], ratio, 0, 0, core::NCONS);
    }
    {
        std::vector<MultiFab> Ucopy = copyState(s);
        resilience::FabGuard guard;
        {
            SpanScope sp(tr, "resilience.stamp");
            guard.stamp(Ucopy, finest);
        }
        {
            SpanScope sp(tr, "resilience.verify");
            guard.digestClean(Ucopy, finest);
            if (!guard.verify(Ucopy, finest).empty())
                throw std::runtime_error("probe: FabGuard verify flagged unmodified state");
        }
        SpanScope sp(tr, "resilience.health");
        resilience::validateHierarchy(Ucopy, finest, cfg.gas);
    }
    {
        SpanScope sp(tr, "resilience.dual_exec");
        for (int lev = 0; lev <= finest; ++lev) {
            const int f = resilience::FabGuard::sampledFab(s.stepCount(), 0, lev,
                                                           dU[lev].numFabs());
            amr::FArrayBox ref(dU[lev].validBox(f), core::NCONS, 0.0);
            const auto dxi = s.geom(lev).cellSizeArray();
            for (int dir = 0; dir < 3; ++dir)
                core::wenoFlux(dir, sborder[lev].const_array(f),
                               s.metrics(lev).const_array(f), dU[lev].validBox(f),
                               ref.array(), dxi[static_cast<std::size_t>(dir)], cfg.gas,
                               cfg.scheme, cfg.variant, cfg.recon);
            if (viscous)
                core::viscousFlux(sborder[lev].const_array(f),
                                  s.metrics(lev).const_array(f), dU[lev].validBox(f),
                                  ref.array(), dxi, cfg.gas, cfg.variant, cfg.sgs);
            if (!resilience::FabGuard::bitwiseEqual(ref, dU[lev].fab(f),
                                                    dU[lev].validBox(f), core::NCONS))
                throw std::runtime_error("probe: dual execution disagrees with the sweep");
        }
    }
}

// ---------------------------------------------------------------------------
// Counters read around step() calls. Count metrics and region shares come
// from untraced solves only: the probe of a traced solve warms the CommCache
// and the ScratchPool for the step that follows it.

/// TinyProfiler regions of the solver read around each step(). Regions
/// nest (Regrid holds InitGridMetrics and a FillPatch), so they are
/// reported one by one, never summed across a nesting.
constexpr std::array<const char*, 11> kRegions = {
    "Regrid",  "InitGridMetrics", "FillPatch", "WENOx",       "WENOy",      "WENOz",
    "Viscous", "SdcStamp",        "SdcVerify", "SdcDualExec", "HealthCheck"};

struct Counters {
    std::int64_t cacheHits = 0, cacheMisses = 0;
    std::uint64_t poolHits = 0, poolMisses = 0, launches = 0;
    std::array<double, kRegions.size()> regions{};

    static Counters now(core::CroccoAmr& s) {
        Counters c;
        const auto& cs = amr::CommCache::instance().stats();
        c.cacheHits = cs.hits;
        c.cacheMisses = cs.misses;
        auto& pool = gpu::ScratchPool::instance();
        c.poolHits = pool.hits();
        c.poolMisses = pool.misses();
        c.launches = gpu::LaunchStats::count();
        for (std::size_t i = 0; i < kRegions.size(); ++i)
            c.regions[i] = s.profiler().seconds(kRegions[i]);
        return c;
    }
};

struct StepTraffic {
    double msgs = 0, bytes = 0, p2p = 0, pc = 0, red = 0;
    std::vector<double> rankBytes;
    double cacheHits = 0, cacheMisses = 0, poolHits = 0, poolMisses = 0,
           launches = 0;
    std::array<double, kRegions.size()> regions{}; ///< seconds inside step()

    void add(const Counters& a, const Counters& b) {
        cacheHits += double(b.cacheHits - a.cacheHits);
        cacheMisses += double(b.cacheMisses - a.cacheMisses);
        poolHits += double(b.poolHits - a.poolHits);
        poolMisses += double(b.poolMisses - a.poolMisses);
        launches += double(b.launches - a.launches);
        for (std::size_t i = 0; i < kRegions.size(); ++i)
            regions[i] += b.regions[i] - a.regions[i];
    }
    void merge(const StepTraffic& o) {
        msgs += o.msgs;
        bytes += o.bytes;
        p2p += o.p2p;
        pc += o.pc;
        red += o.red;
        rankBytes.resize(std::max(rankBytes.size(), o.rankBytes.size()), 0.0);
        for (std::size_t i = 0; i < o.rankBytes.size(); ++i) rankBytes[i] += o.rankBytes[i];
        cacheHits += o.cacheHits;
        cacheMisses += o.cacheMisses;
        poolHits += o.poolHits;
        poolMisses += o.poolMisses;
        launches += o.launches;
        for (std::size_t i = 0; i < kRegions.size(); ++i) regions[i] += o.regions[i];
    }
    double region(const std::string& name) const {
        for (std::size_t i = 0; i < kRegions.size(); ++i)
            if (name == kRegions[i]) return regions[i];
        throw std::logic_error("region " + name + " is not read");
    }
    void addLog(const parallel::SimComm* comm, std::size_t mark) {
        if (!comm) return;
        const auto sum = comm->log().summarize(mark);
        msgs += double(sum.messages);
        bytes += double(sum.bytes);
        p2p += double(sum.p2p);
        pc += double(sum.parallelCopy);
        red += double(sum.reductions);
        rankBytes.resize(static_cast<std::size_t>(comm->size()), 0.0);
        const auto& m = comm->log().messages();
        for (std::size_t i = mark; i < m.size(); ++i) {
            rankBytes[static_cast<std::size_t>(m[i].src)] += double(m[i].bytes);
            rankBytes[static_cast<std::size_t>(m[i].dst)] += double(m[i].bytes);
        }
    }
};

// ---------------------------------------------------------------------------
// One solve

struct SolveResult {
    double setup = 0.0;
    double solve = 0.0;
    double probeTime = 0.0;
    double refTime = 0.0;   ///< reference samples taken inside the solve
    double scale = 1.0;     ///< kRefNominal / median reference time of the solve
    std::vector<double> steps;
    int nsteps = 0;
    double cellUpdates = 0.0;
    std::array<Real, core::NCONS> totals{}; ///< conserved totals at t_end
    std::int64_t flipsInjected = 0, flipsPlanned = 0, repaired = 0;
    int rollbacks = 0;
    std::int64_t ckptWrites = 0;
    double restart = 0.0;   ///< restoreLatest of the final checkpoint
    bool restartFailed = false;
    std::vector<CheckResult> checks;
    bool stepFailed = false;
    std::string error;
    StepTraffic traffic;
};

/// The solver of the latest solve, and the fresh solver its final
/// checkpoint was restored into. Each solver is declared after its
/// communicator, so it is destroyed first.
struct Live {
    std::unique_ptr<parallel::SimComm> comm;
    std::unique_ptr<core::CroccoAmr> solver;
    std::unique_ptr<resilience::RestartManager> mgr;
    std::unique_ptr<parallel::SimComm> freshComm;
    std::unique_ptr<core::CroccoAmr> fresh;

    void reset() {
        fresh.reset();
        freshComm.reset();
        mgr.reset();
        solver.reset();
        comm.reset();
    }
};

struct Run {
    const Workload& w;
    const Problem& prob;
    const Inputs& in;
    std::string outDir;
    std::string corrupt;
    Tracer& tr;
    HostReference& ref;
    amr::CurvilinearInterp interp{};
    std::int64_t ckptBytes = 0;
    double lastBoxes = 0, lastPoints = 0, lastReduction = 0;

    amr::PhysBCFunct bcFor(bool traced) const {
        auto bc = prob.dmr.boundaryConditions();
        if (!traced) return bc;
        Tracer* t = &tr;
        return [t, bc](MultiFab& mf, const amr::Geometry& g, Real time) {
            SpanScope sp(*t, "problems.bc_fill");
            bc(mf, g, time);
        };
    }
    /// The IC callback evaluated once at every cell centre of the hierarchy
    /// init() built, under one span: the work init() hands the callback.
    void timeInitialCondition(const core::CroccoAmr& s) const {
        const auto ic = prob.dmr.initialCondition();
        double sink = 0.0;
        SpanScope sp(tr, "problems.init");
        for (int lev = 0; lev <= s.finestLevel(); ++lev) {
            const auto& X = s.coords(lev);
            for (int f = 0; f < X.numFabs(); ++f) {
                auto x = X.const_array(f);
                amr::forEachCell(s.state(lev).validBox(f), [&](int i, int j, int k) {
                    sink += ic(x(i, j, k, 0), x(i, j, k, 1), x(i, j, k, 2))[0];
                });
            }
        }
        if (!std::isfinite(sink)) throw std::runtime_error("initial condition is not finite");
    }

    static void resetProcessCaches() {
        amr::CommCache::instance().clear();
        amr::CommCache::instance().resetStats();
        gpu::ScratchPool::instance().clear();
        gpu::ScratchPool::instance().resetStats();
        gpu::LaunchStats::reset();
    }

    std::unique_ptr<core::CroccoAmr> construct(const core::CroccoAmr::Config& cfg,
                                               parallel::SimComm* comm) const {
        return std::make_unique<core::CroccoAmr>(prob.dmr.geometry(), cfg,
                                                 prob.dmr.mapping(), comm);
    }

    void writeCheckpoint(resilience::RestartManager& mgr, core::CroccoAmr& s) {
        SpanScope sp(tr, "resilience.checkpoint_write");
        const std::string dir = mgr.write(s.stepCount(), [&](const std::string& d) {
            s.writeCheckpoint(d);
        });
        std::int64_t bytes = 0;
        for (const auto& e : fs::recursive_directory_iterator(dir))
            if (e.is_regular_file()) bytes += static_cast<std::int64_t>(e.file_size());
        ckptBytes = bytes;
    }

    /// Construct + init, solve to tEnd, run the output checks, then
    /// checkpoint the final state and time restoring it into a fresh solver.
    /// Both solvers are left in `live` for the run's bitwise restart check.
    SolveResult solveOnce(bool traced, Live& live) {
        live.reset();
        SolveResult r;
        tr.setEnabled(traced);
        resetProcessCaches();
        auto comm = w.nranks > 1 ? std::make_unique<parallel::SimComm>(w.nranks)
                                 : nullptr;
        const auto bc = bcFor(traced);
        std::unique_ptr<core::CroccoAmr> s;
        const std::size_t firstRef = ref.count();
        ref.sample();
        {
            SpanScope sp(tr, "setup");
            const auto t0 = Clock::now();
            {
                SpanScope c(tr, "construct");
                s = construct(prob.cfg, comm.get());
            }
            {
                SpanScope c(tr, "init");
                s->init(prob.dmr.initialCondition(), bc);
            }
            r.setup = secondsBetween(t0, Clock::now());
        }
        if (traced) timeInitialCondition(*s);
        resilience::SdcInjector inj(in.flipSeed);
        FlipPlan plan;
        if (w.guarded) {
            plan = makeFlipPlan(w, *s, in.rng);
            inj.setEnabled(true);
            for (const auto& c : plan.cold) inj.armColdFlip(c.step, c.level, c.fab);
            inj.armStageFlip(plan.stageStep, plan.stage, plan.stageLevel,
                             resilience::FabGuard::sampledFab(
                                 plan.stageStep, plan.stage, plan.stageLevel,
                                 s->boxArray(plan.stageLevel).size()));
            r.flipsPlanned = static_cast<std::int64_t>(plan.cold.size()) + 1;
            s->setSdcInjector(&inj);
        }
        auto mgr = std::make_unique<resilience::RestartManager>(
            outDir + "/ckpt-" + w.name, 2);
        fs::remove_all(mgr->root());
        const int maxSteps = 4 * w.nominalSteps + 4;
        const auto solveStart = Clock::now();
        try {
            while (s->time() < w.tEnd) {
                if (r.nsteps >= maxSteps)
                    throw std::runtime_error("solve did not reach t_end");
                if (traced && r.nsteps % kProbeEvery == 0) {
                    const auto p0 = Clock::now();
                    probeLayers(tr, *s, prob.cfg, bc, interp);
                    r.probeTime += secondsBetween(p0, Clock::now());
                }
                r.refTime += ref.sample();
                const std::size_t mark = comm ? comm->log().count() : 0;
                const Counters c0 = Counters::now(*s);
                const auto t0 = Clock::now();
                {
                    SpanScope sp(tr, "step");
                    s->step();
                }
                r.steps.push_back(secondsBetween(t0, Clock::now()));
                r.traffic.add(c0, Counters::now(*s));
                r.traffic.addLog(comm.get(), mark);
                r.cellUpdates += double(s->totalPoints());
                ++r.nsteps;
                if (w.checkpointEvery > 0 && s->stepCount() % w.checkpointEvery == 0) {
                    writeCheckpoint(*mgr, *s);
                    ++r.ckptWrites;
                }
            }
        } catch (const std::exception& e) {
            r.stepFailed = true;
            r.error = e.what();
        }
        r.solve = secondsBetween(solveStart, Clock::now()) - r.probeTime - r.refTime;
        if (!r.stepFailed) {
            if (corrupt == "state") {
                // Deliberately wrong result (self-test): raise the density
                // of one plateau cell by half.
                bool done = false;
                forEachPlateauCell(*s, w, [&](int f, int i, int j, int k) {
                    if (done) return;
                    s->state(0).array(f)(i, j, k, core::URHO) *= 1.5;
                    done = true;
                });
            }
            r.checks.push_back(checkValid(*s, prob.cfg.gas));
            r.checks.push_back(checkShock(*s, w));
            r.checks.push_back(checkPlateau(*s, w));
            if (w.guarded) {
                r.flipsInjected = inj.stats().fired();
                const auto& log = s->recoveryLog();
                r.repaired = log.successes(resilience::Rung::FabRestore) +
                             log.successes(resilience::Rung::StepRollback);
                int failures = 0;
                for (const auto& e : log.events()) failures += e.success ? 0 : 1;
                const bool ok = r.flipsInjected == r.flipsPlanned &&
                                r.repaired == r.flipsInjected && failures == 0;
                r.checks.push_back({"flips_repaired", ok, double(r.repaired),
                                    double(r.flipsPlanned)});
            }
        }
        r.rollbacks = s->rollbackCount();
        r.totals = s->conservedTotals();
        lastBoxes = 0;
        for (int lev = 0; lev <= s->finestLevel(); ++lev) lastBoxes += s->boxArray(lev).size();
        lastPoints = double(s->totalPoints());
        lastReduction = 1.0 - lastPoints / double(s->equivalentPoints());
        s->setSdcInjector(nullptr);
        if (!r.stepFailed) {
            try {
                writeCheckpoint(*mgr, *s);
                ++r.ckptWrites;
                live.freshComm = w.nranks > 1
                                     ? std::make_unique<parallel::SimComm>(w.nranks)
                                     : nullptr;
                live.fresh = construct(prob.cfg, live.freshComm.get());
                const auto ic = prob.dmr.initialCondition();
                const auto t0 = Clock::now();
                {
                    SpanScope sp(tr, "restart");
                    mgr->restoreLatest([&](const std::string& d) {
                        SpanScope rd(tr, "resilience.restart_read");
                        live.fresh->readCheckpoint(d, ic, bc);
                    });
                }
                r.restart = secondsBetween(t0, Clock::now());
            } catch (const std::exception& e) {
                r.restartFailed = true;
                r.error = e.what();
            }
        }
        r.scale = kRefNominal / ref.medianSince(firstRef);
        live.comm = std::move(comm);
        live.solver = std::move(s);
        live.mgr = std::move(mgr);
        return r;
    }
};

// ---------------------------------------------------------------------------
// JSON report

class Json {
public:
    void key(const std::string& k) {
        sep();
        out_ << '"' << k << "\":";
        fresh_ = true;
    }
    void num(double v) {
        sep();
        if (!std::isfinite(v)) {
            out_ << "null";
        } else {
            char b[40];
            std::snprintf(b, sizeof b, "%.10g", v);
            out_ << b;
        }
    }
    void str(const std::string& v) {
        sep();
        out_ << '"';
        for (char c : v) {
            if (c == '"' || c == '\\') out_ << '\\' << c;
            else if (c == '\n') out_ << "\\n";
            else if (static_cast<unsigned char>(c) < 0x20) out_ << ' ';
            else out_ << c;
        }
        out_ << '"';
    }
    void boolean(bool v) {
        sep();
        out_ << (v ? "true" : "false");
    }
    void begin(char c) {
        sep();
        out_ << c;
        fresh_ = true;
    }
    void end(char c) {
        out_ << c;
        fresh_ = false;
    }
    std::string text() const { return out_.str(); }

private:
    void sep() {
        if (!fresh_) out_ << ',';
        fresh_ = false;
    }
    std::ostringstream out_;
    bool fresh_ = true;
};

struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string kind; ///< measured | count | modeled
};

double peakRssMb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/// Share of the median traced step time that the layer spans account for:
/// each probed layer's per-probe self time times the number of times one
/// step calls it (three RK3 stages for FillPatch and the stage kernels, once
/// for the per-step layers, the guard layers only on the guarded workload),
/// plus the regrid span on a workload that regrids every step. Tagging and
/// metric regeneration are parts of regrid, and fill_boundary and
/// parallel_copy parts of FillPatch, so they are not counted again.
double probeCoverage(const std::vector<Metric>& metrics, const Workload& w,
                     double stepMedian) {
    const double guard = w.guarded ? 1.0 : 0.0;
    const std::map<std::string, double> perStep = {
        {"amr.fill_patch_s", 3},    {"amr.fill_patch_fine_s", 3},
        {"problems.bc_fill_s", 3},  {"core.weno_x_s", 3},
        {"core.weno_y_s", 3},       {"core.weno_z_s", 3},
        {"core.viscous_s", 3},      {"core.update_s", 3},
        {"amr.average_down_s", 1},  {"core.compute_dt_s", 1},
        {"resilience.health_s", 1}, {"amr.regrid_s", w.regridFreq == 1 ? 1.0 : 0.0},
        {"resilience.stamp_s", guard}, {"resilience.verify_s", guard},
        {"resilience.dual_exec_s", w.sdcSample > 0 ? guard * 3.0 / w.sdcSample : 0.0},
    };
    double covered = 0.0;
    for (const auto& m : metrics) {
        const auto it = perStep.find(m.name);
        if (it != perStep.end()) covered += it->second * m.value;
    }
    return stepMedian > 0 ? covered / stepMedian : 0.0;
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out = ".";
    bool tiny = false;
    std::string corrupt = "none";
};

Args parseArgs(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
        const std::string v = argv[++i];
        if (k == "--workload") a.workload = v;
        else if (k == "--seed") a.seed = std::stoull(v);
        else if (k == "--seconds") a.seconds = std::stod(v);
        else if (k == "--trace") a.trace = v == "1";
        else if (k == "--out") a.out = v;
        else if (k == "--size") a.tiny = v == "tiny";
        else if (k == "--corrupt") a.corrupt = v;
        else throw std::invalid_argument("unknown option " + k);
    }
    if (a.workload.empty()) throw std::invalid_argument("--workload is required");
    if (a.corrupt != "none" && a.corrupt != "state")
        throw std::invalid_argument("--corrupt must be none or state");
    return a;
}

int runMain(const Args& args) {
    const Workload w = makeWorkload(args.workload, args.tiny);
    const Inputs in = makeInputs(args.seed);
    const Problem prob = makeProblem(w, in);
    fs::create_directories(args.out);
    Tracer tr;
    HostReference hostRef;
    Run run{w, prob, in, args.out, args.corrupt, tr, hostRef};

    std::int64_t attempted = 0, failed = 0;
    std::vector<CheckResult> allChecks;
    auto account = [&](const SolveResult& r) {
        attempted += r.nsteps + r.ckptWrites + (r.stepFailed ? 1 : 0);
        failed += r.stepFailed ? 1 : 0;
        if (!r.stepFailed) {
            ++attempted;
            failed += r.restartFailed ? 1 : 0;
        }
        if (r.restartFailed) std::fprintf(stderr, "restart failed: %s\n", r.error.c_str());
        for (const auto& c : r.checks) {
            ++attempted;
            failed += c.ok ? 0 : 1;
            allChecks.push_back(c);
        }
    };

    // Warm-up: construct, init and two steps, so the allocator and the
    // thread pool are past their first-touch costs before anything is timed.
    Live live;
    {
        auto c = w.nranks > 1 ? std::make_unique<parallel::SimComm>(w.nranks) : nullptr;
        auto s = run.construct(prob.cfg, c.get());
        s->init(prob.dmr.initialCondition(), prob.dmr.boundaryConditions());
        s->step();
        s->step();
    }
    for (int i = 0; i < 3; ++i) hostRef.sample();
    hostRef.clear();

    // Times of one kind, each scaled by its solve's reference factor, and
    // as measured.
    struct Times {
        std::vector<double> scaled, wall;
        void add(double t, double scale) {
            scaled.push_back(t * scale);
            wall.push_back(t);
        }
    };
    Times setups, solves, steps, restarts, tracedSolves, tracedSteps;
    std::array<Real, core::NCONS> refTotals{};
    int refSteps = 0;
    std::vector<SolveResult> untracedResults;
    int reps = 0, tracedReps = 0;
    const auto runStart = Clock::now();
    // An untraced run solves untraced for the whole budget and at least the
    // workload's minimum step count. A traced run alternates untraced and
    // traced solves, so a drift of the host's speed falls on both alike.
    auto more = [&] {
        if (reps < w.minReps || (args.trace && tracedReps < w.minReps)) return true;
        if (secondsBetween(runStart, Clock::now()) < args.seconds) return true;
        return !args.trace && static_cast<int>(steps.wall.size()) < w.minSteps;
    };
    // Peak resident memory through the warm-up, the first solve and its
    // restore. Later repetitions only grow the heap by allocator
    // fragmentation, by an amount that depends on how many solves fit.
    double peakRss = 0.0;
    while (more()) {
        const bool traced = args.trace && tracedReps < reps;
        SolveResult r = run.solveOnce(traced, live);
        if (reps == 0 && !traced) peakRss = peakRssMb();
        account(r);
        if (r.stepFailed) {
            std::fprintf(stderr, "%s failed: %s\n", traced ? "traced solve" : "solve",
                         r.error.c_str());
            break;
        }
        if (traced) {
            // The probe writes only scratch copies: the traced trajectory
            // must end bitwise where the untraced one did.
            const bool same = refTotals == r.totals && r.nsteps == refSteps;
            ++attempted;
            failed += same ? 0 : 1;
            allChecks.push_back({"trace_transparent", same, same ? 1.0 : 0.0, 1.0});
            tracedSolves.add(r.solve, r.scale);
            for (double t : r.steps) tracedSteps.add(t, r.scale);
            ++tracedReps;
            continue;
        }
        if (reps == 0) {
            refTotals = r.totals;
            refSteps = r.nsteps;
        }
        setups.add(r.setup, r.scale);
        solves.add(r.solve, r.scale);
        if (!r.restartFailed) restarts.add(r.restart, r.scale);
        for (double t : r.steps) steps.add(t, r.scale);
        r.checks.clear();
        untracedResults.push_back(std::move(r));
        ++reps;
    }
    // Extra setups (construct + init only) so setup_s is a median of
    // several samples even when few solves fit.
    while (static_cast<int>(setups.wall.size()) < w.minSetups && !args.trace) {
        Run::resetProcessCaches();
        auto c = w.nranks > 1 ? std::make_unique<parallel::SimComm>(w.nranks) : nullptr;
        const std::size_t firstRef = hostRef.count();
        hostRef.sample();
        const auto t0 = Clock::now();
        auto s = run.construct(prob.cfg, c.get());
        s->init(prob.dmr.initialCondition(), prob.dmr.boundaryConditions());
        const double t = secondsBetween(t0, Clock::now());
        hostRef.sample();
        setups.add(t, kRefNominal / hostRef.medianSince(firstRef));
    }

    // Restart check: one more step of the latest solve's solver and of the
    // fresh solver its final checkpoint was restored into must agree bitwise.
    ++attempted;
    bool restartOk = false;
    if (live.solver && live.fresh) {
        try {
            for (auto* x : {live.solver.get(), live.fresh.get()}) x->step();
            restartOk = bitwiseSameState(*live.solver, *live.fresh);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "restart check failed: %s\n", e.what());
        }
    }
    failed += restartOk ? 0 : 1;
    allChecks.push_back({"restart_bitwise", restartOk, restartOk ? 1.0 : 0.0, 1.0});
    if (live.mgr) fs::remove_all(live.mgr->root());
    live.reset();
    tr.setEnabled(false);

    // Metrics.
    std::vector<Metric> metrics;
    const int tailP = tailPercentile(w.minSteps);
    if (!args.trace) {
        metrics.push_back({"setup_s", median(setups.scaled), "s", "measured"});
        metrics.push_back({"solve_s", median(solves.scaled), "s", "measured"});
        metrics.push_back({"step_p50_s", median(steps.scaled), "s", "measured"});
        metrics.push_back({"step_tail_s", percentile(steps.scaled, tailP), "s", "measured"});
        metrics.push_back({"peak_rss_mb", peakRss, "MB", "measured"});
        metrics.push_back({"restart_s", median(restarts.scaled), "s", "measured"});
    } else {
        const auto self = tr.selfTimes();
        const auto& spans = tr.spans();
        // Span times are scaled by the run's median reference time.
        const double runScale = kRefNominal / hostRef.medianSince(0);
        // Per probe: the sum of the self times of the spans named `name`
        // under it; then the median over probes. Parents are recorded before
        // their children, so one pass suffices.
        auto P = [&](const std::string& name) {
            std::vector<int> scopeOf(spans.size(), -1);
            std::map<int, double> acc;
            for (std::size_t i = 0; i < spans.size(); ++i) {
                const int p = spans[i].parent;
                if (std::string("probe") == spans[i].name) {
                    scopeOf[i] = static_cast<int>(i);
                    acc[scopeOf[i]] = 0.0;
                } else if (p >= 0) {
                    scopeOf[i] = scopeOf[static_cast<std::size_t>(p)];
                }
                if (scopeOf[i] >= 0 && name == spans[i].name) acc[scopeOf[i]] += self[i];
            }
            std::vector<double> v;
            for (const auto& [k, x] : acc) v.push_back(x);
            return median(v) * runScale;
        };
        auto spanMedian = [&](const std::string& name) {
            std::vector<double> v;
            for (std::size_t i = 0; i < spans.size(); ++i)
                if (name == spans[i].name) v.push_back(self[i]);
            return median(v) * runScale;
        };
        // Counts and TinyProfiler region times from the untraced solves.
        StepTraffic tt;
        double cellUpdates = 0, nsteps = 0, stepSeconds = 0, flips = 0, repaired = 0,
               rollbacks = 0;
        std::vector<double> regridPerStep;
        for (const auto& r : untracedResults) {
            tt.merge(r.traffic);
            cellUpdates = r.cellUpdates;
            nsteps += r.nsteps;
            for (double x : r.steps) stepSeconds += x;
            flips += double(r.flipsInjected);
            repaired += double(r.repaired);
            rollbacks += r.rollbacks;
            regridPerStep.push_back(r.traffic.region("Regrid") / std::max(1, r.nsteps) * r.scale);
        }
        const double nsolves = std::max<double>(1.0, double(untracedResults.size()));
        const double perStep = nsteps > 0 ? 1.0 / nsteps : 0.0;
        auto ratio = [](double a, double b) { return b > 0 ? a / b : 1.0; };
        const double rankTotal = [&] {
            double t = 0;
            for (double b : tt.rankBytes) t += b;
            return t;
        }();
        const double rankMax = tt.rankBytes.empty()
                                   ? 0.0
                                   : *std::max_element(tt.rankBytes.begin(), tt.rankBytes.end());
        const double untracedSolve = median(solves.scaled);
        metrics.push_back({"core.weno_x_s", P("core.weno_x"), "s", "measured"});
        metrics.push_back({"core.weno_y_s", P("core.weno_y"), "s", "measured"});
        metrics.push_back({"core.weno_z_s", P("core.weno_z"), "s", "measured"});
        metrics.push_back({"core.viscous_s", P("core.viscous"), "s", "measured"});
        metrics.push_back({"core.update_s", P("core.update"), "s", "measured"});
        metrics.push_back({"core.compute_dt_s", P("core.compute_dt"), "s", "measured"});
        metrics.push_back({"core.tag_s", P("core.tag"), "s", "measured"});
        metrics.push_back({"core.cell_updates", cellUpdates, "count", "count"});
        metrics.push_back({"core.cell_updates_per_s", ratio(cellUpdates, untracedSolve),
                           "1/s", "measured"});
        metrics.push_back({"amr.regrid_s", median(regridPerStep), "s", "measured"});
        metrics.push_back({"mesh.metrics_s", P("mesh.metrics"), "s", "measured"});
        metrics.push_back({"amr.comm_cache_hit_ratio",
                           ratio(tt.cacheHits, tt.cacheHits + tt.cacheMisses), "ratio", "count"});
        metrics.push_back({"amr.comm_cache_builds", tt.cacheMisses / nsolves, "count", "count"});
        metrics.push_back({"amr.average_down_s", P("amr.average_down"), "s", "measured"});
        metrics.push_back({"amr.boxes", run.lastBoxes, "count", "count"});
        metrics.push_back({"amr.active_points", run.lastPoints, "count", "count"});
        metrics.push_back({"amr.point_reduction", run.lastReduction, "ratio", "count"});
        metrics.push_back({"amr.fill_patch_s", P("amr.fill_patch"), "s", "measured"});
        metrics.push_back({"amr.fill_patch_fine_s", P("amr.fill_patch_fine"), "s", "measured"});
        metrics.push_back({"amr.fill_boundary_s", P("amr.fill_boundary"), "s", "measured"});
        metrics.push_back({"amr.parallel_copy_s", P("amr.parallel_copy"), "s", "measured"});
        metrics.push_back({"problems.bc_fill_s", P("problems.bc_fill"), "s", "measured"});
        metrics.push_back({"parallel.msgs_per_step", tt.msgs * perStep, "msg/step", "count"});
        metrics.push_back({"parallel.bytes_per_step", tt.bytes * perStep, "B/step", "count"});
        metrics.push_back({"parallel.p2p_msgs", tt.p2p * perStep, "msg/step", "count"});
        metrics.push_back({"parallel.pc_msgs", tt.pc * perStep, "msg/step", "count"});
        metrics.push_back({"parallel.reduce_msgs", tt.red * perStep, "msg/step", "count"});
        metrics.push_back({"parallel.busiest_rank_share", rankTotal > 0 ? rankMax / rankTotal : 0.0,
                           "ratio", "count"});
        metrics.push_back({"gpu.launches_per_step", tt.launches * perStep, "launch/step",
                           "modeled"});
        metrics.push_back({"gpu.scratch_hit_ratio",
                           ratio(tt.poolHits, tt.poolHits + tt.poolMisses), "ratio", "count"});
        metrics.push_back({"resilience.health_s", P("resilience.health"), "s", "measured"});
        metrics.push_back({"resilience.stamp_s", P("resilience.stamp"), "s", "measured"});
        metrics.push_back({"resilience.verify_s", P("resilience.verify"), "s", "measured"});
        metrics.push_back({"resilience.dual_exec_s", P("resilience.dual_exec"), "s", "measured"});
        metrics.push_back({"resilience.checkpoint_write_s",
                           spanMedian("resilience.checkpoint_write"), "s", "measured"});
        metrics.push_back({"resilience.checkpoint_mb", double(run.ckptBytes) / (1024.0 * 1024.0),
                           "MB", "count"});
        metrics.push_back({"resilience.restart_read_s", spanMedian("resilience.restart_read"),
                           "s", "measured"});
        metrics.push_back({"resilience.flips_injected", flips / nsolves, "count", "count"});
        metrics.push_back({"resilience.repair_ratio", ratio(repaired, flips), "ratio", "count"});
        metrics.push_back({"resilience.rollbacks", rollbacks / nsolves, "count", "count"});
        metrics.push_back({"problems.init_s", spanMedian("problems.init"), "s", "measured"});
        // The layer spans and the traced steps they are compared with, both
        // scaled by the run's factor.
        metrics.push_back({"trace.probe_coverage",
                           probeCoverage(metrics, w, median(tracedSteps.wall) * runScale),
                           "ratio", "measured"});
        metrics.push_back({"trace.overhead_s", median(tracedSolves.scaled) - untracedSolve, "s",
                           "measured"});
        // Shares of the untraced step time spent in the solver's own
        // TinyProfiler regions: what a workload is bound by.
        auto share = [&](std::initializer_list<const char*> names) {
            double t = 0;
            for (const char* n : names) t += tt.region(n);
            return stepSeconds > 0 ? t / stepSeconds : 0.0;
        };
        metrics.push_back({"share.regrid", share({"Regrid"}), "ratio", "measured"});
        metrics.push_back({"share.metrics", share({"InitGridMetrics"}), "ratio", "measured"});
        metrics.push_back({"share.fill_patch", share({"FillPatch"}), "ratio", "measured"});
        metrics.push_back({"share.weno", share({"WENOx", "WENOy", "WENOz"}), "ratio", "measured"});
        metrics.push_back({"share.viscous", share({"Viscous"}), "ratio", "measured"});
        metrics.push_back({"share.sdc_guard", share({"SdcStamp", "SdcVerify", "SdcDualExec"}),
                           "ratio", "measured"});
        metrics.push_back({"share.health", share({"HealthCheck"}), "ratio", "measured"});
        tr.writeChrome(args.out + "/trace-" + w.name + "-seed" + std::to_string(args.seed) +
                       ".json");
    }
    // Every time and rate above is scaled to the reference host speed.
    for (auto& m : metrics)
        if (m.unit == "s" || m.unit == "1/s") m.kind = "measured, host-scaled";
    if (!args.trace) {
        metrics.push_back({"wall.setup_s", median(setups.wall), "s", "measured"});
        metrics.push_back({"wall.solve_s", median(solves.wall), "s", "measured"});
        metrics.push_back({"wall.step_p50_s", median(steps.wall), "s", "measured"});
        metrics.push_back({"wall.step_tail_s", percentile(steps.wall, tailP), "s", "measured"});
        metrics.push_back({"wall.restart_s", median(restarts.wall), "s", "measured"});
    }
    metrics.push_back({"host.ref_s", hostRef.medianSince(0), "s", "measured"});

    // Report.
    Json j;
    j.begin('{');
    j.key("workload");
    j.str(w.name);
    j.key("attempted");
    j.num(double(attempted));
    j.key("failed");
    j.num(double(failed));
    j.key("env");
    j.begin('{');
    j.key("seed");
    j.num(double(args.seed));
    j.key("gpu_num_threads");
    j.num(gpu::numThreads());
    j.key("hardware_concurrency");
    j.num(std::thread::hardware_concurrency());
#ifdef NDEBUG
    j.key("build_type");
    j.str("Release (-O2 -DNDEBUG)");
#else
    j.key("build_type");
    j.str("assertions on");
#endif
    j.key("wave_amplitude");
    j.num(in.waveAmplitude);
    j.key("grid");
    j.str(std::to_string(w.dmr.nx) + "x" + std::to_string(w.dmr.ny) + "x" +
          std::to_string(w.dmr.nz) + " max_level " + std::to_string(w.dmr.maxLevel) +
          " max_grid_size " + std::to_string(w.maxGridSize));
    j.key("ranks");
    j.num(w.nranks);
    j.key("t_end");
    j.num(w.tEnd);
    j.key("untraced_solves");
    j.num(reps);
    j.key("traced_solves");
    j.num(tracedReps);
    j.key("step_samples");
    j.num(double(steps.wall.size()));
    j.key("tail_percentile");
    j.num(tailP);
    j.key("setup_samples");
    j.num(double(setups.wall.size()));
    j.key("restart_samples");
    j.num(double(restarts.wall.size()));
    j.key("ref_samples");
    j.num(double(hostRef.count()));
    j.end('}');
    j.key("checks");
    j.begin('[');
    // One entry per check name: all results, worst value.
    std::map<std::string, std::pair<int, int>> tally;
    std::map<std::string, std::pair<double, double>> worst;
    for (const auto& c : allChecks) {
        auto& t = tally[c.name];
        ++t.first;
        t.second += c.ok ? 0 : 1;
        auto it = worst.find(c.name);
        if (it == worst.end()) worst[c.name] = {c.value, c.limit};
        else it->second.first = std::max(it->second.first, c.value);
    }
    for (const auto& [name, t] : tally) {
        j.begin('{');
        j.key("name");
        j.str(name);
        j.key("runs");
        j.num(t.first);
        j.key("failed");
        j.num(t.second);
        j.key("worst");
        j.num(worst[name].first);
        j.key("limit");
        j.num(worst[name].second);
        j.end('}');
    }
    j.end(']');
    j.key("metrics");
    j.begin('[');
    for (const auto& m : metrics) {
        j.begin('{');
        j.key("name");
        j.str(m.name);
        j.key("value");
        j.num(m.value);
        j.key("unit");
        j.str(m.unit);
        j.key("kind");
        j.str(m.kind);
        j.end('}');
    }
    j.end(']');
    j.end('}');
    std::printf("%s\n", j.text().c_str());
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    try {
        return runMain(parseArgs(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "dmr_bench: %s\n", e.what());
        return 2;
    }
}
