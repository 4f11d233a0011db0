#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace crocco::perf {

/// Region-based wall-clock profiler mirroring amrex::TinyProfiler, the tool
/// the paper used to collect Figs. 6-7. Regions are named, may nest, and
/// accumulate inclusive wall-clock seconds + call counts — nothing else.
/// Every other quantity has its own single account: messages and bytes per
/// tag in parallel::CommLog, kernel launches in gpu::LaunchStats, pattern
/// cache hits and builds in amr::CommCache::Stats, and modeled DRAM bytes
/// in core/KernelProfiles (which machine::ScalingSimulator prices).
class TinyProfiler {
public:
    struct Entry {
        std::string name;
        double seconds = 0.0;
        std::int64_t calls = 0;
    };

    /// RAII timer for one region.
    class Scope {
    public:
        Scope(TinyProfiler& p, std::string name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        TinyProfiler& prof_;
        std::string name_;
        std::chrono::steady_clock::time_point start_;
    };

    /// Charge `seconds` and `calls` to a region directly (what Scope does
    /// on exit).
    void addTime(const std::string& name, double seconds, std::int64_t calls = 1);

    double seconds(const std::string& name) const;
    std::int64_t calls(const std::string& name) const;
    bool has(const std::string& name) const { return entries_.count(name) > 0; }

    /// All regions sorted by descending time.
    std::vector<Entry> report() const;

    /// Render the report as a fixed-width table (like TinyProfiler output).
    std::string table() const;

    void reset() { entries_.clear(); }

private:
    std::map<std::string, Entry> entries_;
};

} // namespace crocco::perf
