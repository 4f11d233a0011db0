#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace crocco::perf {

/// Region-based wall-clock profiler mirroring amrex::TinyProfiler, the tool
/// the paper used to collect Figs. 6-7. Regions are named, may nest, and
/// accumulate inclusive time + call counts. The machine model also charges
/// *modeled* time into regions via addTime(), so measured and simulated
/// profiles share one reporting path.
///
/// Two further modeled columns make kernel launch and traffic costs
/// observable per region (and assertable in tests):
///  * launches — modeled device kernel launches, captured automatically by
///    Scope as the gpu::LaunchStats delta across the region;
///  * modeledBytes — modeled DRAM traffic, charged explicitly by the solver
///    via addBytes() from the KernelProfiles byte counts.
///
/// The exchange layer additionally charges per-region message traffic
/// (Msgs / MsgBytes columns) via addMessages(), so the message count and
/// volume of each exchange tag are visible per region.
class TinyProfiler {
public:
    struct Entry {
        std::string name;
        double seconds = 0.0;
        std::int64_t calls = 0;
        std::int64_t launches = 0;
        double modeledBytes = 0.0;
        std::int64_t msgs = 0;   ///< inter-rank messages sent in the region
        double msgBytes = 0.0;   ///< payload bytes of those messages
    };

    /// RAII timer for one region. Also snapshots the global launch counter
    /// so the region accumulates the kernel launches issued inside it.
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
        std::uint64_t launchStart_;
    };

    void addTime(const std::string& name, double seconds, std::int64_t calls = 1);
    void addLaunches(const std::string& name, std::int64_t launches);
    void addBytes(const std::string& name, double bytes);
    void addMessages(const std::string& name, std::int64_t msgs, double bytes);

    double seconds(const std::string& name) const;
    std::int64_t calls(const std::string& name) const;
    std::int64_t launches(const std::string& name) const;
    double modeledBytes(const std::string& name) const;
    std::int64_t messages(const std::string& name) const;
    double messageBytes(const std::string& name) const;
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
