#include "perf/TinyProfiler.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace crocco::perf {

TinyProfiler::Scope::Scope(TinyProfiler& p, std::string name)
    : prof_(p), name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

TinyProfiler::Scope::~Scope() {
    const auto end = std::chrono::steady_clock::now();
    prof_.addTime(name_, std::chrono::duration<double>(end - start_).count());
}

void TinyProfiler::addTime(const std::string& name, double seconds, std::int64_t calls) {
    Entry& e = entries_[name];
    e.name = name;
    e.seconds += seconds;
    e.calls += calls;
}

double TinyProfiler::seconds(const std::string& name) const {
    auto it = entries_.find(name);
    return it == entries_.end() ? 0.0 : it->second.seconds;
}

std::int64_t TinyProfiler::calls(const std::string& name) const {
    auto it = entries_.find(name);
    return it == entries_.end() ? 0 : it->second.calls;
}

std::vector<TinyProfiler::Entry> TinyProfiler::report() const {
    std::vector<Entry> out;
    out.reserve(entries_.size());
    for (const auto& [name, e] : entries_) out.push_back(e);
    std::sort(out.begin(), out.end(),
              [](const Entry& a, const Entry& b) { return a.seconds > b.seconds; });
    return out;
}

std::string TinyProfiler::table() const {
    std::ostringstream os;
    os << std::left << std::setw(36) << "Region" << std::right << std::setw(12)
       << "Calls" << std::setw(16) << "Time (s)" << '\n';
    os << std::string(64, '-') << '\n';
    for (const Entry& e : report()) {
        os << std::left << std::setw(36) << e.name << std::right << std::setw(12)
           << e.calls << std::setw(16) << std::fixed << std::setprecision(6)
           << e.seconds << '\n';
    }
    return os.str();
}

} // namespace crocco::perf
