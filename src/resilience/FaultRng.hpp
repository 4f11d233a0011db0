#pragma once

#include <cstdint>
#include <string_view>

namespace crocco::resilience {

/// One master seed, many independent decision streams. Every injector in
/// the fault stack (FaultInjector cell faults, CommFaults message faults,
/// SdcInjector bit flips) draws from its *own* named substream derived
/// from the master seed, so enabling or re-ordering one injector never
/// shifts another's decisions — the property the PR 6 soak digests pin.
///
/// The derivation is a splitmix64 finalizer over (master ^ FNV-1a(name)):
/// cheap, stateless, and stable across platforms. Substreams are not
/// cryptographically independent, but mt19937_64 engines seeded from
/// well-separated 64-bit values are more than decorrelated enough for
/// fault-injection schedules.
class FaultRng {
public:
    explicit FaultRng(std::uint64_t masterSeed = 0xC40CC0DEull)
        : master_(masterSeed) {}

    /// Seed for the named substream: deterministic in (master, name) only.
    std::uint64_t seedFor(std::string_view name) const {
        return substreamSeed(master_, name);
    }

    static std::uint64_t substreamSeed(std::uint64_t master,
                                       std::string_view name) {
        return splitmix64(master ^ fnv1a(name));
    }

    /// Conventional substream names used by the solver's injectors.
    static constexpr std::string_view kCellStream = "fault.cell";
    static constexpr std::string_view kCommStream = "fault.comm";
    static constexpr std::string_view kSdcStream = "fault.sdc";

private:
    static std::uint64_t fnv1a(std::string_view s) {
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (char c : s) {
            h ^= static_cast<unsigned char>(c);
            h *= 0x100000001b3ull;
        }
        return h;
    }

    static std::uint64_t splitmix64(std::uint64_t x) {
        x += 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31);
    }

    std::uint64_t master_;
};

} // namespace crocco::resilience
