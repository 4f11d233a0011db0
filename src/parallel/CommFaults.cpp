#include "parallel/CommFaults.hpp"

#include <stdexcept>

namespace crocco::parallel {

CommFaults::CommFaults(std::uint64_t seed) : rng_(seed) {}

void CommFaults::setRates(const Rates& r) {
    auto check = [](double p, const char* name) {
        if (p < 0.0 || p > 1.0)
            throw std::invalid_argument(std::string("CommFaults rate '") +
                                        name + "' must be in [0, 1]");
    };
    check(r.drop, "drop");
    check(r.duplicate, "duplicate");
    check(r.delay, "delay");
    check(r.corrupt, "corrupt");
    if (r.drop + r.duplicate + r.delay + r.corrupt > 1.0)
        throw std::invalid_argument("CommFaults rates must sum to <= 1");
    rates_ = r;
    anyRate_ = r.drop + r.duplicate + r.delay + r.corrupt > 0.0;
}

void CommFaults::armMessageFault(MessageFault kind, std::int64_t nthMessage) {
    if (nthMessage < 0)
        throw std::invalid_argument("CommFaults::armMessageFault: nth < 0");
    messageArms_.push_back({kind, nthMessage, false});
}

void CommFaults::armRankDeath(int step, int rank) {
    if (step < 0 || rank < 0)
        throw std::invalid_argument("CommFaults::armRankDeath: negative step/rank");
    deathArms_.push_back({step, rank, false});
}

std::optional<int> CommFaults::takeRankDeath(int step) {
    if (!enabled_) return std::nullopt;
    for (DeathArm& a : deathArms_) {
        if (a.spent || a.step != step) continue;
        a.spent = true;
        ++stats_.rankDeaths;
        return a.rank;
    }
    return std::nullopt;
}

std::optional<MessageFault> CommFaults::decide() {
    if (!enabled_) return std::nullopt;
    const std::int64_t n = messageCounter_++;
    ++stats_.decisions;
    auto count = [this](MessageFault k) {
        switch (k) {
            case MessageFault::Drop: ++stats_.drops; break;
            case MessageFault::Duplicate: ++stats_.duplicates; break;
            case MessageFault::Delay: ++stats_.delays; break;
            case MessageFault::Corrupt: ++stats_.corruptions; break;
        }
    };
    for (MessageArm& a : messageArms_) {
        if (a.spent || a.nth != n) continue;
        a.spent = true;
        count(a.kind);
        return a.kind;
    }
    if (!anyRate_) return std::nullopt;
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
    double c = rates_.drop;
    if (u < c) { count(MessageFault::Drop); return MessageFault::Drop; }
    c += rates_.duplicate;
    if (u < c) { count(MessageFault::Duplicate); return MessageFault::Duplicate; }
    c += rates_.delay;
    if (u < c) { count(MessageFault::Delay); return MessageFault::Delay; }
    c += rates_.corrupt;
    if (u < c) { count(MessageFault::Corrupt); return MessageFault::Corrupt; }
    return std::nullopt;
}

std::uint64_t CommFaults::corruptionWord() { return rng_(); }

} // namespace crocco::parallel
