#pragma once

// Shared by the seeded fault campaigns: the campaign seed, and the
// identities that tie what crossed the wire (the SimComm's CommLog) to what
// was injected (CommFaults::Stats).
#include "parallel/CommFaults.hpp"
#include "parallel/SimComm.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>

namespace crocco::testing {

/// The campaign seed: CROCCO_SDC_SEED when set (tools/ci.sh sweeps a small
/// matrix), else 2026.
inline std::uint64_t campaignSeed() {
    if (const char* env = std::getenv("CROCCO_SDC_SEED"))
        return std::strtoull(env, nullptr, 10);
    return 2026;
}

/// Every injected message fault shows on the wire as the hardened exchange
/// answers it, and nothing else does: a drop or a delay costs one
/// retransmit, a corruption one NACK and one retransmit, a duplicate one
/// `/dup` copy, and every message the injector decided on is one
/// CRC-stamped original. Holds for an enabled injector that is not in
/// persistent mode.
inline void expectWireAccountsForInjectedFaults(
    const parallel::CommLog& log, const parallel::CommFaults::Stats& injected) {
    const auto n = [](std::size_t v) { return static_cast<std::int64_t>(v); };
    const parallel::CommLog::Summary wire = log.summarize();
    EXPECT_EQ(n(wire.retransmits),
              injected.drops + injected.delays + injected.corruptions);
    EXPECT_EQ(n(wire.nacks), injected.corruptions);
    EXPECT_EQ(n(wire.duplicates), injected.duplicates);
    std::int64_t stamped = 0;
    for (const parallel::Message& m : log.messages())
        if (m.crc != 0) ++stamped;
    EXPECT_EQ(stamped, injected.decisions + n(wire.retransmits) +
                           n(wire.nacks) + n(wire.duplicates));
}

} // namespace crocco::testing
