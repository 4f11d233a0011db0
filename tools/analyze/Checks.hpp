#pragma once

#include "Model.hpp"

#include <set>
#include <string>
#include <vector>

namespace crocco::analyze {

struct CheckOptions {
    /// Rule ids to run; empty = all. ("R1".."R7", "A1".."A6")
    std::set<std::string> rules;
};

/// The rule catalogue (id, one-line contract, docs anchor) — the same list
/// docs/correctness.md documents and the SARIF driver advertises.
const std::vector<RuleInfo>& ruleCatalog();

/// Run every (selected) check over the project. Findings come back in
/// (file, line, rule) order with `suppressed` already resolved against the
/// inline crocco-analyze:allow comments.
std::vector<Finding> runChecks(const Project& project,
                               const CheckOptions& options = {});

/// Deck keys queried from ParmParse in the project's sources, sorted;
/// used by check A3 and by --write-deck-registry.
struct DeckKeyUse {
    std::string key;
    std::string file;
    int line = 0;
};
std::vector<DeckKeyUse> collectDeckKeys(const Project& project);

// Individual passes (exposed for the test suite; runChecks composes them).
void checkR1(const Project&, std::vector<Finding>&); ///< .data() escapes
void checkR2(const Project&, std::vector<Finding>&); ///< threading primitives
void checkR3(const Project&, std::vector<Finding>&); ///< defaulted ghost counts
void checkR4(const Project&, std::vector<Finding>&); ///< forEachCell in kernels
void checkR7(const Project&, std::vector<Finding>&); ///< open-coded RK3 triple
void checkA1(const Project&, std::vector<Finding>&); ///< kernel dataflow
void checkA3(const Project&, std::vector<Finding>&); ///< deck-key registry
void checkA4(const Project&, std::vector<Finding>&); ///< module layering
void checkA6(const Project&, std::vector<Finding>&); ///< guarded recovery sources

} // namespace crocco::analyze
