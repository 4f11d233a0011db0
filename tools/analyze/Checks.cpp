#include "Checks.hpp"

#include <algorithm>
#include <sstream>

namespace crocco::analyze {

namespace {

/// Split "R1, R7" -> {"R1","R7"}; empty/garbage entries dropped.
std::set<std::string> splitRules(const std::string& list) {
    std::set<std::string> out;
    std::string cur;
    for (char c : list + ",") {
        if (c == ',' || c == ' ' || c == '\t') {
            if (!cur.empty()) out.insert(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    return out;
}

} // namespace

Suppressions parseSuppressions(const LexedFile& lexed) {
    Suppressions sup;
    for (const Comment& c : lexed.comments) {
        const std::string tag = "crocco-analyze:allow";
        std::size_t pos = c.text.find(tag);
        while (pos != std::string::npos) {
            std::size_t p = pos + tag.size();
            bool fileWide = false;
            if (c.text.compare(p, 5, "-file") == 0) {
                fileWide = true;
                p += 5;
            }
            if (p < c.text.size() && c.text[p] == '(') {
                std::size_t close = c.text.find(')', p);
                if (close != std::string::npos) {
                    std::set<std::string> rules =
                        splitRules(c.text.substr(p + 1, close - p - 1));
                    // A reason after the rule list: ": why this is fine".
                    std::size_t rest = c.text.find_first_not_of(" \t", close + 1);
                    const bool hasReason =
                        rest != std::string::npos && c.text[rest] == ':' &&
                        c.text.find_first_not_of(" \t", rest + 1) !=
                            std::string::npos;
                    if (fileWide && !hasReason) {
                        std::ostringstream os;
                        os << lexed.path << ":" << c.line
                           << ": allow-file without a reason (file-wide "
                              "waivers must say why)";
                        sup.malformed.push_back(os.str());
                    } else if (fileWide) {
                        sup.fileRules.insert(rules.begin(), rules.end());
                    } else {
                        sup.lineRules[c.line].insert(rules.begin(),
                                                     rules.end());
                    }
                }
            }
            pos = c.text.find(tag, pos + tag.size());
        }
    }
    return sup;
}

const std::vector<RuleInfo>& ruleCatalog() {
    static const std::vector<RuleInfo> catalog = {
        {"R1", "no .data() raw-pointer escapes outside reviewed sites",
         "docs/correctness.md#r1"},
        {"R2", "no threading primitives outside the gpu ThreadPool",
         "docs/correctness.md#r2"},
        {"R3", "no defaulted ghost-count parameters", "docs/correctness.md#r3"},
        {"R4", "no serial forEachCell in flux/transport kernel files",
         "docs/correctness.md#r4"},
        {"R7", "RK3 stage triple only inside core::rk3StageUpdate",
         "docs/correctness.md#r7"},
        {"A1", "kernel dataflow: no cross-thread write/read hazards in "
               "gpu launches",
         "docs/correctness.md#a1"},
        {"A3", "every ParmParse deck key documented, every documented key "
               "live",
         "docs/correctness.md#a3"},
        {"A4", "module layering DAG + guarded check/ includes",
         "docs/correctness.md#a4"},
        {"A6", "checkpoint/mirror traffic consults the FabGuard stamp/verify "
               "API in the same function",
         "docs/correctness.md#a6"},
    };
    return catalog;
}

std::vector<Finding> runChecks(const Project& project,
                               const CheckOptions& options) {
    std::vector<Finding> findings;
    auto want = [&](const char* id) {
        return options.rules.empty() || options.rules.count(id) != 0;
    };
    if (want("R1")) checkR1(project, findings);
    if (want("R2")) checkR2(project, findings);
    if (want("R3")) checkR3(project, findings);
    if (want("R4")) checkR4(project, findings);
    if (want("R7")) checkR7(project, findings);
    if (want("A1")) checkA1(project, findings);
    if (want("A3")) checkA3(project, findings);
    if (want("A4")) checkA4(project, findings);
    if (want("A6")) checkA6(project, findings);

    // Resolve inline suppressions (only meaningful for findings located in
    // a scanned C++ source; doc-located findings pass through).
    for (Finding& f : findings) {
        for (const SourceFile& sf : project.files) {
            if (sf.lexed.path != f.file) continue;
            f.suppressed = sf.suppressions.covers(f.rule, f.line);
            break;
        }
    }
    std::sort(findings.begin(), findings.end(),
              [](const Finding& a, const Finding& b) {
                  if (a.file != b.file) return a.file < b.file;
                  if (a.line != b.line) return a.line < b.line;
                  return a.rule < b.rule;
              });
    return findings;
}

} // namespace crocco::analyze
