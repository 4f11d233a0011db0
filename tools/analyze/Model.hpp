#pragma once

#include "Lexer.hpp"
#include "Outline.hpp"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace crocco::analyze {

/// One rule violation. `file` is root-relative with '/' separators, so
/// findings (and the SARIF artifact) are stable across checkouts.
struct Finding {
    std::string rule;    ///< "R1".."R7", "A1".."A6" (A5 retired)
    std::string file;
    int line = 0;
    std::string message;
    bool suppressed = false; ///< matched an inline allow — reported only with --show-suppressed
};

struct RuleInfo {
    std::string id;
    std::string title;    ///< one-line contract
    std::string helpUri;  ///< docs/correctness.md anchor
};

/// Inline suppressions parsed from comments:
///   // crocco-analyze:allow(R1[,R7...])[: reason]        same or next line
///   // crocco-analyze:allow-file(R1[,...]): reason       whole file
/// The reason is mandatory for allow-file (a file-wide waiver with no
/// rationale is exactly the grep allowlist this tool replaces).
struct Suppressions {
    std::set<std::string> fileRules;             ///< allow-file rules
    std::map<int, std::set<std::string>> lineRules; ///< line -> rules allowed there
    std::vector<std::string> malformed;          ///< allow-file without reason etc.

    /// True when a finding of `rule` at `line` is waived. A line-granular
    /// allow covers findings on its own line and on the next line (comment-
    /// above style).
    bool covers(const std::string& rule, int line) const {
        if (fileRules.count(rule) || fileRules.count("*")) return true;
        for (int l : {line, line - 1}) {
            auto it = lineRules.find(l);
            if (it != lineRules.end() &&
                (it->second.count(rule) || it->second.count("*")))
                return true;
        }
        return false;
    }
};

Suppressions parseSuppressions(const LexedFile& lexed);

/// A parsed source file: lexed tokens + structural outline + suppressions.
struct SourceFile {
    LexedFile lexed;
    Outline outline;
    Suppressions suppressions;
};

/// Everything the checks see. `files` holds the C++ sources under the scan
/// roots (root-relative paths); `docFiles` holds raw text of docs/*.md and
/// README.md for the deck-key registry check.
struct Project {
    std::string root;
    std::vector<SourceFile> files;
    std::map<std::string, std::string> docFiles; ///< path -> contents
};

} // namespace crocco::analyze
