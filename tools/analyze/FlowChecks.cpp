// The whole-program passes A1, A3 and A4. These are the checks the grep
// lint could never express: they need function bodies, call-argument
// structure, the include graph, and cross-file state.

#include "Checks.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <sstream>

namespace crocco::analyze {

namespace {

bool startsWith(const std::string& s, const std::string& prefix) {
    return s.rfind(prefix, 0) == 0;
}
bool inSrc(const std::string& path) { return startsWith(path, "src/"); }

std::string lowered(std::string s) {
    for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

void add(std::vector<Finding>& out, const char* rule, const std::string& file,
         int line, const std::string& message) {
    out.push_back({rule, file, line, message, false});
}

bool isPunct(const Token& t, const char* s) {
    return t.kind == TokKind::Punct && t.text == s;
}
bool isIdent(const Token& t) { return t.kind == TokKind::Identifier; }
bool isIdent(const Token& t, const char* s) {
    return t.kind == TokKind::Identifier && t.text == s;
}

// ====================================================================
// A1 — kernel dataflow
// ====================================================================

/// A parsed lambda: parameter names + body token span (exclusive of braces).
struct Lambda {
    std::vector<std::string> params;
    std::size_t bodyBegin = 0; ///< token index of '{'
    std::size_t bodyEnd = 0;   ///< token index of matching '}'
    bool valid = false;
};

/// Parse a lambda whose '[' introducer is at `lb`.
Lambda parseLambda(const std::vector<Token>& toks, std::size_t lb) {
    Lambda lam;
    std::size_t rb = matchForward(toks, lb); // ']'
    if (rb >= toks.size()) return lam;
    std::size_t p = rb + 1;
    if (p < toks.size() && isPunct(toks[p], "(")) {
        std::size_t rp = matchForward(toks, p);
        if (rp >= toks.size()) return lam;
        // Parameter names: the last identifier of each top-level comma group.
        std::size_t last = 0;
        bool seen = false;
        int depth = 0;
        for (std::size_t j = p + 1; j <= rp; ++j) {
            const Token& t = toks[j];
            if (t.kind == TokKind::Punct) {
                if (t.text == "(" || t.text == "<") ++depth;
                else if (t.text == ")" || t.text == ">") --depth;
                if ((t.text == "," && depth == 0) || j == rp) {
                    if (seen) lam.params.push_back(toks[last].text);
                    seen = false;
                    continue;
                }
            }
            if (isIdent(t)) {
                last = j;
                seen = true;
            }
        }
        p = rp + 1;
    }
    while (p < toks.size() && isIdent(toks[p])) ++p; // mutable / noexcept
    if (p >= toks.size() || !isPunct(toks[p], "{")) return lam;
    lam.bodyBegin = p;
    lam.bodyEnd = matchForward(toks, p);
    lam.valid = lam.bodyEnd < toks.size();
    return lam;
}

/// Find the kernel lambda inside a launch call's argument range.
Lambda kernelLambda(const std::vector<Token>& toks, const CallExpr& call) {
    for (std::size_t j = static_cast<std::size_t>(call.lparen) + 1;
         j < static_cast<std::size_t>(call.rparen); ++j) {
        if (isPunct(toks[j], "[") &&
            (isPunct(toks[j - 1], "(") || isPunct(toks[j - 1], ","))) {
            Lambda lam = parseLambda(toks, j);
            if (lam.valid) return lam;
        }
    }
    return {};
}

const std::vector<std::string> kMutatingMethods = {
    "push_back", "emplace_back", "pop_back", "insert", "emplace",
    "erase",     "clear",        "resize",   "assign",
};

/// Scan a token span for mutation of reachable (captured) state:
/// member increment/decrement, member compound assignment, and mutating
/// container methods. Plain `++local` on a body-local scalar is NOT
/// matched — only member accesses, which a kernel-local variable has no
/// business receiving.
bool findMutation(const std::vector<Token>& toks, std::size_t begin,
                  std::size_t end, int& line, std::string& what) {
    for (std::size_t q = begin; q < end; ++q) {
        const Token& t = toks[q];
        if (t.kind != TokKind::Punct) continue;
        const bool incdec = t.text == "++" || t.text == "--";
        const bool compound = t.text == "+=" || t.text == "-=" ||
                              t.text == "*=" || t.text == "/=" ||
                              t.text == "|=" || t.text == "&=";
        // prefix: ++ ident (. ident)+
        if (incdec && q + 3 < end && isIdent(toks[q + 1]) &&
            (isPunct(toks[q + 2], ".") || isPunct(toks[q + 2], "->")) &&
            isIdent(toks[q + 3])) {
            line = t.line;
            what = t.text + toks[q + 1].text + toks[q + 2].text + toks[q + 3].text;
            return true;
        }
        // postfix / compound: ident . ident ++|+=
        if ((incdec || compound) && q >= 3 && isIdent(toks[q - 1]) &&
            (isPunct(toks[q - 2], ".") || isPunct(toks[q - 2], "->")) &&
            isIdent(toks[q - 3])) {
            line = t.line;
            what = toks[q - 3].text + toks[q - 2].text + toks[q - 1].text + t.text;
            return true;
        }
        // mutating container method: . push_back (
        if ((t.text == "." || t.text == "->") && q + 2 < end &&
            isIdent(toks[q + 1]) && isPunct(toks[q + 2], "(")) {
            for (const std::string& m : kMutatingMethods)
                if (toks[q + 1].text == m) {
                    line = toks[q + 1].line;
                    what = toks[q + 1].text + "()";
                    return true;
                }
        }
    }
    return false;
}

/// How an argument relates to the kernel's cell parameters.
enum class ArgKind { Base, Shifted, Other };

ArgKind classifyArg(const std::vector<Token>& toks, std::size_t begin,
                    std::size_t end, const std::vector<std::string>& params) {
    auto isParam = [&](const Token& t) {
        return isIdent(t) &&
               std::find(params.begin(), params.end(), t.text) != params.end();
    };
    if (end - begin == 1 && isParam(toks[begin])) return ArgKind::Base;
    bool hasParam = false, hasShift = false;
    for (std::size_t j = begin; j < end; ++j) {
        if (isParam(toks[j])) {
            hasParam = true;
            if (j > begin && (isPunct(toks[j - 1], "+") || isPunct(toks[j - 1], "-")))
                hasShift = true;
            if (j + 1 < end && (isPunct(toks[j + 1], "+") || isPunct(toks[j + 1], "-")))
                hasShift = true;
        }
    }
    if (hasParam && hasShift) return ArgKind::Shifted;
    if (hasParam) return ArgKind::Base; // e.g. (i, j, k, comp)
    return ArgKind::Other;
}

bool isWriteAfter(const std::vector<Token>& toks, std::size_t rp) {
    if (rp + 1 >= toks.size()) return false;
    const Token& t = toks[rp + 1];
    return t.kind == TokKind::Punct &&
           (t.text == "=" || t.text == "+=" || t.text == "-=" ||
            t.text == "*=" || t.text == "/=");
}

/// Per-view access summary inside one cell-kernel body.
struct ViewUse {
    int writeBaseLine = 0, writeShiftLine = 0;
    int readBaseLine = 0, readShiftLine = 0;
};

void scanCellKernel(const SourceFile& sf, const Lambda& lam,
                    const std::string& launch, int launchLine,
                    const std::map<std::string, std::pair<int, std::string>>& impureLocals,
                    std::vector<Finding>& out) {
    const auto& toks = sf.lexed.tokens;

    int mline = 0;
    std::string what;
    if (findMutation(toks, lam.bodyBegin + 1, lam.bodyEnd, mline, what))
        add(out, "A1", sf.lexed.path, mline,
            "cell kernel in " + launch + " mutates captured state (" + what +
                "): every thread races on it — reduce through gpu::ReduceMin/"
                "ReduceMax or move the side effect out of the launch");

    std::map<std::string, ViewUse> views;
    for (std::size_t ti = lam.bodyBegin + 1; ti + 1 < lam.bodyEnd; ++ti) {
        if (!isIdent(toks[ti]) || !isPunct(toks[ti + 1], "(")) continue;
        const std::size_t rp = matchForward(toks, ti + 1);
        if (rp >= lam.bodyEnd) continue;

        auto it = impureLocals.find(toks[ti].text);
        if (it != impureLocals.end())
            add(out, "A1", sf.lexed.path, toks[ti].line,
                "cell kernel in " + launch + " calls local lambda '" +
                    toks[ti].text + "' which mutates captured state (" +
                    it->second.second + " at line " +
                    std::to_string(it->second.first) +
                    "): every thread races on it");

        // Decompose arguments against the cell params.
        bool anyBase = false, anyShift = false;
        std::size_t argBegin = ti + 2;
        int depth = 0;
        auto flush = [&](std::size_t argEnd) {
            if (argEnd <= argBegin) return;
            ArgKind k = classifyArg(toks, argBegin, argEnd, lam.params);
            if (k == ArgKind::Base) anyBase = true;
            if (k == ArgKind::Shifted) anyShift = true;
        };
        for (std::size_t j = ti + 2; j < rp; ++j) {
            const Token& t = toks[j];
            if (t.kind != TokKind::Punct) continue;
            if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
            else if (t.text == ")" || t.text == "]" || t.text == "}") --depth;
            else if (t.text == "," && depth == 0) {
                flush(j);
                argBegin = j + 1;
            }
        }
        flush(rp);
        if (!anyBase && !anyShift) continue; // not indexed by the cell: not a view access

        ViewUse& u = views[toks[ti].text];
        const bool write = isWriteAfter(toks, rp);
        const int line = toks[ti].line;
        if (write && anyShift) u.writeShiftLine = u.writeShiftLine ? u.writeShiftLine : line;
        else if (write) u.writeBaseLine = u.writeBaseLine ? u.writeBaseLine : line;
        else if (anyShift) u.readShiftLine = u.readShiftLine ? u.readShiftLine : line;
        else u.readBaseLine = u.readBaseLine ? u.readBaseLine : line;
        ti = rp; // skip past this access
    }

    for (const auto& [name, u] : views) {
        if (u.writeBaseLine && u.readShiftLine) {
            std::ostringstream os;
            os << "cell kernel in " << launch << " writes '" << name
               << "' at the cell (line " << u.writeBaseLine
               << ") and reads it at shifted indices (line " << u.readShiftLine
               << "): neighbouring threads observe half-updated data — "
                  "stage through a second fab or split the launch";
            add(out, "A1", sf.lexed.path, u.readShiftLine, os.str());
        } else if (u.writeShiftLine &&
                   (u.readBaseLine || u.readShiftLine || u.writeBaseLine)) {
            std::ostringstream os;
            os << "cell kernel in " << launch << " writes '" << name
               << "' at shifted indices (line " << u.writeShiftLine
               << ") while also touching it at other cells: threads collide "
                  "on overlapping cells — make each thread own exactly its "
                  "cell";
            add(out, "A1", sf.lexed.path, u.writeShiftLine, os.str());
        }
        (void)launchLine;
    }
}

void scanTaskKernel(const SourceFile& sf, const Lambda& lam,
                    const std::string& launch, std::vector<Finding>& out) {
    const auto& toks = sf.lexed.tokens;
    if (lam.params.empty()) return;

    // Derived set: the task parameter plus every local assigned from it.
    std::set<std::string> derived(lam.params.begin(), lam.params.end());
    for (int pass = 0; pass < 3; ++pass) {
        bool grew = false;
        for (std::size_t q = lam.bodyBegin + 1; q + 1 < lam.bodyEnd; ++q) {
            if (!isIdent(toks[q]) || !isPunct(toks[q + 1], "=")) continue;
            if (derived.count(toks[q].text)) continue;
            for (std::size_t j = q + 2; j < lam.bodyEnd; ++j) {
                if (isPunct(toks[j], ";")) break;
                if (isIdent(toks[j]) && derived.count(toks[j].text)) {
                    derived.insert(toks[q].text);
                    grew = true;
                    break;
                }
            }
        }
        if (!grew) break;
    }

    // Spans controlled by an if whose condition mentions the derived set
    // (the "task 0 drains" idiom): writes there are task-conditioned.
    std::vector<std::pair<std::size_t, std::size_t>> exempt;
    for (std::size_t q = lam.bodyBegin + 1; q + 1 < lam.bodyEnd; ++q) {
        if (!isIdent(toks[q], "if") || !isPunct(toks[q + 1], "(")) continue;
        const std::size_t crp = matchForward(toks, q + 1);
        if (crp >= lam.bodyEnd) continue;
        bool mentions = false;
        for (std::size_t j = q + 2; j < crp; ++j)
            if (isIdent(toks[j]) && derived.count(toks[j].text)) mentions = true;
        if (!mentions) continue;
        std::size_t stmt = crp + 1;
        std::size_t stmtEnd;
        if (stmt < lam.bodyEnd && isPunct(toks[stmt], "{"))
            stmtEnd = matchForward(toks, stmt);
        else {
            stmtEnd = stmt;
            while (stmtEnd < lam.bodyEnd && !isPunct(toks[stmtEnd], ";"))
                ++stmtEnd;
        }
        exempt.emplace_back(stmt, stmtEnd);
        // An else branch of a task-conditioned if is also task-conditioned.
        std::size_t e = stmtEnd + 1;
        if (e < lam.bodyEnd && isIdent(toks[e], "else")) {
            std::size_t eb = e + 1;
            std::size_t ee;
            if (eb < lam.bodyEnd && isPunct(toks[eb], "{"))
                ee = matchForward(toks, eb);
            else {
                ee = eb;
                while (ee < lam.bodyEnd && !isPunct(toks[ee], ";")) ++ee;
            }
            exempt.emplace_back(eb, ee);
        }
    }
    auto isExempt = [&](std::size_t q) {
        for (const auto& [b, e] : exempt)
            if (q > b && q < e) return true;
        return false;
    };

    for (std::size_t ti = lam.bodyBegin + 1; ti + 1 < lam.bodyEnd; ++ti) {
        if (!isIdent(toks[ti]) || !isPunct(toks[ti + 1], "(")) continue;
        const std::size_t rp = matchForward(toks, ti + 1);
        if (rp >= lam.bodyEnd || !isWriteAfter(toks, rp)) continue;
        if (ti + 2 == rp) continue; // zero-arg call: not an indexed view write
        if (derived.count(toks[ti].text)) continue; // task-derived view
        if (isExempt(ti)) continue;
        bool argsDerived = false;
        for (std::size_t j = ti + 2; j < rp; ++j)
            if (isIdent(toks[j]) && derived.count(toks[j].text))
                argsDerived = true;
        if (argsDerived) continue;
        add(out, "A1", sf.lexed.path, toks[ti].line,
            "task kernel in " + launch + " writes '" + toks[ti].text +
                "' at indices independent of the task parameter '" +
                lam.params.back() +
                "': concurrent tasks collide — index the view (or derive "
                "the target) from the task id, or guard with a "
                "task-conditioned branch");
        ti = rp;
    }
}

} // namespace

void checkA1(const Project& project, std::vector<Finding>& out) {
    static const char* kCellLaunches[] = {"ParallelFor"};
    static const char* kTaskLaunches[] = {"ParallelForIndex"};
    for (const SourceFile& sf : project.files) {
        if (!inSrc(sf.lexed.path)) continue;
        const auto& toks = sf.lexed.tokens;

        // Local lambdas per function, with impurity classification:
        //   auto note = [&](...) { ++rep.count; ... };
        std::vector<std::map<std::string, std::pair<int, std::string>>>
            impureByFunc(sf.outline.functions.size());
        for (std::size_t fi = 0; fi < sf.outline.functions.size(); ++fi) {
            const FunctionDef& fn = sf.outline.functions[fi];
            for (std::size_t q = static_cast<std::size_t>(fn.bodyBegin) + 1;
                 q + 2 < static_cast<std::size_t>(fn.bodyEnd); ++q) {
                if (!isIdent(toks[q]) || !isPunct(toks[q + 1], "=") ||
                    !isPunct(toks[q + 2], "["))
                    continue;
                Lambda lam = parseLambda(toks, q + 2);
                if (!lam.valid) continue;
                int mline = 0;
                std::string what;
                if (findMutation(toks, lam.bodyBegin + 1, lam.bodyEnd, mline,
                                 what))
                    impureByFunc[fi][toks[q].text] = {mline, what};
                q = lam.bodyEnd;
            }
        }

        for (const CallExpr& call : sf.outline.calls) {
            bool cell = false, task = false;
            for (const char* n : kCellLaunches)
                if (call.name == n) cell = true;
            for (const char* n : kTaskLaunches)
                if (call.name == n) task = true;
            if (!cell && !task) continue;
            Lambda lam = kernelLambda(toks, call);
            if (!lam.valid) continue;
            static const std::map<std::string, std::pair<int, std::string>>
                kNoLocals;
            const auto& impure = call.func >= 0
                                     ? impureByFunc[static_cast<std::size_t>(
                                           call.func)]
                                     : kNoLocals;
            if (cell)
                scanCellKernel(sf, lam, call.chain + "(...)", call.line,
                               impure, out);
            else
                scanTaskKernel(sf, lam, call.chain + "(...)", out);
        }
    }
}

// ====================================================================
// A3 — deck-key registry
// ====================================================================

namespace {

const std::set<std::string> kQueryMethods = {
    "query", "queryArr", "getInt", "getDouble", "getString", "getBool",
    "contains",
};

/// File suffixes that make `foo.bar` a filename, not a deck key.
const std::set<std::string> kFileSuffixes = {
    "md",  "cpp", "hpp", "h",  "cc",  "sh",    "json", "csv",
    "txt", "py",  "yml", "yaml", "cmake", "o", "so",   "in",
};

bool isWordChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

} // namespace

std::vector<DeckKeyUse> collectDeckKeys(const Project& project) {
    std::vector<DeckKeyUse> uses;
    for (const SourceFile& sf : project.files) {
        if (!inSrc(sf.lexed.path)) continue;
        const auto& toks = sf.lexed.tokens;
        for (const CallExpr& c : sf.outline.calls) {
            if (!kQueryMethods.count(c.name) || c.argSpans.empty()) continue;
            const auto& span = c.argSpans.front();
            if (span.second - span.first != 1) continue;
            const Token& a = toks[static_cast<std::size_t>(span.first)];
            if (a.kind != TokKind::String) continue;
            if (a.text.find('.') == std::string::npos ||
                a.text.find(' ') != std::string::npos)
                continue;
            uses.push_back({a.text, sf.lexed.path, a.line});
        }
    }
    std::sort(uses.begin(), uses.end(),
              [](const DeckKeyUse& a, const DeckKeyUse& b) {
                  if (a.key != b.key) return a.key < b.key;
                  if (a.file != b.file) return a.file < b.file;
                  return a.line < b.line;
              });
    return uses;
}

void checkA3(const Project& project, std::vector<Finding>& out) {
    const std::vector<DeckKeyUse> uses = collectDeckKeys(project);
    std::set<std::string> queried;
    std::set<std::string> prefixes;
    for (const DeckKeyUse& u : uses) {
        queried.insert(u.key);
        prefixes.insert(u.key.substr(0, u.key.find('.')));
    }

    // Queried but undocumented.
    std::set<std::string> reported;
    for (const DeckKeyUse& u : uses) {
        if (!reported.insert(u.key).second) continue;
        bool documented = false;
        for (const auto& [path, text] : project.docFiles)
            if (text.find(u.key) != std::string::npos) documented = true;
        if (!documented)
            add(out, "A3", u.file, u.line,
                "deck key '" + u.key +
                    "' is queried here but documented nowhere — add it to "
                    "docs/deck-keys.md (tools/analyze --write-deck-registry "
                    "regenerates the table)");
    }

    // Documented but dead: dotted words in the docs whose first segment is
    // a queried prefix but which no code ever queries.
    for (const auto& [path, text] : project.docFiles) {
        int line = 1;
        std::size_t i = 0;
        std::set<std::string> reportedHere;
        while (i < text.size()) {
            if (text[i] == '\n') {
                ++line;
                ++i;
                continue;
            }
            if (!(std::isalpha(static_cast<unsigned char>(text[i])) ||
                  text[i] == '_')) {
                ++i;
                continue;
            }
            std::size_t b = i;
            while (i < text.size() && isWordChar(text[i])) ++i;
            std::string word = text.substr(b, i - b);
            bool dotted = false;
            while (i + 1 < text.size() && text[i] == '.' &&
                   isWordChar(text[i + 1])) {
                std::size_t sb = ++i;
                while (i < text.size() && isWordChar(text[i])) ++i;
                word += "." + text.substr(sb, i - sb);
                dotted = true;
            }
            if (!dotted) continue;
            const std::string first = word.substr(0, word.find('.'));
            const std::string last = word.substr(word.rfind('.') + 1);
            if (!prefixes.count(first) || kFileSuffixes.count(lowered(last)))
                continue;
            if (queried.count(word) || !reportedHere.insert(word).second)
                continue;
            add(out, "A3", path, line,
                "deck key '" + word +
                    "' is documented here but never queried from ParmParse — "
                    "stale docs or a dead knob; delete the mention or wire "
                    "the key up");
        }
    }
}

// ====================================================================
// A4 — module layering
// ====================================================================

namespace {

/// Headers any module may include: the POD-ish views/index layer plus the
/// flag-independent check interface (check::fail aborts in release too).
const std::set<std::string> kBaseHeaders = {
    "amr/Box.hpp", "amr/IntVect.hpp", "amr/Array4.hpp", "amr/FArrayBox.hpp",
    "check/Check.hpp",
};

/// module -> modules it may depend on (beyond itself and the base headers).
const std::map<std::string, std::set<std::string>> kAllowedEdges = {
    {"amr", {"gpu", "parallel"}},
    {"check", {}},
    {"chem", {}},
    {"core", {"amr", "gpu", "mesh", "perf", "resilience"}},
    {"gpu", {}},
    {"io", {"core", "gpu"}},
    {"machine", {"amr", "core", "gpu"}},
    {"mesh", {"amr"}},
    {"parallel", {}},
    {"perf", {}},
    {"problems", {"core", "mesh"}},
    {"resilience", {"amr", "gpu"}},
};

/// Single-header grants that cut real cycles on purpose. Each carries its
/// rationale here — this table IS the review record.
const std::map<std::string, std::set<std::string>> kHeaderGrants = {
    // amr fabs stamp their payload CRC; Crc32 is a leaf utility.
    {"resilience/Crc32.hpp", {"amr"}},
    // StateValidator/FaultInjector name the conserved-variable indices;
    // core/State.hpp is a constants-only header.
    {"core/State.hpp", {"resilience"}},
    // CommFaults draws its decision-stream seed from the unified fault
    // RNG; FaultRng is a header-only, dependency-free seed-derivation leaf.
    {"resilience/FaultRng.hpp", {"parallel"}},
};

} // namespace

void checkA4(const Project& project, std::vector<Finding>& out) {
    for (const SourceFile& sf : project.files) {
        if (!inSrc(sf.lexed.path)) continue;
        const std::string rest = sf.lexed.path.substr(4);
        const std::size_t slash = rest.find('/');
        if (slash == std::string::npos) continue;
        const std::string mod = rest.substr(0, slash);

        for (const IncludeDirective& inc : sf.outline.includes) {
            if (inc.angled) continue; // system headers
            const std::size_t hs = inc.header.find('/');
            const std::string target =
                hs == std::string::npos ? mod : inc.header.substr(0, hs);
            if (!kAllowedEdges.count(target)) continue; // not a project module

            // check/ internals must be invisible without CROCCO_CHECK.
            if (target == "check" && mod != "check" &&
                inc.header != "check/Check.hpp" && !inc.checkGuarded) {
                add(out, "A4", sf.lexed.path, inc.line,
                    "#include \"" + inc.header +
                        "\" outside src/check must sit under #ifdef "
                        "CROCCO_CHECK — only check/Check.hpp is part of the "
                        "always-on interface");
                continue;
            }
            if (target == mod || target == "check") continue;
            if (kBaseHeaders.count(inc.header)) continue;
            auto grant = kHeaderGrants.find(inc.header);
            if (grant != kHeaderGrants.end() && grant->second.count(mod))
                continue;
            auto edges = kAllowedEdges.find(mod);
            if (edges != kAllowedEdges.end() && edges->second.count(target))
                continue;
            if (edges == kAllowedEdges.end()) continue; // unknown module: no DAG claim
            add(out, "A4", sf.lexed.path, inc.line,
                "layering: src/" + mod + " must not include \"" + inc.header +
                    "\" (module '" + target +
                    "' is not a declared dependency of '" + mod +
                    "' — see the DAG in docs/correctness.md#a4)");
        }
    }
}

} // namespace crocco::analyze
