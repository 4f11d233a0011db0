// Token-aware re-implementations of the grep rules from the old
// tools/lint.sh. The semantics are the same contracts; the matching is on
// the lexed token stream, so comments, strings, and raw strings can no
// longer produce false positives, and multi-line calls cannot dodge a rule.
//
// Path policy: each rule hard-codes only the *implementation owner* of the
// API it guards (the module where the contract lives). Reviewed callers —
// the old file-granular grep allowlists — are expressed in the source
// itself with `// crocco-analyze:allow-file(<rule>): reason` headers.

#include "Checks.hpp"

#include <set>
#include <sstream>

namespace crocco::analyze {

namespace {

bool startsWith(const std::string& s, const std::string& prefix) {
    return s.rfind(prefix, 0) == 0;
}

bool endsWith(const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool isCxxHeader(const std::string& path) { return endsWith(path, ".hpp"); }

bool inSrc(const std::string& path) { return startsWith(path, "src/"); }

void add(std::vector<Finding>& out, const char* rule, const std::string& file,
         int line, const std::string& message) {
    out.push_back({rule, file, line, message, false});
}

bool isPunct(const Token& t, const char* s) {
    return t.kind == TokKind::Punct && t.text == s;
}
bool isIdent(const Token& t, const char* s) {
    return t.kind == TokKind::Identifier && t.text == s;
}

} // namespace

// R1 — `.data()` raw-pointer escapes. Raw pointers bypass the checked
// Array4 accessors (docs/correctness.md), so every escape is a reviewed
// idiom carrying an allow-file/allow comment in the source.
void checkR1(const Project& project, std::vector<Finding>& out) {
    for (const SourceFile& sf : project.files) {
        if (!inSrc(sf.lexed.path)) continue;
        const auto& toks = sf.lexed.tokens;
        for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
            if (isPunct(toks[i], ".") && isIdent(toks[i + 1], "data") &&
                isPunct(toks[i + 2], "(") && isPunct(toks[i + 3], ")")) {
                add(out, "R1", sf.lexed.path, toks[i + 1].line,
                    ".data() raw-pointer escape bypasses the checked Array4 "
                    "accessors; route through Array4 or add a reviewed "
                    "crocco-analyze:allow(R1)");
            }
        }
    }
}

// R2 — threading primitives outside src/gpu/ThreadPool.*. All parallelism
// routes through the ThreadPool so the race detector sees it.
void checkR2(const Project& project, std::vector<Finding>& out) {
    for (const SourceFile& sf : project.files) {
        if (!inSrc(sf.lexed.path)) continue;
        if (startsWith(sf.lexed.path, "src/gpu/ThreadPool.")) continue;
        for (const PpDirective& d : sf.lexed.directives) {
            const bool badInclude =
                startsWith(d.text, "include") &&
                (d.text.find("<thread>") != std::string::npos ||
                 d.text.find("<omp.h>") != std::string::npos);
            const bool badPragma = startsWith(d.text, "pragma") &&
                                   d.text.find("omp") != std::string::npos;
            if (badInclude || badPragma)
                add(out, "R2", sf.lexed.path, d.line,
                    "#" + d.text +
                        ": threading primitive outside src/gpu/ThreadPool — "
                        "parallelism must route through the pool so the race "
                        "detector sees it");
        }
        const auto& toks = sf.lexed.tokens;
        for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
            if (isIdent(toks[i], "std") && isPunct(toks[i + 1], "::") &&
                isIdent(toks[i + 2], "thread")) {
                add(out, "R2", sf.lexed.path, toks[i].line,
                    "std::thread outside src/gpu/ThreadPool — parallelism "
                    "must route through the pool so the race detector sees "
                    "it");
            }
        }
    }
}

// R3 — defaulted ghost-count parameters (`...Grow = 0`) in headers. Call
// sites must state how many ghost layers a copy touches; silent defaults
// caused valid-region copies where ghost copies were intended.
void checkR3(const Project& project, std::vector<Finding>& out) {
    for (const SourceFile& sf : project.files) {
        if (!inSrc(sf.lexed.path) || !isCxxHeader(sf.lexed.path)) continue;
        const auto& toks = sf.lexed.tokens;
        for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
            if (toks[i].kind == TokKind::Identifier &&
                endsWith(toks[i].text, "Grow") && isPunct(toks[i + 1], "=") &&
                toks[i + 2].kind == TokKind::Number &&
                toks[i + 2].text == "0" &&
                (isPunct(toks[i + 3], ",") || isPunct(toks[i + 3], ")"))) {
                add(out, "R3", sf.lexed.path, toks[i].line,
                    toks[i].text +
                        " = 0: defaulted ghost-count parameter — call sites "
                        "must state the ghost width explicitly");
            }
        }
    }
}

// R4 — serial amr::forEachCell in the flux/transport kernel files. Kernels
// iterate through gpu::ParallelFor so A1 checks them against the
// one-thread-per-cell contract and each counts its modeled launch.
void checkR4(const Project& project, std::vector<Finding>& out) {
    static const char* kKernelFiles[] = {
        "src/core/Weno.cpp",
        "src/core/Viscous.cpp",
        "src/core/Sgs.hpp",
        "src/core/SpeciesTransport.cpp",
    };
    for (const SourceFile& sf : project.files) {
        bool isKernelFile = false;
        for (const char* k : kKernelFiles)
            if (endsWith(sf.lexed.path, k + 4) && inSrc(sf.lexed.path) &&
                sf.lexed.path.find("/core/") != std::string::npos)
                isKernelFile = true;
        if (!isKernelFile) continue;
        for (const Token& t : sf.lexed.tokens) {
            if (t.kind == TokKind::Identifier && t.text == "forEachCell")
                add(out, "R4", sf.lexed.path, t.line,
                    "forEachCell in a kernel file — iterate through "
                    "gpu::ParallelFor so the loop keeps the one-thread-"
                    "per-cell contract (A1) and counts its modeled launch");
        }
    }
}

// R7 — open-coded RK3 stage-update triples. The mult + saxpy + saxpy chain
// against the Rk3 coefficients lives in core::rk3StageUpdate only, so the
// stage update has exactly one home.
void checkR7(const Project& project, std::vector<Finding>& out) {
    auto firstArgIsRk3 = [](const std::vector<Token>& toks, std::size_t lp) {
        return lp + 2 < toks.size() && isIdent(toks[lp + 1], "Rk3") &&
               isPunct(toks[lp + 2], "::");
    };
    for (const SourceFile& sf : project.files) {
        if (!inSrc(sf.lexed.path)) continue;
        if (endsWith(sf.lexed.path, "core/Rk3.cpp")) continue;
        const auto& toks = sf.lexed.tokens;
        for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
            if (!isPunct(toks[i + 1], "(")) continue;
            const bool isMult =
                isIdent(toks[i], "mult") && i > 0 &&
                (isPunct(toks[i - 1], ".") || isPunct(toks[i - 1], "->")) &&
                firstArgIsRk3(toks, i + 1);
            bool isSaxpy = false;
            if (isIdent(toks[i], "saxpy")) {
                const std::size_t rp = matchForward(toks, i + 1);
                for (std::size_t j = i + 2; j + 1 < rp; ++j)
                    if (isIdent(toks[j], "Rk3") && isPunct(toks[j + 1], "::"))
                        isSaxpy = true;
            }
            if (isMult || isSaxpy)
                add(out, "R7", sf.lexed.path, toks[i].line,
                    "raw " + toks[i].text +
                        "() against Rk3 coefficients — the RK3 stage triple "
                        "lives in core::rk3StageUpdate");
        }
    }
}

// A6 — recovery sources are validated before they are trusted. A function
// that writes a checkpoint or buddy mirror (writeCheckpoint / buddy store)
// or reads one back (readCheckpoint) is publishing or consuming state the
// recovery ladder will later treat as ground truth; if the function never
// consults the FabGuard stamp/verify API, a silent upset rides straight
// into the recovery source and every ladder rung below it replays the
// corruption (docs/resilience.md §6). src/resilience/ itself implements
// the guard and the stores, so it is exempt.
void checkA6(const Project& project, std::vector<Finding>& out) {
    for (const SourceFile& sf : project.files) {
        if (!inSrc(sf.lexed.path)) continue;
        if (startsWith(sf.lexed.path, "src/resilience/")) continue;
        const Outline& ol = sf.outline;

        // Functions that consult the guard anywhere in their body (calls in
        // lambdas attribute to the enclosing function, which is the right
        // granularity: evolve()'s restamp lambda guards evolve's writes).
        std::set<int> guarded;
        for (const CallExpr& c : ol.calls) {
            if (c.func < 0) continue;
            if (startsWith(c.name, "stamp") || startsWith(c.name, "verify") ||
                startsWith(c.name, "sdcVerify"))
                guarded.insert(c.func);
        }

        for (const CallExpr& c : ol.calls) {
            const bool checkpoint =
                c.name == "writeCheckpoint" || c.name == "readCheckpoint";
            // `store` only counts when called through a buddy handle
            // (opts.buddy->store, buddy_.store); a plain cache store is not
            // a recovery source.
            const bool mirror = c.name == "store" &&
                                c.chain.find("uddy") != std::string::npos;
            if (!checkpoint && !mirror) continue;
            if (c.func >= 0 && guarded.count(c.func) != 0) continue;
            const std::string where =
                c.func >= 0 ? ol.functions[static_cast<std::size_t>(c.func)]
                                  .qualified
                            : "file scope";
            add(out, "A6", sf.lexed.path, c.line,
                c.chain + "() in " + where +
                    " touches checkpoint/mirror state without a FabGuard "
                    "stamp/verify in the same function — validate the "
                    "recovery source before trusting it "
                    "(docs/resilience.md, SDC threat model)");
        }
    }
}

} // namespace crocco::analyze
