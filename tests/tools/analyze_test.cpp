// crocco-analyze test suite: runs the analyzer library over the fixture
// tree in tests/tools/fixtures (a miniature repo with one positive and one
// negative case per rule) and pins the exact findings. The fixture files
// are lexed, never compiled.

#include "Checks.hpp"
#include "Report.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace crocco::analyze;
namespace fs = std::filesystem;

namespace {

std::string slurp(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    EXPECT_TRUE(in) << "cannot read fixture " << p;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/// Load a project the same way the crocco-analyze CLI does: every C++ file
/// under <root>/src plus docs/*.md, paths kept root-relative.
Project loadProject(const fs::path& root) {
    Project project;
    project.root = root.generic_string();
    std::vector<fs::path> sources;
    for (const auto& e : fs::recursive_directory_iterator(root / "src")) {
        const std::string ext = e.path().extension().string();
        if (e.is_regular_file() && (ext == ".cpp" || ext == ".hpp"))
            sources.push_back(e.path());
    }
    std::sort(sources.begin(), sources.end());
    for (const fs::path& p : sources) {
        SourceFile sf;
        sf.lexed = lex(fs::relative(p, root).generic_string(), slurp(p));
        sf.outline = buildOutline(sf.lexed);
        sf.suppressions = parseSuppressions(sf.lexed);
        project.files.push_back(std::move(sf));
    }
    if (fs::is_directory(root / "docs"))
        for (const auto& e : fs::directory_iterator(root / "docs"))
            if (e.path().extension() == ".md")
                project.docFiles[fs::relative(e.path(), root).generic_string()] =
                    slurp(e.path());
    return project;
}

const Project& fixtureProject() {
    static const Project project = loadProject(ANALYZE_FIXTURES);
    return project;
}

const std::vector<Finding>& fixtureFindings() {
    static const std::vector<Finding> findings =
        runChecks(fixtureProject(), {});
    return findings;
}

std::vector<Finding> findingsFor(const std::string& rule,
                                 bool suppressed = false) {
    std::vector<Finding> out;
    for (const Finding& f : fixtureFindings())
        if (f.rule == rule && f.suppressed == suppressed) out.push_back(f);
    return out;
}

int countIn(const std::vector<Finding>& fs, const std::string& file) {
    int n = 0;
    for (const Finding& f : fs)
        if (f.file == file) ++n;
    return n;
}

} // namespace

// ------------------------------------------------------------------
// Lexer: the comment/string blindness the grep lint never had.
// ------------------------------------------------------------------

TEST(Lexer, StripsCommentsStringsAndRawStrings) {
    const LexedFile lf = lex("t.cpp",
                             "int a; // trailing .data()\n"
                             "/* block query( */ int b;\n"
                             "const char* s = \"v.data()\";\n"
                             "const char* r = R\"(x.data())\";\n");
    for (const Token& t : lf.tokens) {
        EXPECT_NE(t.text, "data");
        EXPECT_NE(t.text, "query");
        if (t.kind == TokKind::String) {
            // literal text is preserved in the token, but as TokKind::String
            EXPECT_TRUE(t.text.find("data") != std::string::npos);
        }
    }
    ASSERT_EQ(lf.comments.size(), 2u);
    EXPECT_TRUE(lf.comments[0].text.find(".data()") != std::string::npos);
    EXPECT_TRUE(lf.comments[1].block);
}

TEST(Lexer, DirectivesAreCapturedNotTokenized) {
    const LexedFile lf = lex("t.cpp",
                             "#include <thread>\n"
                             "// #include <omp.h>\n"
                             "#pragma omp parallel\n"
                             "int x;\n");
    ASSERT_EQ(lf.directives.size(), 2u); // the commented one must not count
    EXPECT_EQ(lf.directives[0].text, "include <thread>");
    EXPECT_EQ(lf.directives[1].text, "pragma omp parallel");
    for (const Token& t : lf.tokens) EXPECT_NE(t.text, "thread");
}

TEST(Outline, FindsFunctionsAndCalls) {
    const LexedFile lf = lex("t.cpp",
                             "void outer(int n) {\n"
                             "    inner(n + 1, g(n));\n"
                             "}\n");
    const Outline o = buildOutline(lf);
    ASSERT_EQ(o.functions.size(), 1u);
    EXPECT_EQ(o.functions[0].name, "outer");
    ASSERT_EQ(o.calls.size(), 2u); // inner(...) and g(...)
    EXPECT_EQ(o.calls[0].name, "inner");
    ASSERT_EQ(o.calls[0].argSpans.size(), 2u);
    EXPECT_EQ(o.calls[1].name, "g");
}

// ------------------------------------------------------------------
// R1–R4 and R7 on the fixture tree: exact counts, positive and negative
// files.
// ------------------------------------------------------------------

TEST(Rules, R1RawPointerEscapes) {
    const auto r1 = findingsFor("R1");
    EXPECT_EQ(r1.size(), 2u);
    EXPECT_EQ(countIn(r1, "src/core/R1Pos.cpp"), 1);
    EXPECT_EQ(countIn(r1, "src/core/AllowFileScope.cpp"), 1);
    EXPECT_EQ(countIn(r1, "src/core/R1Neg.cpp"), 0);
}

TEST(Rules, R2ThreadingPrimitives) {
    const auto r2 = findingsFor("R2");
    EXPECT_EQ(r2.size(), 3u); // include + pragma + std::thread
    EXPECT_EQ(countIn(r2, "src/core/R2Pos.cpp"), 3);
    EXPECT_EQ(countIn(r2, "src/core/R2Neg.cpp"), 0);
    EXPECT_EQ(countIn(r2, "src/gpu/ThreadPool.cpp"), 0); // owner
}

TEST(Rules, R3DefaultedGhostCounts) {
    const auto r3 = findingsFor("R3");
    EXPECT_EQ(r3.size(), 2u);
    EXPECT_EQ(countIn(r3, "src/core/R3Pos.hpp"), 2);
    EXPECT_EQ(countIn(r3, "src/core/R3Neg.cpp"), 0); // .cpp out of scope
}

TEST(Rules, R4SerialLoopInKernelFile) {
    const auto r4 = findingsFor("R4");
    ASSERT_EQ(r4.size(), 1u);
    EXPECT_EQ(r4[0].file, "src/core/Weno.cpp");
    EXPECT_EQ(countIn(r4, "src/core/R4Neg.cpp"), 0);
}

TEST(Rules, R7OpenCodedRk3Triple) {
    const auto r7 = findingsFor("R7");
    EXPECT_EQ(r7.size(), 2u); // mult(Rk3::...) + saxpy(..., Rk3::...)
    EXPECT_EQ(countIn(r7, "src/core/R7Pos.cpp"), 2);
    EXPECT_EQ(countIn(r7, "src/core/Rk3.cpp"), 0); // owner
}

// ------------------------------------------------------------------
// A1 — kernel dataflow
// ------------------------------------------------------------------

TEST(Flow, A1ShiftedWriteReadHazard) {
    const auto a1 = findingsFor("A1");
    EXPECT_EQ(a1.size(), 4u);
    EXPECT_EQ(countIn(a1, "src/core/A1Shift.cpp"), 1);
    EXPECT_EQ(countIn(a1, "src/core/A1Neg.cpp"), 0);
}

TEST(Flow, A1CapturedStateMutation) {
    const auto a1 = findingsFor("A1");
    // One direct member mutation, one impure-local-lambda call.
    EXPECT_EQ(countIn(a1, "src/core/A1Mutate.cpp"), 2);
}

TEST(Flow, A1TaskKernelSharedWrite) {
    const auto a1 = findingsFor("A1");
    // acc(0,0,0) flagged; the task-derived and task-conditioned writes not.
    EXPECT_EQ(countIn(a1, "src/core/A1Task.cpp"), 1);
    for (const Finding& f : a1) {
        if (f.file == "src/core/A1Task.cpp") {
            EXPECT_TRUE(f.message.find("'acc'") != std::string::npos)
                << f.message;
        }
    }
}

// ------------------------------------------------------------------
// A3 — deck-key registry
// ------------------------------------------------------------------

TEST(Flow, A3DeckKeys) {
    const auto keys = collectDeckKeys(fixtureProject());
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0].key, "solver.alpha");
    EXPECT_EQ(keys[1].key, "solver.beta");

    const auto a3 = findingsFor("A3");
    ASSERT_EQ(a3.size(), 2u);
    // solver.beta: queried, documented nowhere -> reported at the query.
    EXPECT_EQ(countIn(a3, "src/core/DeckKeys.cpp"), 1);
    // solver.dead_knob: documented, never queried -> reported in the doc.
    // (solver.md on the same page is a filename, not a key.)
    EXPECT_EQ(countIn(a3, "docs/keys.md"), 1);
    for (const Finding& f : a3) {
        if (f.file == "docs/keys.md") {
            EXPECT_TRUE(f.message.find("solver.dead_knob") != std::string::npos)
                << f.message;
        }
    }
}

// ------------------------------------------------------------------
// A4 — module layering
// ------------------------------------------------------------------

TEST(Flow, A4Layering) {
    const auto a4 = findingsFor("A4");
    EXPECT_EQ(a4.size(), 2u);
    EXPECT_EQ(countIn(a4, "src/gpu/A4Pos.cpp"), 1);   // gpu -> core
    EXPECT_EQ(countIn(a4, "src/core/A4Guard.cpp"), 1); // unguarded check/
    EXPECT_EQ(countIn(a4, "src/core/A4Neg.cpp"), 0);
    EXPECT_EQ(countIn(a4, "src/mesh/A4Ok.cpp"), 0);
}

// ------------------------------------------------------------------
// A6 — guarded recovery sources (the SDC threat-model contract)
// ------------------------------------------------------------------

TEST(Flow, A6GuardedRecoverySources) {
    const auto a6 = findingsFor("A6");
    EXPECT_EQ(a6.size(), 2u); // unguarded writeCheckpoint + buddy store
    EXPECT_EQ(countIn(a6, "src/core/A6Pos.cpp"), 2);
    // Same-function stamp/verify/verifyMirror satisfies the rule, and a
    // store() off a non-buddy chain is not a recovery source at all.
    EXPECT_EQ(countIn(a6, "src/core/A6Ok.cpp"), 0);
    // The reviewed escape hatch: allow(A6) + reason suppresses the
    // bootstrap readCheckpoint in A6Pos.
    EXPECT_EQ(countIn(findingsFor("A6", /*suppressed=*/true),
                      "src/core/A6Pos.cpp"),
              1);
}

// ------------------------------------------------------------------
// Suppressions
// ------------------------------------------------------------------

TEST(Suppressions, InlineAllowCoversSameAndPreviousLine) {
    const auto suppressed = findingsFor("R1", /*suppressed=*/true);
    EXPECT_EQ(suppressed.size(), 2u);
    EXPECT_EQ(countIn(suppressed, "src/core/Suppressed.cpp"), 2);
    // And nothing unsuppressed leaks out of that file.
    EXPECT_EQ(countIn(findingsFor("R1"), "src/core/Suppressed.cpp"), 0);
}

TEST(Suppressions, AllowFileWaivesOnlyTheNamedRule) {
    // allow-file(R2) covers both threading findings of the file (the
    // <thread> include and the std::thread)...
    EXPECT_EQ(countIn(findingsFor("R2", /*suppressed=*/true),
                      "src/core/AllowFileScope.cpp"),
              2);
    EXPECT_EQ(countIn(findingsFor("R2"), "src/core/AllowFileScope.cpp"), 0);
    // ...but not the R1 raw-pointer escape next to them.
    EXPECT_EQ(countIn(findingsFor("R1"), "src/core/AllowFileScope.cpp"), 1);
    EXPECT_EQ(countIn(findingsFor("R1", /*suppressed=*/true),
                      "src/core/AllowFileScope.cpp"),
              0);
}

TEST(Suppressions, AllowFileWithoutReasonIsMalformed) {
    for (const SourceFile& sf : fixtureProject().files) {
        if (sf.lexed.path == "src/core/BadSuppress.cpp") {
            ASSERT_EQ(sf.suppressions.malformed.size(), 1u);
            EXPECT_TRUE(sf.suppressions.fileRules.empty()); // not honoured
            return;
        }
    }
    FAIL() << "fixture src/core/BadSuppress.cpp not loaded";
}

// ------------------------------------------------------------------
// Totals + report formats
// ------------------------------------------------------------------

TEST(Report, ExactTotals) {
    int unsuppressed = 0, suppressed = 0;
    for (const Finding& f : fixtureFindings())
        (f.suppressed ? suppressed : unsuppressed)++;
    // Sum of the per-rule expectations above: R1=2 R2=3 R3=2 R4=1 R7=2
    // A1=4 A3=2 A4=2 A6=2; suppressed = 2 R1 (Suppressed.cpp) + 2 R2
    // (AllowFileScope.cpp allow-file) + 1 A6 (A6Pos.cpp inline allow).
    EXPECT_EQ(unsuppressed, 20);
    EXPECT_EQ(suppressed, 5);
}

TEST(Report, SarifIsWellFormed) {
    std::ostringstream ss;
    writeSarif(ss, fixtureFindings());
    const std::string sarif = ss.str();
    EXPECT_TRUE(sarif.find("\"version\": \"2.1.0\"") != std::string::npos);
    EXPECT_TRUE(sarif.find("\"name\": \"crocco-analyze\"") != std::string::npos);
    EXPECT_TRUE(sarif.find("\"ruleId\": \"A1\"") != std::string::npos);
    EXPECT_TRUE(sarif.find("\"suppressions\"") != std::string::npos);
    // Structural sanity: braces/brackets balance outside string literals,
    // and every rule in the catalogue is advertised.
    int brace = 0, bracket = 0;
    bool inString = false;
    for (std::size_t i = 0; i < sarif.size(); ++i) {
        const char c = sarif[i];
        if (inString) {
            if (c == '\\') ++i;
            else if (c == '"') inString = false;
            continue;
        }
        if (c == '"') inString = true;
        else if (c == '{') ++brace;
        else if (c == '}') --brace;
        else if (c == '[') ++bracket;
        else if (c == ']') --bracket;
        EXPECT_GE(brace, 0);
        EXPECT_GE(bracket, 0);
    }
    EXPECT_EQ(brace, 0);
    EXPECT_EQ(bracket, 0);
    EXPECT_FALSE(inString);
    for (const RuleInfo& r : ruleCatalog())
        EXPECT_TRUE(sarif.find("\"id\": \"" + r.id + "\"") != std::string::npos)
            << r.id;
}

TEST(Report, JsonListsEveryFinding) {
    std::ostringstream ss;
    writeJson(ss, fixtureFindings());
    const std::string json = ss.str();
    EXPECT_TRUE(json.find("\"counts\"") != std::string::npos);
    EXPECT_TRUE(json.find("\"suppressed\": true") != std::string::npos);
    EXPECT_TRUE(json.find("A1Shift.cpp") != std::string::npos);
}

TEST(Report, RuleSelectionRunsOnlyRequestedRules) {
    CheckOptions opt;
    opt.rules = {"A1"};
    const auto findings = runChecks(fixtureProject(), opt);
    ASSERT_FALSE(findings.empty());
    for (const Finding& f : findings) EXPECT_EQ(f.rule, "A1");
}
