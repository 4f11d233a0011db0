// crocco-analyze — the project's own static analyzer. Token-aware
// re-implementation of the grep lint rules (R1–R4, R7) plus four
// whole-program passes (A1 kernel dataflow, A3 deck-key registry, A4 module
// layering, A6 guarded recovery sources). See docs/correctness.md for the
// rule catalogue and the inline suppression syntax.
//
// Exit status: 0 = clean (suppressed findings do not count), 1 = unsuppressed
// findings or malformed suppressions, 2 = usage/IO error.

#include "Checks.hpp"
#include "Report.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;
using namespace crocco::analyze;

namespace {

int usage(std::ostream& os, int code) {
    os << "usage: crocco-analyze [options] [--root DIR]\n"
          "\n"
          "Scans DIR/src (C++ sources) and DIR/docs + DIR/README.md (deck-key\n"
          "registry) and reports rule findings. Default DIR is the current\n"
          "directory.\n"
          "\n"
          "  --root DIR            repository root to scan\n"
          "  --rules R1,A1,...     run only these rules (default: all)\n"
          "  --list-rules          print the rule catalogue and exit\n"
          "  --sarif FILE          also write a SARIF 2.1.0 log to FILE\n"
          "  --json                print JSON instead of text\n"
          "  --show-suppressed     include suppressed findings in the listing\n"
          "  --write-deck-registry regenerate docs/deck-keys.md and exit\n";
    return code;
}

bool readFile(const fs::path& p, std::string& out) {
    std::ifstream in(p, std::ios::binary);
    if (!in) return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

std::string relPath(const fs::path& p, const fs::path& root) {
    std::string s = fs::relative(p, root).generic_string();
    return s;
}

bool isCxx(const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

} // namespace

int main(int argc, char** argv) {
    std::string root = ".";
    std::string sarifPath;
    bool json = false, showSuppressed = false, listRules = false,
         writeRegistry = false;
    CheckOptions options;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&](const char* flag) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "crocco-analyze: " << flag << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--root") root = value("--root");
        else if (a == "--sarif") sarifPath = value("--sarif");
        else if (a == "--rules") {
            std::string list = value("--rules");
            std::string cur;
            for (char c : list + ",") {
                if (c == ',') {
                    if (!cur.empty()) options.rules.insert(cur);
                    cur.clear();
                } else if (c != ' ') {
                    cur += c;
                }
            }
        } else if (a == "--json") json = true;
        else if (a == "--show-suppressed") showSuppressed = true;
        else if (a == "--list-rules") listRules = true;
        else if (a == "--write-deck-registry") writeRegistry = true;
        else if (a == "--help" || a == "-h") return usage(std::cout, 0);
        else {
            std::cerr << "crocco-analyze: unknown option '" << a << "'\n";
            return usage(std::cerr, 2);
        }
    }

    if (listRules) {
        for (const RuleInfo& r : ruleCatalog())
            std::cout << r.id << "  " << r.title << "  (" << r.helpUri << ")\n";
        return 0;
    }

    const fs::path rootPath(root);
    if (!fs::is_directory(rootPath / "src")) {
        std::cerr << "crocco-analyze: no src/ under '" << root
                  << "' (pass --root)\n";
        return 2;
    }

    Project project;
    project.root = root;

    std::vector<fs::path> sources;
    for (const auto& e : fs::recursive_directory_iterator(rootPath / "src"))
        if (e.is_regular_file() && isCxx(e.path())) sources.push_back(e.path());
    std::sort(sources.begin(), sources.end());
    for (const fs::path& p : sources) {
        std::string text;
        if (!readFile(p, text)) {
            std::cerr << "crocco-analyze: cannot read " << p << "\n";
            return 2;
        }
        SourceFile sf;
        sf.lexed = lex(relPath(p, rootPath), text);
        sf.outline = buildOutline(sf.lexed);
        sf.suppressions = parseSuppressions(sf.lexed);
        project.files.push_back(std::move(sf));
    }

    std::vector<fs::path> docs;
    if (fs::is_directory(rootPath / "docs"))
        for (const auto& e : fs::recursive_directory_iterator(rootPath / "docs"))
            if (e.is_regular_file() && e.path().extension() == ".md")
                docs.push_back(e.path());
    if (fs::is_regular_file(rootPath / "README.md"))
        docs.push_back(rootPath / "README.md");
    std::sort(docs.begin(), docs.end());
    for (const fs::path& p : docs) {
        std::string text;
        if (readFile(p, text))
            project.docFiles[relPath(p, rootPath)] = std::move(text);
    }

    if (writeRegistry) {
        const fs::path target = rootPath / "docs" / "deck-keys.md";
        std::ofstream out(target);
        if (!out) {
            std::cerr << "crocco-analyze: cannot write " << target << "\n";
            return 2;
        }
        writeDeckRegistry(out, collectDeckKeys(project));
        std::cout << "wrote " << target.generic_string() << "\n";
        return 0;
    }

    std::vector<Finding> findings = runChecks(project, options);

    bool badSuppression = false;
    for (const SourceFile& sf : project.files)
        for (const std::string& m : sf.suppressions.malformed) {
            std::cerr << "crocco-analyze: " << m << "\n";
            badSuppression = true;
        }

    if (!sarifPath.empty()) {
        std::ofstream out(sarifPath);
        if (!out) {
            std::cerr << "crocco-analyze: cannot write " << sarifPath << "\n";
            return 2;
        }
        writeSarif(out, findings);
    }

    if (json) writeJson(std::cout, findings);
    else writeText(std::cout, findings, showSuppressed);

    int unsuppressed = 0;
    for (const Finding& f : findings)
        if (!f.suppressed) ++unsuppressed;
    return (unsuppressed > 0 || badSuppression) ? 1 : 0;
}
