#pragma once

#include "Lexer.hpp"

#include <string>
#include <utility>
#include <vector>

/// crocco-analyze structural layer: a brace/paren-aware "outline" of each
/// translation unit. Not a C++ parser — it recovers exactly the structure
/// the checks need (function bodies, call expressions with argument spans,
/// the include list with CROCCO_CHECK guard state) and degrades gracefully
/// on anything it does not recognize.
namespace crocco::analyze {

struct IncludeDirective {
    std::string header; ///< path between the quotes / angle brackets
    int line = 0;
    bool angled = false;       ///< #include <...>
    bool checkGuarded = false; ///< inside an #ifdef CROCCO_CHECK region
};

struct FunctionDef {
    std::string name;      ///< unqualified ("fillBoundary")
    std::string qualified; ///< as written ("MultiFab::fillBoundary")
    int line = 0;
    int bodyBegin = 0; ///< token index of '{'
    int bodyEnd = 0;   ///< token index of matching '}'
};

struct CallExpr {
    std::string name;  ///< callee's last identifier ("recordP2P", "query")
    std::string chain; ///< full access chain as written ("comm_->recordP2P")
    int line = 0;
    int nameTok = 0;   ///< token index of the callee identifier
    int lparen = 0;
    int rparen = 0;
    std::vector<std::pair<int, int>> argSpans; ///< [begin, end) token ranges
    int func = -1; ///< index into Outline::functions, -1 at file scope
};

struct Outline {
    std::vector<IncludeDirective> includes;
    std::vector<FunctionDef> functions;
    std::vector<CallExpr> calls;
};

Outline buildOutline(const LexedFile& lexed);

/// Index of the token matching the bracket at `open` ('(', '{' or '['),
/// or tokens.size() when unbalanced.
std::size_t matchForward(const std::vector<Token>& tokens, std::size_t open);

/// Concatenated source text of a token span [begin, end), single-space
/// separated only where needed to keep identifiers apart.
std::string spanText(const std::vector<Token>& tokens, std::size_t begin,
                     std::size_t end);

} // namespace crocco::analyze
