#pragma once

#include <string>
#include <vector>

/// crocco-analyze lexical layer. Turns a C++ (or Markdown, for the deck-key
/// check) source file into a token stream with file:line:column positions,
/// with comments, string literals, and character literals stripped into
/// side channels. This is what makes every check "token-aware": a rule that
/// scans tokens can never match inside a comment, a string, or a raw
/// string — the failure mode of the grep lint this tool replaces.
namespace crocco::analyze {

enum class TokKind {
    Identifier, ///< [A-Za-z_][A-Za-z0-9_]*
    Number,     ///< integer / floating literal (including 0x..., 1.5e-3)
    String,     ///< "..." or R"tag(...)tag" — text excludes quotes
    Char,       ///< '...'
    Punct,      ///< one operator/punctuator ("::", "->", "+=", "(", ...)
};

struct Token {
    TokKind kind;
    std::string text;
    int line = 0; ///< 1-based
    int col = 0;  ///< 1-based
};

/// A stripped comment, kept for the suppression scanner
/// (`// crocco-analyze:allow(R1): reason`).
struct Comment {
    std::string text; ///< without the // or /* */ delimiters
    int line = 0;     ///< line the comment starts on
    bool block = false;
};

/// One preprocessor directive line (continuations folded). `text` is the
/// directive with the leading '#' and excess whitespace removed, e.g.
/// "ifdef CROCCO_CHECK" or "include \"amr/Box.hpp\"".
struct PpDirective {
    std::string text;
    int line = 0;
};

struct LexedFile {
    std::string path; ///< as given to lex(); checks treat it root-relative
    std::vector<Token> tokens;
    std::vector<Comment> comments;
    std::vector<PpDirective> directives;
};

/// Lex `source` (the full file contents). Never fails: unterminated
/// comments/strings lex to end-of-file, bad characters become 1-char Punct
/// tokens. Preprocessor lines are captured as directives AND skipped from
/// the token stream (so `#include <thread>` is matched via directives, not
/// tokens).
LexedFile lex(const std::string& path, const std::string& source);

} // namespace crocco::analyze
