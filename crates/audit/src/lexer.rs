//! A hand-rolled Rust lexer — the shared front end for every audit rule.
//!
//! The PR 3 engine classified source bytes with a per-line state machine
//! that got three things demonstrably wrong: raw strings containing `//`
//! or `"` leaked into the code channel, nested block comments closed at
//! the first `*/`, and `'a` lifetimes were sometimes swallowed as open
//! char literals. This module replaces that scan with a real tokenizer
//! over the whole file: raw strings with any `#` depth (`r"…"`,
//! `r##"…"##`, `br#"…"#`, `cr"…"`), nested `/* /* */ */` block comments,
//! doc comments, char-literal vs lifetime disambiguation, numeric
//! literals with exponents and suffixes, and joined multi-char operators
//! (`::`, `->`, `=>`, `..`, `..=`, `...`).
//!
//! Tokens carry byte spans into the original source plus a 1-based start
//! line. Each file is lexed once: the lexical rules, the item parser and
//! the body walker all read its code tokens through a [`Cursor`], and
//! the lexical rules read the `audit: allow` annotations from its comment
//! tokens — one front end, so they cannot disagree about what is code.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `Simulator`, `_x`).
    Ident,
    /// A lifetime (`'a`, `'static`) — *not* a char literal.
    Lifetime,
    /// A char or byte-char literal (`'x'`, `b'\n'`).
    Char,
    /// A cooked or raw string/byte-string literal, entire span.
    Str,
    /// A numeric literal (`42`, `0.5f64`, `1e-3`, `0xFF`).
    Num,
    /// Punctuation; multi-char operators `::`, `->`, `=>`, `..`, `..=`,
    /// `...` come out as one token, everything else as single bytes.
    Punct,
    /// A `//` comment (including `///` and `//!` doc comments).
    LineComment,
    /// A `/* … */` comment, nesting respected, possibly multi-line.
    BlockComment,
}

/// One lexed token: kind plus byte span plus 1-based start line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Byte offset of the first byte, inclusive.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line number of the first byte.
    pub line: usize,
}

impl Token {
    /// The token's text within its source.
    pub fn text<'s>(&self, src: &'s str) -> &'s str {
        &src[self.start..self.end]
    }
}

/// True for bytes that can continue an identifier.
fn is_ident_continue(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

/// True for bytes that can start an identifier.
fn is_ident_start(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphabetic()
}

/// Recognises a string-literal opener at `i`: returns
/// `(prefix_len_through_quote, n_hashes)` where `n_hashes` is `Some` for
/// raw strings. Handles `"`, `r"`, `r#"`, `b"`, `br#"`, `c"`, `cr#"`.
fn string_open(bytes: &[u8], i: usize) -> Option<(usize, Option<usize>)> {
    let mut j = i;
    // Optional `b`/`c` byte/C-string marker, then optional `r` raw marker.
    if j < bytes.len() && (bytes[j] == b'b' || bytes[j] == b'c') {
        j += 1;
    }
    let raw = j < bytes.len() && bytes[j] == b'r';
    if raw {
        j += 1;
        let mut hashes = 0;
        while j < bytes.len() && bytes[j] == b'#' {
            hashes += 1;
            j += 1;
        }
        if j < bytes.len() && bytes[j] == b'"' {
            return Some((j + 1 - i, Some(hashes)));
        }
        return None;
    }
    if j < bytes.len() && bytes[j] == b'"' {
        Some((j + 1 - i, None))
    } else {
        None
    }
}

/// Lexes `src` into a complete token stream. Total: malformed input never
/// panics — an unterminated literal or comment simply runs to the end of
/// the file as one token.
pub fn lex(src: &str) -> Vec<Token> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    let mut line = 1;

    // A shebang line (`#!/usr/bin/env …`) is valid at the very start of a
    // Rust source file and is not a token. `#![…]` is an inner attribute,
    // not a shebang, so it must still lex normally.
    if bytes.starts_with(b"#!") && bytes.get(2) != Some(&b'[') {
        while i < bytes.len() && bytes[i] != b'\n' {
            i += 1;
        }
    }

    // Advances over `n` bytes, counting newlines.
    let count_lines = |from: usize, to: usize| -> usize {
        bytes[from..to].iter().filter(|&&b| b == b'\n').count()
    };

    while i < bytes.len() {
        let b = bytes[i];
        let start = i;
        let start_line = line;

        // Whitespace.
        if b.is_ascii_whitespace() {
            if b == b'\n' {
                line += 1;
            }
            i += 1;
            continue;
        }

        // Comments.
        if b == b'/' && i + 1 < bytes.len() {
            if bytes[i + 1] == b'/' {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::LineComment,
                    start,
                    end: i,
                    line: start_line,
                });
                continue;
            }
            if bytes[i + 1] == b'*' {
                // Nested block comment: track depth.
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if bytes[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::BlockComment,
                    start,
                    end: i,
                    line: start_line,
                });
                continue;
            }
        }

        // String literals, possibly prefixed (`r`, `b`, `br`, `c`, `cr`).
        // A bare prefix letter that is actually an identifier head
        // (`radio`, `bytes`) never matches string_open, so this arm only
        // fires on genuine literals.
        if let Some((open_len, hashes)) = (b == b'"' || b == b'r' || b == b'b' || b == b'c')
            .then(|| string_open(bytes, i))
            .flatten()
        {
            i += open_len;
            match hashes {
                Some(n) => {
                    // Raw: scan for `"` followed by n hashes, no escapes.
                    loop {
                        if i >= bytes.len() {
                            break;
                        }
                        if bytes[i] == b'"'
                            && bytes[i + 1..]
                                .iter()
                                .take(n)
                                .filter(|&&h| h == b'#')
                                .count()
                                == n
                        {
                            i += 1 + n;
                            break;
                        }
                        if bytes[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                None => {
                    // Cooked: backslash escapes, may span lines.
                    while i < bytes.len() {
                        match bytes[i] {
                            b'\\' => {
                                // A `\` + newline continuation escapes the
                                // newline, which still ends a line.
                                if bytes.get(i + 1) == Some(&b'\n') {
                                    line += 1;
                                }
                                i = (i + 2).min(bytes.len());
                            }
                            b'"' => {
                                i += 1;
                                break;
                            }
                            b'\n' => {
                                line += 1;
                                i += 1;
                            }
                            _ => i += 1,
                        }
                    }
                }
            }
            tokens.push(Token {
                kind: TokenKind::Str,
                start,
                end: i,
                line: start_line,
            });
            continue;
        }

        // Byte-char literal `b'x'`.
        if b == b'b' && i + 1 < bytes.len() && bytes[i + 1] == b'\'' {
            i += 1; // position on the quote; fall through to char logic
            let end = char_or_lifetime_end(bytes, i);
            i = end.0;
            tokens.push(Token {
                kind: TokenKind::Char,
                start,
                end: i,
                line: start_line,
            });
            continue;
        }

        // Char literal vs lifetime.
        if b == b'\'' {
            let (end, is_char) = char_or_lifetime_end(bytes, i);
            tokens.push(Token {
                kind: if is_char {
                    TokenKind::Char
                } else {
                    TokenKind::Lifetime
                },
                start,
                end,
                line: start_line,
            });
            line += count_lines(start, end);
            i = end;
            continue;
        }

        // Identifiers and keywords.
        if is_ident_start(b) {
            while i < bytes.len() && is_ident_continue(bytes[i]) {
                i += 1;
            }
            tokens.push(Token {
                kind: TokenKind::Ident,
                start,
                end: i,
                line: start_line,
            });
            continue;
        }

        // Numeric literals: digits, underscores, radix prefixes, one
        // decimal point when followed by a digit, exponents, suffixes.
        if b.is_ascii_digit() {
            i += 1;
            if i < bytes.len()
                && (bytes[i] == b'x' || bytes[i] == b'o' || bytes[i] == b'b')
                && b == b'0'
            {
                i += 1;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
            } else {
                while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
                    i += 1;
                }
                // Fractional part — but not the `..` of a range.
                if i + 1 < bytes.len() && bytes[i] == b'.' && bytes[i + 1].is_ascii_digit() {
                    i += 1;
                    while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
                        i += 1;
                    }
                } else if i < bytes.len()
                    && bytes[i] == b'.'
                    && (i + 1 >= bytes.len()
                        || (bytes[i + 1] != b'.' && !is_ident_start(bytes[i + 1])))
                {
                    // Trailing dot float like `1.` (not `1..` or `1.max`).
                    i += 1;
                }
                // Exponent.
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    let mut j = i + 1;
                    if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                        j += 1;
                    }
                    if j < bytes.len() && bytes[j].is_ascii_digit() {
                        i = j;
                        while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
                            i += 1;
                        }
                    }
                }
            }
            // Type suffix (`u32`, `f64`, `usize`).
            while i < bytes.len() && is_ident_continue(bytes[i]) {
                i += 1;
            }
            tokens.push(Token {
                kind: TokenKind::Num,
                start,
                end: i,
                line: start_line,
            });
            continue;
        }

        // Multi-char operators the parser wants joined.
        let joined: usize = if bytes[i..].starts_with(b"..=") || bytes[i..].starts_with(b"...") {
            3
        } else if bytes[i..].starts_with(b"::")
            || bytes[i..].starts_with(b"->")
            || bytes[i..].starts_with(b"=>")
            || bytes[i..].starts_with(b"..")
        {
            2
        } else {
            1
        };
        i += joined;
        tokens.push(Token {
            kind: TokenKind::Punct,
            start,
            end: i,
            line: start_line,
        });
    }
    tokens
}

/// Starting at a `'` byte, decides char literal vs lifetime and returns
/// `(end_offset, is_char_literal)`.
///
/// Disambiguation: `'` followed by a backslash is always a char literal
/// (scan its escape to the closing quote). Otherwise, if exactly one
/// character is followed by a closing `'`, it is a char literal (`'a'`);
/// if identifier characters follow without a closing quote, it is a
/// lifetime (`'a`, `'static`, `'_`).
fn char_or_lifetime_end(bytes: &[u8], quote: usize) -> (usize, bool) {
    let mut i = quote + 1;
    if i >= bytes.len() {
        return (i, false);
    }
    if bytes[i] == b'\\' {
        // Escape: `'\n'`, `'\\'`, `'\u{1F600}'` — scan to unescaped quote.
        i += 2; // skip backslash and the escaped byte
        while i < bytes.len() && bytes[i] != b'\'' {
            i += 1;
        }
        return ((i + 1).min(bytes.len()), true);
    }
    // Multi-byte UTF-8 scalar: step over one whole char.
    let ch_len = utf8_len(bytes[i]);
    if i + ch_len < bytes.len() && bytes[i + ch_len] == b'\'' && bytes[i] != b'\'' {
        return (i + ch_len + 1, true);
    }
    // Lifetime: consume identifier characters.
    if is_ident_start(bytes[i]) || bytes[i] >= 0x80 {
        while i < bytes.len() && (is_ident_continue(bytes[i]) || bytes[i] >= 0x80) {
            i += 1;
        }
        return (i, false);
    }
    // Stray quote (malformed): emit just the quote as a lifetime-ish token.
    (quote + 1, false)
}

/// Length in bytes of the UTF-8 sequence starting with `b`.
fn utf8_len(b: u8) -> usize {
    match b {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// The code tokens of one file with its source: the one set of token
/// tests the item parser and the body walker share. Every test is total —
/// an index past the end reads as `""` and matches nothing.
pub struct Cursor<'s> {
    /// The file's source text.
    pub src: &'s str,
    /// Its tokens, comments dropped.
    pub toks: Vec<Token>,
}

impl<'s> Cursor<'s> {
    /// The code tokens of `tokens`, the [`lex`] of `src`.
    pub fn new(src: &'s str, tokens: &[Token]) -> Cursor<'s> {
        let toks = tokens
            .iter()
            .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .copied()
            .collect();
        Cursor { src, toks }
    }

    /// Text of token `i`.
    pub fn text(&self, i: usize) -> &'s str {
        self.toks.get(i).map_or("", |t| t.text(self.src))
    }

    /// 1-based line of token `i`.
    pub fn line(&self, i: usize) -> usize {
        self.toks.get(i).map_or(0, |t| t.line)
    }

    /// Whether token `i` is an identifier or keyword.
    pub fn is_ident(&self, i: usize) -> bool {
        self.toks.get(i).is_some_and(|t| t.kind == TokenKind::Ident)
    }

    /// Whether token `i` is the identifier or keyword `word`.
    pub fn is_word(&self, i: usize, word: &str) -> bool {
        self.is_ident(i) && self.text(i) == word
    }

    /// The text of token `i` when it is punctuation.
    pub fn punct(&self, i: usize) -> Option<&'s str> {
        let t = self.toks.get(i).filter(|t| t.kind == TokenKind::Punct)?;
        Some(t.text(self.src))
    }

    /// Whether token `i` is the punctuation `p`.
    pub fn is_punct(&self, i: usize, p: &str) -> bool {
        self.punct(i) == Some(p)
    }

    /// +1 for an opening `(`, `[` or `{`, -1 for a closing one, else 0.
    pub fn nesting(&self, i: usize) -> i32 {
        match self.punct(i) {
            Some("(" | "[" | "{") => 1,
            Some(")" | "]" | "}") => -1,
            _ => 0,
        }
    }

    /// Index one past the bracket that closes the one at `open`
    /// (bounded by `end`). Rust source is delimiter-balanced, so one
    /// depth counter serves `()`, `[]` and `{}` alike.
    pub fn matching(&self, open: usize, end: usize) -> usize {
        let mut depth = 0;
        (open..end)
            .find(|&i| {
                depth += self.nesting(i);
                depth == 0
            })
            .map_or(end, |i| i + 1)
    }

    /// Index of the token that ends the statement or expression starting
    /// at `start`: the first `;` or `{` outside every bracket, or the
    /// bracket that closes one opened before `start`; `end` if none.
    pub fn stmt_end(&self, start: usize, end: usize) -> usize {
        let (mut depth, mut braces) = (0i32, 0i32);
        for i in start..end {
            match self.text(i) {
                _ if self.nesting(i) == 0 => {
                    if depth == 0 && braces == 0 && self.is_punct(i, ";") {
                        return i;
                    }
                }
                "{" if depth == 0 && braces == 0 => return i,
                "{" => braces += 1,
                "}" => braces -= 1,
                _ => depth += self.nesting(i),
            }
            if depth < 0 || braces < 0 {
                return i;
            }
        }
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src)
            .into_iter()
            .map(|t| (t.kind, t.text(src)))
            .collect()
    }

    // --- regression: raw strings hiding `//` and `"` --------------------

    #[test]
    fn raw_string_containing_line_comment_marker_stays_a_string() {
        let src = r##"let s = r#"no // comment and no "quote" escape"#; s.unwrap();"##;
        let toks = kinds(src);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Str && t.contains("no // comment")));
        assert!(!toks.iter().any(|(k, _)| *k == TokenKind::LineComment));
        // Code after the raw string is still lexed.
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && *t == "unwrap"));
    }

    #[test]
    fn raw_string_hash_depths_nest() {
        let src = r####"let s = r##"inner "# still open"##; x()"####;
        let toks = kinds(src);
        let strs: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].1.contains("still open"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && *t == "x"));
    }

    #[test]
    fn byte_and_c_string_prefixes_are_strings() {
        let toks = kinds(r##"b"ab" br#"cd"# c"ef""##);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokenKind::Str).count(), 3);
    }

    // --- regression: nested block comments -------------------------------

    #[test]
    fn nested_block_comments_close_at_matching_depth() {
        let src = "/* outer /* inner */ still comment */ fn after() {}";
        let toks = kinds(src);
        assert_eq!(toks[0].0, TokenKind::BlockComment);
        assert!(toks[0].1.ends_with("still comment */"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && *t == "after"));
    }

    #[test]
    fn unterminated_block_comment_swallows_to_eof() {
        let toks = kinds("/* open /* deeper */ never closed\ncode()");
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].0, TokenKind::BlockComment);
    }

    // --- regression: lifetimes vs char literals ---------------------------

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) -> &'static str { x }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .map(|(_, t)| *t)
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a", "'static"]);
        assert!(!toks.iter().any(|(k, _)| *k == TokenKind::Char));
    }

    #[test]
    fn char_literals_including_escapes_and_unicode() {
        let toks = kinds(r"let a = 'x'; let b = '\n'; let c = '\u{1F600}'; let d = '€';");
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokenKind::Char).count(),
            4
        );
    }

    #[test]
    fn lifetime_followed_by_generics_close() {
        let toks = kinds("struct S<'a>(&'a u8);");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Lifetime && *t == "'a"));
    }

    // --- general ---------------------------------------------------------

    #[test]
    fn joined_operators_and_numbers() {
        let toks = kinds("a::b -> c => 0..=9 ... 1.5e-3f64 0xFF");
        let puncts: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Punct)
            .map(|(_, t)| *t)
            .collect();
        assert_eq!(puncts, vec!["::", "->", "=>", "..=", "..."]);
        let nums: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Num)
            .map(|(_, t)| *t)
            .collect();
        assert_eq!(nums, vec!["0", "9", "1.5e-3f64", "0xFF"]);
    }

    #[test]
    fn line_numbers_track_multiline_tokens() {
        let src =
            "fn a() {}\n/* c1\nc2 */\nfn b() {}\nconst U: &str = \"x\\n\\\n    y\";\nfn c() {}\n";
        let toks = lex(src);
        let line_of = |name: &str| toks.iter().find(|t| t.text(src) == name).unwrap().line;
        assert_eq!(line_of("b"), 4);
        // A backslash-continued string still ends its line.
        assert_eq!(line_of("c"), 7);
    }

    #[test]
    fn nested_raw_strings_at_mixed_hash_depths_in_macro_bodies() {
        // An r##"…"## string may contain a complete r#"…"# string; the
        // outer delimiter depth decides where the token ends.
        let src = "write!(f, r##\"outer r#\"inner\"# still outer\"##, x);\nlet y = 1;\n";
        let toks = lex(src);
        let raw: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(raw, vec!["r##\"outer r#\"inner\"# still outer\"##"]);
        let y = toks
            .iter()
            .find(|t| t.text(src) == "y")
            .expect("y survives");
        assert_eq!(y.line, 2);
    }

    #[test]
    fn lifetime_after_less_than_is_not_a_char_literal() {
        // `<'static>` must not start a char/byte-string literal scan that
        // would swallow the rest of the file.
        let src = "fn f<'static>(x: &'static str) -> &'static str { 'q'; x }\n";
        let toks = lex(src);
        let idents: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text(src))
            .collect();
        assert!(idents.contains(&"str"), "idents: {idents:?}");
        let chars: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(chars, vec!["'q'"], "only the real char literal");
    }

    #[test]
    fn shebang_line_is_skipped_but_inner_attributes_are_not() {
        let src = "#!/usr/bin/env run-cargo-script\nfn main() {}\n";
        let toks = lex(src);
        assert_eq!(toks.first().map(|t| t.text(src)), Some("fn"));
        assert_eq!(
            toks.first().map(|t| t.line),
            Some(2),
            "line count survives the skip"
        );

        // `#![…]` is an inner attribute, not a shebang.
        let attr = "#![allow(dead_code)]\nfn main() {}\n";
        let toks = lex(attr);
        assert_eq!(toks.first().map(|t| t.text(attr)), Some("#"));
    }
}
