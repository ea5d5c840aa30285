//! Hand-written lexer for Javelin.
//!
//! Comments (`// ...` and `/* ... */`) are skipped by the token stream but the
//! raw source is retained in [`crate::project::SourceFile`] so that the
//! LLM-based analyses can still see them — the paper observes that comments
//! and identifier names are the clearest evidence of retry logic.

use crate::error::Diagnostic;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Streaming lexer over a source string.
pub struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `source`.
    pub fn new(source: &'a str) -> Self {
        Lexer {
            src: source,
            pos: 0,
        }
    }

    /// Lexes the whole input, ending with an [`TokenKind::Eof`] token.
    pub fn tokenize(source: &'a str) -> Result<Vec<Token>, Diagnostic> {
        let mut lexer = Lexer::new(source);
        let mut tokens = Vec::new();
        loop {
            let tok = lexer.next_token()?;
            let done = tok.kind == TokenKind::Eof;
            tokens.push(tok);
            if done {
                return Ok(tokens);
            }
        }
    }

    fn peek(&self) -> u8 {
        *self.src.as_bytes().get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.src.as_bytes().get(self.pos + 1).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek();
        self.pos += 1;
        c
    }

    /// Skips whitespace and comments. A comment is skipped with one
    /// search for its end (`\n` or `*/`), not byte by byte: most of a
    /// corpus's bytes are comment lines.
    fn skip_trivia(&mut self) -> Result<(), Diagnostic> {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.pos += 1;
                }
                b'/' if self.peek2() == b'/' => {
                    // Stops at the newline, which the next turn skips.
                    let body = &self.src[self.pos + 2..];
                    self.pos += 2 + body.find('\n').unwrap_or(body.len());
                }
                b'/' if self.peek2() == b'*' => {
                    let start = self.pos;
                    match self.src[start + 2..].find("*/") {
                        Some(end) => self.pos = start + 2 + end + 2,
                        None => {
                            self.pos = self.src.len();
                            return Err(Diagnostic::new(
                                Span::new(start as u32, self.pos as u32),
                                "unterminated block comment",
                            ));
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Returns the next token, skipping whitespace and comments.
    pub fn next_token(&mut self) -> Result<Token, Diagnostic> {
        self.skip_trivia()?;
        let start = self.pos as u32;
        if self.pos >= self.src.len() {
            return Ok(Token {
                kind: TokenKind::Eof,
                span: Span::new(start, start),
            });
        }
        let c = self.bump();
        let kind = match c {
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b'{' => TokenKind::LBrace,
            b'}' => TokenKind::RBrace,
            b',' => TokenKind::Comma,
            b';' => TokenKind::Semi,
            b':' => TokenKind::Colon,
            b'.' => TokenKind::Dot,
            b'+' => TokenKind::Plus,
            b'-' => TokenKind::Minus,
            b'*' => TokenKind::Star,
            b'/' => TokenKind::Slash,
            b'%' => TokenKind::Percent,
            b'=' => {
                if self.peek() == b'=' {
                    self.pos += 1;
                    TokenKind::EqEq
                } else {
                    TokenKind::Assign
                }
            }
            b'!' => {
                if self.peek() == b'=' {
                    self.pos += 1;
                    TokenKind::NotEq
                } else {
                    TokenKind::Bang
                }
            }
            b'<' => {
                if self.peek() == b'=' {
                    self.pos += 1;
                    TokenKind::LtEq
                } else {
                    TokenKind::Lt
                }
            }
            b'>' => {
                if self.peek() == b'=' {
                    self.pos += 1;
                    TokenKind::GtEq
                } else {
                    TokenKind::Gt
                }
            }
            b'&' => {
                if self.peek() == b'&' {
                    self.pos += 1;
                    TokenKind::AndAnd
                } else {
                    return Err(Diagnostic::new(
                        Span::new(start, self.pos as u32),
                        "expected `&&`",
                    ));
                }
            }
            b'|' => {
                if self.peek() == b'|' {
                    self.pos += 1;
                    TokenKind::OrOr
                } else {
                    return Err(Diagnostic::new(
                        Span::new(start, self.pos as u32),
                        "expected `||`",
                    ));
                }
            }
            b'"' => self.lex_string(start)?,
            b'0'..=b'9' => self.lex_number(start)?,
            c if c == b'_' || c == b'$' || c.is_ascii_alphabetic() => self.lex_ident(start),
            other => {
                return Err(Diagnostic::new(
                    Span::new(start, self.pos as u32),
                    format!("unexpected character `{}`", other as char),
                ));
            }
        };
        Ok(Token {
            kind,
            span: Span::new(start, self.pos as u32),
        })
    }

    fn lex_string(&mut self, start: u32) -> Result<TokenKind, Diagnostic> {
        let mut out = String::new();
        // Start of the current unescaped run. Runs end only at ASCII bytes
        // (quote, backslash, newline), so each is a whole UTF-8 slice.
        let mut run = self.pos;
        loop {
            if self.pos >= self.src.len() {
                return Err(Diagnostic::new(
                    Span::new(start, self.pos as u32),
                    "unterminated string literal",
                ));
            }
            let c = self.bump();
            if !matches!(c, b'"' | b'\\' | b'\n') {
                continue;
            }
            out.push_str(&self.src[run..self.pos - 1]);
            match c {
                b'"' => return Ok(TokenKind::Str(out)),
                b'\\' => {
                    let esc = self.bump();
                    match esc {
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'\\' => out.push('\\'),
                        b'"' => out.push('"'),
                        other => {
                            return Err(Diagnostic::new(
                                Span::new(start, self.pos as u32),
                                format!("unknown escape `\\{}`", other as char),
                            ));
                        }
                    }
                }
                // The only other run end: a newline.
                _ => {
                    return Err(Diagnostic::new(
                        Span::new(start, self.pos as u32),
                        "newline in string literal",
                    ));
                }
            }
            run = self.pos;
        }
    }

    fn lex_number(&mut self, start: u32) -> Result<TokenKind, Diagnostic> {
        while self.peek().is_ascii_digit() {
            self.pos += 1;
        }
        let text = &self.src[start as usize..self.pos];
        text.parse::<i64>()
            .map(TokenKind::Int)
            .map_err(|_| {
                Diagnostic::new(
                    Span::new(start, self.pos as u32),
                    format!("integer literal `{text}` out of range"),
                )
            })
    }

    fn lex_ident(&mut self, start: u32) -> TokenKind {
        while {
            let c = self.peek();
            c == b'_' || c == b'$' || c.is_ascii_alphanumeric()
        } {
            self.pos += 1;
        }
        let text = &self.src[start as usize..self.pos];
        TokenKind::keyword(text).unwrap_or_else(|| TokenKind::Ident(text.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::tokenize(src)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_punctuation_and_operators() {
        assert_eq!(
            kinds("( ) { } , ; : . = == != < <= > >= + - * / % ! && ||"),
            vec![
                TokenKind::LParen,
                TokenKind::RParen,
                TokenKind::LBrace,
                TokenKind::RBrace,
                TokenKind::Comma,
                TokenKind::Semi,
                TokenKind::Colon,
                TokenKind::Dot,
                TokenKind::Assign,
                TokenKind::EqEq,
                TokenKind::NotEq,
                TokenKind::Lt,
                TokenKind::LtEq,
                TokenKind::Gt,
                TokenKind::GtEq,
                TokenKind::Plus,
                TokenKind::Minus,
                TokenKind::Star,
                TokenKind::Slash,
                TokenKind::Percent,
                TokenKind::Bang,
                TokenKind::AndAnd,
                TokenKind::OrOr,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_keywords_and_identifiers() {
        assert_eq!(
            kinds("class retryCount while $tmp _x"),
            vec![
                TokenKind::Class,
                TokenKind::Ident("retryCount".into()),
                TokenKind::While,
                TokenKind::Ident("$tmp".into()),
                TokenKind::Ident("_x".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_literals() {
        assert_eq!(
            kinds(r#"42 "hi\n" true false null"#),
            vec![
                TokenKind::Int(42),
                TokenKind::Str("hi\n".into()),
                TokenKind::True,
                TokenKind::False,
                TokenKind::Null,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn string_literals_decode_as_utf8() {
        assert_eq!(
            kinds("\"héllo → ok\" \"\\\"ü\\n\""),
            vec![
                TokenKind::Str("héllo → ok".into()),
                TokenKind::Str("\"ü\n".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn skips_comments() {
        assert_eq!(
            kinds("a // retry here\n b /* block\ncomment */ c"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Ident("c".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn spans_are_correct() {
        let toks = Lexer::tokenize("ab  cd").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(4, 6));
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(Lexer::tokenize("\"abc").is_err());
    }

    #[test]
    fn rejects_unterminated_block_comment() {
        assert!(Lexer::tokenize("/* abc").is_err());
    }

    #[test]
    fn line_comment_at_eof_without_newline() {
        let toks = Lexer::tokenize("a // retry").unwrap();
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1].kind, TokenKind::Eof);
        assert_eq!(toks[1].span, Span::new(10, 10));
    }

    #[test]
    fn block_comment_edges() {
        // `/*/` does not close itself: the `*` is shared with the opener.
        let err = Lexer::tokenize("/*/").unwrap_err();
        assert_eq!(err.span, Span::new(0, 3));
        let toks = Lexer::tokenize("/**/x").unwrap();
        assert_eq!(toks[0].kind, TokenKind::Ident("x".into()));
        assert_eq!(toks[0].span, Span::new(4, 5));
        let toks = Lexer::tokenize("/* */ x;").unwrap();
        assert_eq!(toks[0].span, Span::new(6, 7));
        assert_eq!(toks[1].kind, TokenKind::Semi);
    }

    #[test]
    fn unterminated_block_comment_spans_to_the_end() {
        let err = Lexer::tokenize("ab /* c\n d").unwrap_err();
        assert_eq!(err.span, Span::new(3, 10));
        assert_eq!(err.message, "unterminated block comment");
    }

    /// The byte-at-a-time comment skipper `skip_trivia` replaced, kept as
    /// the reference it must agree with.
    fn skip_trivia_bytewise(lexer: &mut Lexer) -> Result<(), Diagnostic> {
        loop {
            match lexer.peek() {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    lexer.pos += 1;
                }
                b'/' if lexer.peek2() == b'/' => {
                    while lexer.pos < lexer.src.len() && lexer.peek() != b'\n' {
                        lexer.pos += 1;
                    }
                }
                b'/' if lexer.peek2() == b'*' => {
                    let start = lexer.pos;
                    lexer.pos += 2;
                    loop {
                        if lexer.pos >= lexer.src.len() {
                            return Err(Diagnostic::new(
                                Span::new(start as u32, lexer.pos as u32),
                                "unterminated block comment",
                            ));
                        }
                        if lexer.peek() == b'*' && lexer.peek2() == b'/' {
                            lexer.pos += 2;
                            break;
                        }
                        lexer.pos += 1;
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    #[test]
    fn skip_trivia_matches_the_bytewise_reference() {
        // Random texts dense in comment delimiters, from every start
        // position: both skippers must stop at the same byte with the
        // same result.
        const PIECES: &[&str] = &[
            "/", "*", "//", "/*", "*/", "\n", " ", "\t", "\r", "a", "é", "→", "\"", ";",
        ];
        let mut state = 0x5EED_u64;
        let mut next = move || {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..2000 {
            let len = next() % 24;
            let text: String = (0..len)
                .map(|_| PIECES[(next() % PIECES.len() as u64) as usize])
                .collect();
            for pos in (0..=text.len()).filter(|&p| text.is_char_boundary(p)) {
                let mut fast = Lexer { src: &text, pos };
                let mut slow = Lexer { src: &text, pos };
                let got = fast.skip_trivia();
                let want = skip_trivia_bytewise(&mut slow);
                assert_eq!(got, want, "{text:?} from {pos}");
                if want.is_ok() {
                    assert_eq!(fast.pos, slow.pos, "{text:?} from {pos}");
                }
            }
            assert_eq!(Lexer::tokenize(&text), tokenize_bytewise(&text), "{text:?}");
        }
    }

    /// [`Lexer::tokenize`] driven by the reference skipper.
    fn tokenize_bytewise(src: &str) -> Result<Vec<Token>, Diagnostic> {
        let mut lexer = Lexer::new(src);
        let mut tokens = Vec::new();
        loop {
            skip_trivia_bytewise(&mut lexer)?;
            let tok = lexer.next_token()?;
            let done = tok.kind == TokenKind::Eof;
            tokens.push(tok);
            if done {
                return Ok(tokens);
            }
        }
    }

    #[test]
    fn rejects_newline_in_string() {
        assert!(Lexer::tokenize("\"ab\ncd\"").is_err());
    }

    #[test]
    fn rejects_single_ampersand() {
        assert!(Lexer::tokenize("a & b").is_err());
    }

    #[test]
    fn rejects_unknown_escape() {
        assert!(Lexer::tokenize(r#""\q""#).is_err());
    }

    #[test]
    fn rejects_unknown_character() {
        assert!(Lexer::tokenize("a # b").is_err());
    }
}
