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

    fn skip_trivia(&mut self) -> Result<(), Diagnostic> {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.pos += 1;
                }
                b'/' if self.peek2() == b'/' => {
                    while self.pos < self.src.len() && self.peek() != b'\n' {
                        self.pos += 1;
                    }
                }
                b'/' if self.peek2() == b'*' => {
                    let start = self.pos;
                    self.pos += 2;
                    loop {
                        if self.pos >= self.src.len() {
                            return Err(Diagnostic::new(
                                Span::new(start as u32, self.pos as u32),
                                "unterminated block comment",
                            ));
                        }
                        if self.peek() == b'*' && self.peek2() == b'/' {
                            self.pos += 2;
                            break;
                        }
                        self.pos += 1;
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
