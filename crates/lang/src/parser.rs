//! Recursive-descent parser for Javelin.

use crate::ast::*;
use crate::error::Diagnostic;
use crate::lexer::Lexer;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Parses a whole source file into a list of top-level items.
///
/// Call ids and loop ids are assigned in source order, so they are stable for
/// a given source text.
pub fn parse_file(source: &str) -> Result<Vec<Item>, Diagnostic> {
    let tokens = Lexer::tokenize(source)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        next_call_id: 0,
        next_loop_id: 0,
    };
    parser.file()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    next_call_id: u32,
    next_loop_id: u32,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn peek2_kind(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    /// Consumes the current token and returns it. The kind is moved out of
    /// its slot (the span stays for [`Parser::prev_span`]); only the final
    /// EOF token, which is never consumed, is cloned.
    fn bump(&mut self) -> Token {
        let last = self.tokens.len() - 1;
        if self.pos == last {
            return self.tokens[last].clone();
        }
        let slot = &mut self.tokens[self.pos];
        self.pos += 1;
        Token {
            kind: std::mem::replace(&mut slot.kind, TokenKind::Eof),
            span: slot.span,
        }
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek_kind() == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token, Diagnostic> {
        if self.at(&kind) {
            Ok(self.bump())
        } else {
            Err(self.error_here(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek_kind().describe()
            )))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span), Diagnostic> {
        let tok = self.bump();
        match tok.kind {
            TokenKind::Ident(name) => Ok((name, tok.span)),
            other => Err(Diagnostic::new(
                tok.span,
                format!("expected identifier, found {}", other.describe()),
            )),
        }
    }

    fn error_here(&self, message: String) -> Diagnostic {
        Diagnostic::new(self.peek().span, message)
    }

    fn fresh_call_id(&mut self) -> CallId {
        let id = CallId(self.next_call_id);
        self.next_call_id += 1;
        id
    }

    fn fresh_loop_id(&mut self) -> LoopId {
        let id = LoopId(self.next_loop_id);
        self.next_loop_id += 1;
        id
    }

    // ---- Items -----------------------------------------------------------

    fn file(&mut self) -> Result<Vec<Item>, Diagnostic> {
        let mut items = Vec::new();
        while !self.at(&TokenKind::Eof) {
            items.push(self.item()?);
        }
        Ok(items)
    }

    fn item(&mut self) -> Result<Item, Diagnostic> {
        match self.peek_kind() {
            TokenKind::Exception => self.exception_decl().map(Item::ExceptionDecl),
            TokenKind::Config => self.config_decl().map(Item::ConfigDecl),
            TokenKind::Class => self.class_decl().map(Item::Class),
            other => Err(self.error_here(format!(
                "expected `class`, `exception`, or `config`, found {}",
                other.describe()
            ))),
        }
    }

    fn exception_decl(&mut self) -> Result<ExceptionDecl, Diagnostic> {
        let start = self.expect(TokenKind::Exception)?.span;
        let (name, _) = self.expect_ident()?;
        let parent = if self.eat(&TokenKind::Extends) {
            Some(self.expect_ident()?.0)
        } else {
            None
        };
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(ExceptionDecl {
            name,
            parent,
            span: start.to(end),
        })
    }

    fn config_decl(&mut self) -> Result<ConfigDecl, Diagnostic> {
        let start = self.expect(TokenKind::Config)?.span;
        let tok = self.bump();
        let key = match tok.kind {
            TokenKind::Str(key) => key,
            other => {
                return Err(Diagnostic::new(
                    tok.span,
                    format!("expected string config key, found {}", other.describe()),
                ))
            }
        };
        self.expect(TokenKind::Default)?;
        let default = self.literal()?;
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(ConfigDecl {
            key,
            default,
            span: start.to(end),
        })
    }

    fn class_decl(&mut self) -> Result<ClassDecl, Diagnostic> {
        let start = self.expect(TokenKind::Class)?.span;
        let (name, _) = self.expect_ident()?;
        let parent = if self.eat(&TokenKind::Extends) {
            Some(self.expect_ident()?.0)
        } else {
            None
        };
        self.expect(TokenKind::LBrace)?;
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        loop {
            match self.peek_kind() {
                TokenKind::Field => fields.push(self.field_decl()?),
                TokenKind::Method => methods.push(self.method_decl(false)?),
                TokenKind::Test => methods.push(self.method_decl(true)?),
                TokenKind::RBrace => break,
                other => {
                    return Err(self.error_here(format!(
                        "expected `field`, `method`, `test`, or `}}`, found {}",
                        other.describe()
                    )))
                }
            }
        }
        let end = self.expect(TokenKind::RBrace)?.span;
        Ok(ClassDecl {
            name,
            parent,
            fields,
            methods,
            span: start.to(end),
        })
    }

    fn field_decl(&mut self) -> Result<FieldDecl, Diagnostic> {
        let start = self.expect(TokenKind::Field)?.span;
        let (name, _) = self.expect_ident()?;
        let init = if self.eat(&TokenKind::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(FieldDecl {
            name,
            init,
            span: start.to(end),
        })
    }

    fn method_decl(&mut self, is_test: bool) -> Result<MethodDecl, Diagnostic> {
        let start = self
            .expect(if is_test {
                TokenKind::Test
            } else {
                TokenKind::Method
            })?
            .span;
        let (name, _) = self.expect_ident()?;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.at(&TokenKind::RParen) {
            loop {
                params.push(self.expect_ident()?.0);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        let mut throws = Vec::new();
        if self.eat(&TokenKind::Throws) {
            loop {
                throws.push(self.expect_ident()?.0);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let body = self.block()?;
        let span = start.to(body.span);
        Ok(MethodDecl {
            name,
            params,
            throws,
            body,
            is_test,
            span,
        })
    }

    // ---- Statements ------------------------------------------------------

    fn block(&mut self) -> Result<Block, Diagnostic> {
        let start = self.expect(TokenKind::LBrace)?.span;
        let mut stmts = Vec::new();
        while !self.at(&TokenKind::RBrace) && !self.at(&TokenKind::Eof) {
            stmts.push(self.stmt()?);
        }
        let end = self.expect(TokenKind::RBrace)?.span;
        Ok(Block {
            stmts,
            span: start.to(end),
        })
    }

    fn stmt(&mut self) -> Result<Stmt, Diagnostic> {
        match self.peek_kind() {
            TokenKind::Var => self.var_stmt(),
            TokenKind::If => self.if_stmt(),
            TokenKind::While => self.while_stmt(),
            TokenKind::For => self.for_stmt(),
            TokenKind::Switch => self.switch_stmt(),
            TokenKind::Try => self.try_stmt(),
            TokenKind::Throw => self.throw_stmt(),
            TokenKind::Return => self.return_stmt(),
            TokenKind::Break => {
                let span = self.bump().span.to(self.expect(TokenKind::Semi)?.span);
                Ok(Stmt::Break { span })
            }
            TokenKind::Continue => {
                let span = self.bump().span.to(self.expect(TokenKind::Semi)?.span);
                Ok(Stmt::Continue { span })
            }
            TokenKind::Ident(name)
                if matches!(name.as_str(), "sleep" | "log" | "assert")
                    && *self.peek2_kind() == TokenKind::LParen =>
            {
                self.builtin_stmt()
            }
            _ => self.expr_or_assign_stmt(),
        }
    }

    fn var_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let start = self.expect(TokenKind::Var)?.span;
        let (name, _) = self.expect_ident()?;
        self.expect(TokenKind::Assign)?;
        let init = self.expr()?;
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(Stmt::Var {
            name,
            init,
            span: start.to(end),
        })
    }

    fn if_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let start = self.expect(TokenKind::If)?.span;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let then_blk = self.block()?;
        let mut span = start.to(then_blk.span);
        let else_blk = if self.eat(&TokenKind::Else) {
            // Support `else if` by wrapping the nested if in a block.
            if self.at(&TokenKind::If) {
                let nested = self.if_stmt()?;
                let nested_span = nested.span();
                span = span.to(nested_span);
                Some(Block {
                    stmts: vec![nested],
                    span: nested_span,
                })
            } else {
                let blk = self.block()?;
                span = span.to(blk.span);
                Some(blk)
            }
        } else {
            None
        };
        Ok(Stmt::If {
            cond,
            then_blk,
            else_blk,
            span,
        })
    }

    fn while_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let start = self.expect(TokenKind::While)?.span;
        let id = self.fresh_loop_id();
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let body = self.block()?;
        let span = start.to(body.span);
        Ok(Stmt::While {
            id,
            cond,
            body,
            span,
        })
    }

    fn for_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let start = self.expect(TokenKind::For)?.span;
        let id = self.fresh_loop_id();
        self.expect(TokenKind::LParen)?;
        let init = if self.at(&TokenKind::Semi) {
            self.bump();
            None
        } else if self.at(&TokenKind::Var) {
            Some(Box::new(self.var_stmt()?))
        } else {
            Some(Box::new(self.simple_assign_stmt()?))
        };
        let cond = if self.at(&TokenKind::Semi) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(TokenKind::Semi)?;
        let update = if self.at(&TokenKind::RParen) {
            None
        } else {
            Some(Box::new(self.assign_no_semi()?))
        };
        self.expect(TokenKind::RParen)?;
        let body = self.block()?;
        let span = start.to(body.span);
        Ok(Stmt::For {
            id,
            init,
            cond,
            update,
            body,
            span,
        })
    }

    /// An assignment followed by `;`, used in for-loop initializers.
    fn simple_assign_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let stmt = self.assign_no_semi()?;
        self.expect(TokenKind::Semi)?;
        Ok(stmt)
    }

    /// An assignment without the trailing `;`, used in for-loop headers.
    fn assign_no_semi(&mut self) -> Result<Stmt, Diagnostic> {
        let expr = self.expr()?;
        self.expect(TokenKind::Assign)?;
        let target = self.expr_to_lvalue(expr)?;
        let value = self.expr()?;
        let span = target.span().to(value.span());
        Ok(Stmt::Assign {
            target,
            value,
            span,
        })
    }

    fn switch_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let start = self.expect(TokenKind::Switch)?.span;
        let id = self.fresh_loop_id();
        self.expect(TokenKind::LParen)?;
        let scrutinee = self.expr()?;
        self.expect(TokenKind::RParen)?;
        self.expect(TokenKind::LBrace)?;
        let mut cases = Vec::new();
        let mut default = None;
        loop {
            if self.eat(&TokenKind::Case) {
                let lit = self.literal()?;
                self.expect(TokenKind::Colon)?;
                let body = self.block()?;
                cases.push((lit, body));
            } else if self.eat(&TokenKind::Default) {
                self.expect(TokenKind::Colon)?;
                if default.is_some() {
                    return Err(self.error_here("duplicate `default` arm".into()));
                }
                default = Some(self.block()?);
            } else {
                break;
            }
        }
        let end = self.expect(TokenKind::RBrace)?.span;
        Ok(Stmt::Switch {
            id,
            scrutinee,
            cases,
            default,
            span: start.to(end),
        })
    }

    fn try_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let start = self.expect(TokenKind::Try)?.span;
        let body = self.block()?;
        let mut catches = Vec::new();
        let mut end = body.span;
        while self.at(&TokenKind::Catch) {
            let cstart = self.bump().span;
            self.expect(TokenKind::LParen)?;
            let (exc_type, _) = self.expect_ident()?;
            let (binding, _) = self.expect_ident()?;
            self.expect(TokenKind::RParen)?;
            let cbody = self.block()?;
            end = cbody.span;
            catches.push(CatchClause {
                exc_type,
                binding,
                span: cstart.to(cbody.span),
                body: cbody,
            });
        }
        let finally = if self.eat(&TokenKind::Finally) {
            let fblock = self.block()?;
            end = fblock.span;
            Some(fblock)
        } else {
            None
        };
        if catches.is_empty() && finally.is_none() {
            return Err(self.error_here("`try` requires at least one `catch` or `finally`".into()));
        }
        Ok(Stmt::Try {
            body,
            catches,
            finally,
            span: start.to(end),
        })
    }

    fn throw_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let start = self.expect(TokenKind::Throw)?.span;
        let expr = self.expr()?;
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(Stmt::Throw {
            expr,
            span: start.to(end),
        })
    }

    fn return_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let start = self.expect(TokenKind::Return)?.span;
        let expr = if self.at(&TokenKind::Semi) {
            None
        } else {
            Some(self.expr()?)
        };
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(Stmt::Return {
            expr,
            span: start.to(end),
        })
    }

    fn builtin_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let (name, start) = self.expect_ident()?;
        self.expect(TokenKind::LParen)?;
        let stmt = match name.as_str() {
            "sleep" => {
                let ms = self.expr()?;
                self.expect(TokenKind::RParen)?;
                let end = self.expect(TokenKind::Semi)?.span;
                Stmt::Sleep {
                    ms,
                    span: start.to(end),
                }
            }
            "log" => {
                let expr = self.expr()?;
                self.expect(TokenKind::RParen)?;
                let end = self.expect(TokenKind::Semi)?.span;
                Stmt::Log {
                    expr,
                    span: start.to(end),
                }
            }
            "assert" => {
                let cond = self.expr()?;
                let msg = if self.eat(&TokenKind::Comma) {
                    Some(self.expr()?)
                } else {
                    None
                };
                self.expect(TokenKind::RParen)?;
                let end = self.expect(TokenKind::Semi)?.span;
                Stmt::Assert {
                    cond,
                    msg,
                    span: start.to(end),
                }
            }
            _ => unreachable!("builtin_stmt called on non-builtin"),
        };
        Ok(stmt)
    }

    fn expr_or_assign_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let expr = self.expr()?;
        if self.at(&TokenKind::Assign) {
            self.bump();
            let target = self.expr_to_lvalue(expr)?;
            let value = self.expr()?;
            let end = self.expect(TokenKind::Semi)?.span;
            let span = target.span().to(end);
            Ok(Stmt::Assign {
                target,
                value,
                span,
            })
        } else {
            let end = self.expect(TokenKind::Semi)?.span;
            let span = expr.span().to(end);
            Ok(Stmt::Expr { expr, span })
        }
    }

    fn expr_to_lvalue(&self, expr: Expr) -> Result<LValue, Diagnostic> {
        match expr {
            Expr::Ident(name, span) => Ok(LValue::Var(name, span)),
            Expr::Field { recv, name, span } => Ok(LValue::Field {
                recv: *recv,
                name,
                span,
            }),
            other => Err(Diagnostic::new(
                other.span(),
                "invalid assignment target (expected variable or field)",
            )),
        }
    }

    // ---- Expressions -----------------------------------------------------

    fn literal(&mut self) -> Result<Literal, Diagnostic> {
        let tok = self.bump();
        match tok.kind {
            TokenKind::Int(v) => Ok(Literal::Int(v)),
            TokenKind::Str(s) => Ok(Literal::Str(s)),
            TokenKind::True => Ok(Literal::Bool(true)),
            TokenKind::False => Ok(Literal::Bool(false)),
            TokenKind::Null => Ok(Literal::Null),
            TokenKind::Minus => {
                let tok = self.bump();
                match tok.kind {
                    TokenKind::Int(v) => Ok(Literal::Int(-v)),
                    other => Err(Diagnostic::new(
                        tok.span,
                        format!("expected integer after `-`, found {}", other.describe()),
                    )),
                }
            }
            other => Err(Diagnostic::new(
                tok.span,
                format!("expected literal, found {}", other.describe()),
            )),
        }
    }

    fn expr(&mut self) -> Result<Expr, Diagnostic> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.and_expr()?;
        while self.eat(&TokenKind::OrOr) {
            let rhs = self.and_expr()?;
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.equality_expr()?;
        while self.eat(&TokenKind::AndAnd) {
            let rhs = self.equality_expr()?;
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn equality_expr(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.comparison_expr()?;
        loop {
            let op = if self.eat(&TokenKind::EqEq) {
                BinOp::Eq
            } else if self.eat(&TokenKind::NotEq) {
                BinOp::NotEq
            } else {
                return Ok(lhs);
            };
            let rhs = self.comparison_expr()?;
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
    }

    fn comparison_expr(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.additive_expr()?;
        loop {
            if self.eat(&TokenKind::Instanceof) {
                let (ty, ty_span) = self.expect_ident()?;
                let span = lhs.span().to(ty_span);
                lhs = Expr::InstanceOf {
                    expr: Box::new(lhs),
                    ty,
                    span,
                };
                continue;
            }
            let op = if self.eat(&TokenKind::Lt) {
                BinOp::Lt
            } else if self.eat(&TokenKind::LtEq) {
                BinOp::LtEq
            } else if self.eat(&TokenKind::Gt) {
                BinOp::Gt
            } else if self.eat(&TokenKind::GtEq) {
                BinOp::GtEq
            } else {
                return Ok(lhs);
            };
            let rhs = self.additive_expr()?;
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
    }

    fn additive_expr(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.multiplicative_expr()?;
        loop {
            let op = if self.eat(&TokenKind::Plus) {
                BinOp::Add
            } else if self.eat(&TokenKind::Minus) {
                BinOp::Sub
            } else {
                return Ok(lhs);
            };
            let rhs = self.multiplicative_expr()?;
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
    }

    fn multiplicative_expr(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = if self.eat(&TokenKind::Star) {
                BinOp::Mul
            } else if self.eat(&TokenKind::Slash) {
                BinOp::Div
            } else if self.eat(&TokenKind::Percent) {
                BinOp::Rem
            } else {
                return Ok(lhs);
            };
            let rhs = self.unary_expr()?;
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
    }

    fn unary_expr(&mut self) -> Result<Expr, Diagnostic> {
        if self.at(&TokenKind::Bang) {
            let start = self.bump().span;
            let expr = self.unary_expr()?;
            let span = start.to(expr.span());
            return Ok(Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(expr),
                span,
            });
        }
        if self.at(&TokenKind::Minus) {
            let start = self.bump().span;
            let expr = self.unary_expr()?;
            let span = start.to(expr.span());
            return Ok(Expr::Unary {
                op: UnOp::Neg,
                expr: Box::new(expr),
                span,
            });
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Expr, Diagnostic> {
        let mut expr = self.primary_expr()?;
        while self.at(&TokenKind::Dot) {
            self.bump();
            let (name, name_span) = self.expect_ident()?;
            if self.at(&TokenKind::LParen) {
                let args = self.call_args()?;
                let span = expr.span().to(self.prev_span());
                expr = Expr::Call {
                    id: self.fresh_call_id(),
                    recv: Some(Box::new(expr)),
                    method: name,
                    args,
                    span,
                };
            } else {
                let span = expr.span().to(name_span);
                expr = Expr::Field {
                    recv: Box::new(expr),
                    name,
                    span,
                };
            }
        }
        Ok(expr)
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn call_args(&mut self) -> Result<Vec<Expr>, Diagnostic> {
        self.expect(TokenKind::LParen)?;
        let mut args = Vec::new();
        if !self.at(&TokenKind::RParen) {
            loop {
                args.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        Ok(args)
    }

    fn primary_expr(&mut self) -> Result<Expr, Diagnostic> {
        let tok = self.bump();
        match tok.kind {
            TokenKind::Int(v) => Ok(Expr::Literal(Literal::Int(v), tok.span)),
            TokenKind::Str(s) => Ok(Expr::Literal(Literal::Str(s), tok.span)),
            TokenKind::True => Ok(Expr::Literal(Literal::Bool(true), tok.span)),
            TokenKind::False => Ok(Expr::Literal(Literal::Bool(false), tok.span)),
            TokenKind::Null => Ok(Expr::Literal(Literal::Null, tok.span)),
            TokenKind::This => Ok(Expr::This(tok.span)),
            TokenKind::New => {
                let (class, _) = self.expect_ident()?;
                let args = self.call_args()?;
                let span = tok.span.to(self.prev_span());
                Ok(Expr::New {
                    id: self.fresh_call_id(),
                    class,
                    args,
                    span,
                })
            }
            TokenKind::LParen => {
                let inner = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(inner)
            }
            TokenKind::Ident(name) => {
                if self.at(&TokenKind::LParen) {
                    let args = self.call_args()?;
                    let span = tok.span.to(self.prev_span());
                    Ok(Expr::Call {
                        id: self.fresh_call_id(),
                        recv: None,
                        method: name,
                        args,
                        span,
                    })
                } else {
                    Ok(Expr::Ident(name, tok.span))
                }
            }
            other => Err(Diagnostic::new(
                tok.span,
                format!("expected expression, found {}", other.describe()),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Vec<Item> {
        parse_file(src).expect("parse should succeed")
    }

    fn only_class(items: Vec<Item>) -> ClassDecl {
        match items.into_iter().next().expect("one item") {
            Item::Class(c) => c,
            other => panic!("expected class, got {other:?}"),
        }
    }

    #[test]
    fn parses_exception_and_config_decls() {
        let items = parse_ok(
            "exception IOException;\n\
             exception ConnectException extends IOException;\n\
             config \"dfs.retry.max\" default 5;",
        );
        assert_eq!(items.len(), 3);
        match &items[1] {
            Item::ExceptionDecl(d) => {
                assert_eq!(d.name, "ConnectException");
                assert_eq!(d.parent.as_deref(), Some("IOException"));
            }
            other => panic!("unexpected {other:?}"),
        }
        match &items[2] {
            Item::ConfigDecl(d) => {
                assert_eq!(d.key, "dfs.retry.max");
                assert_eq!(d.default, Literal::Int(5));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_class_with_fields_methods_tests() {
        let class = only_class(parse_ok(
            "class C extends Base {\n\
               field count = 0;\n\
               field name;\n\
               method m(a, b) throws E1, E2 { return a + b; }\n\
               test tWorks() { assert(true); }\n\
             }",
        ));
        assert_eq!(class.name, "C");
        assert_eq!(class.parent.as_deref(), Some("Base"));
        assert_eq!(class.fields.len(), 2);
        assert_eq!(class.methods.len(), 2);
        assert_eq!(class.methods[0].throws, vec!["E1", "E2"]);
        assert!(!class.methods[0].is_test);
        assert!(class.methods[1].is_test);
    }

    #[test]
    fn parses_retry_loop_with_try_catch() {
        let class = only_class(parse_ok(
            "class R {\n\
               method run() {\n\
                 for (var retry = 0; retry < 3; retry = retry + 1) {\n\
                   try { return this.connect(); }\n\
                   catch (ConnectException e) { sleep(1000); }\n\
                 }\n\
                 return null;\n\
               }\n\
             }",
        ));
        let body = &class.methods[0].body;
        match &body.stmts[0] {
            Stmt::For { id, body, .. } => {
                assert_eq!(*id, LoopId(0));
                assert!(matches!(body.stmts[0], Stmt::Try { .. }));
            }
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn call_ids_are_sequential() {
        let class = only_class(parse_ok(
            "class C { method m() { this.a(); this.b(new T()); } }",
        ));
        let mut ids = Vec::new();
        crate::ast::walk_exprs(&class.methods[0].body, &mut |e| {
            if let Expr::Call { id, .. } = e {
                ids.push(id.0);
            }
            if let Expr::New { id, .. } = e {
                ids.push(id.0);
            }
        });
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn parses_switch_state_machine() {
        let class = only_class(parse_ok(
            "class P {\n\
               field state = \"DISPATCH\";\n\
               method execute() {\n\
                 switch (this.state) {\n\
                   case \"DISPATCH\": { this.mark(); }\n\
                   case \"FINISH\": { return true; }\n\
                   default: { log(\"?\"); }\n\
                 }\n\
                 return false;\n\
               }\n\
             }",
        ));
        match &class.methods[0].body.stmts[0] {
            Stmt::Switch { cases, default, .. } => {
                assert_eq!(cases.len(), 2);
                assert!(default.is_some());
            }
            other => panic!("expected switch, got {other:?}"),
        }
    }

    #[test]
    fn parses_else_if_chain() {
        let class = only_class(parse_ok(
            "class C { method m(x) { if (x == 1) { return 1; } else if (x == 2) { return 2; } else { return 3; } } }",
        ));
        match &class.methods[0].body.stmts[0] {
            Stmt::If { else_blk, .. } => {
                let inner = else_blk.as_ref().expect("else");
                assert!(matches!(inner.stmts[0], Stmt::If { .. }));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn parses_operators_with_precedence() {
        let class = only_class(parse_ok(
            "class C { method m(a, b) { return a + b * 2 == 10 || !(a < b) && b != null; } }",
        ));
        match &class.methods[0].body.stmts[0] {
            Stmt::Return { expr: Some(e), .. } => match e {
                Expr::Binary { op: BinOp::Or, .. } => {}
                other => panic!("expected top-level ||, got {other:?}"),
            },
            other => panic!("expected return, got {other:?}"),
        }
    }

    #[test]
    fn parses_instanceof_and_wrapping() {
        let class = only_class(parse_ok(
            "class C { method m(e) { if (e.getCause() instanceof AccessControlException) { throw new WrappedException(\"w\", e); } return null; } }",
        ));
        assert!(!class.methods.is_empty());
    }

    #[test]
    fn parses_field_assignment_targets() {
        let class = only_class(parse_ok(
            "class C { field f; method m(o) { this.f = 1; o.g = 2; f = 3; } }",
        ));
        let stmts = &class.methods[0].body.stmts;
        assert!(matches!(
            &stmts[0],
            Stmt::Assign {
                target: LValue::Field { .. },
                ..
            }
        ));
        assert!(matches!(
            &stmts[2],
            Stmt::Assign {
                target: LValue::Var(..),
                ..
            }
        ));
    }

    #[test]
    fn parses_try_catch_finally() {
        let class = only_class(parse_ok(
            "class C { method m() { try { this.a(); } catch (E1 e) { } catch (E2 e) { } finally { log(\"f\"); } } }",
        ));
        match &class.methods[0].body.stmts[0] {
            Stmt::Try {
                catches, finally, ..
            } => {
                assert_eq!(catches.len(), 2);
                assert!(finally.is_some());
            }
            other => panic!("expected try, got {other:?}"),
        }
    }

    #[test]
    fn rejects_try_without_handlers() {
        assert!(parse_file("class C { method m() { try { } } }").is_err());
    }

    #[test]
    fn rejects_assignment_to_call() {
        assert!(parse_file("class C { method m() { this.a() = 3; } }").is_err());
    }

    #[test]
    fn rejects_duplicate_default_arm() {
        assert!(parse_file(
            "class C { method m(x) { switch (x) { default: { } default: { } } } }"
        )
        .is_err());
    }

    #[test]
    fn parses_for_with_empty_parts() {
        let class = only_class(parse_ok("class C { method m() { for (;;) { break; } } }"));
        match &class.methods[0].body.stmts[0] {
            Stmt::For {
                init, cond, update, ..
            } => {
                assert!(init.is_none());
                assert!(cond.is_none());
                assert!(update.is_none());
            }
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn parses_negative_literal_in_config() {
        let items = parse_ok("config \"retry.max\" default -1;");
        match &items[0] {
            Item::ConfigDecl(d) => assert_eq!(d.default, Literal::Int(-1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sleep_log_assert_are_statements() {
        let class = only_class(parse_ok(
            "class C { test t() { sleep(10); log(\"msg\"); assert(1 == 1, \"eq\"); assert(true); } }",
        ));
        let stmts = &class.methods[0].body.stmts;
        assert!(matches!(stmts[0], Stmt::Sleep { .. }));
        assert!(matches!(stmts[1], Stmt::Log { .. }));
        assert!(matches!(stmts[2], Stmt::Assert { msg: Some(_), .. }));
        assert!(matches!(stmts[3], Stmt::Assert { msg: None, .. }));
    }

    #[test]
    fn error_mentions_expected_token() {
        let err = parse_file("class C {").unwrap_err();
        assert!(err.message.contains("expected"), "message: {}", err.message);
    }
}
