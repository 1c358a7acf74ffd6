//! Recursive-descent parser.
//!
//! Grammar sketch (C-like, semicolon-terminated):
//!
//! ```text
//! program   := (const | global | array | table | func)*
//! const     := "const" IDENT "=" expr ";"
//! global    := "global" ty IDENT ("=" expr)? ";"
//! array     := "array" elemty IDENT "[" expr "]" ";"
//!            | "array" elemty IDENT "=" "[" expr,* "]" ";"
//!            | "array" elemty IDENT "=" STRING ";"
//! table     := "table" IDENT "=" "[" IDENT,* "]" ";"
//! func      := "fn" IDENT "(" (IDENT ":" ty),* ")" ("->" ty)? block
//! stmt      := "var" IDENT ":" ty ("=" expr)? ";"
//!            | "if" "(" expr ")" block ("else" (block | if))?
//!            | "while" "(" expr ")" block
//!            | "do" block "while" "(" expr ")" ";"
//!            | "for" "(" simple? ";" expr? ";" simple? ")" block
//!            | "break" ";" | "continue" ";"
//!            | "return" expr? ";"
//!            | simple ";"
//! simple    := IDENT "=" expr | IDENT OP= expr
//!            | IDENT "[" expr "]" "=" expr | IDENT "[" expr "]" OP= expr
//!            | expr
//! ```
//!
//! Expressions use C precedence; `&&`/`||` short-circuit. `ty(expr)` is a
//! conversion. `name[i](args)` is an indirect call through table `name`.

use crate::ast::{
    ArrayDef, ArrayInit, BinOp, ConstDef, ElemTy, Expr, ExprKind, Func, GlobalDef, Intrinsic,
    Program, Stmt, TableDef, Ty, UnOp,
};
use crate::lexer::{lex, LexError, SpannedTok, Tok};
use core::fmt;

/// A parse failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Description.
    pub msg: String,
    /// 1-based source line.
    pub line: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error on line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError {
            msg: e.msg,
            line: e.line,
        }
    }
}

type PResult<T> = Result<T, ParseError>;

/// Deepest nesting a program may use, counted in tree levels from the
/// top-level item: a function body's statements sit at level 1, each
/// statement's expressions one level below it, each block, `else if`,
/// operand, argument and parenthesised group one level further. A chain
/// such as `1 + 1 + … + 1` is as deep as it is long.
///
/// The parser and every later stage — the type checker, both compilers,
/// the wasm validator and JIT, the interpreters — walk the program
/// recursively, so this one bound keeps them all inside a thread's stack
/// whatever source a client sends. It is far above what the benchmark
/// programs and the fuzzer's programs use.
pub const MAX_NESTING: usize = 64;

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    /// Tree level of the construct being parsed (see [`MAX_NESTING`]).
    depth: usize,
}

fn scalar_ty(name: &str) -> Option<Ty> {
    Some(match name {
        "i32" => Ty::I32,
        "i64" => Ty::I64,
        "u32" => Ty::U32,
        "u64" => Ty::U64,
        "f32" => Ty::F32,
        "f64" => Ty::F64,
        _ => return None,
    })
}

fn elem_ty(name: &str) -> Option<ElemTy> {
    Some(match name {
        "i8" => ElemTy::I8,
        "u8" => ElemTy::U8,
        "i16" => ElemTy::I16,
        "u16" => ElemTy::U16,
        other => ElemTy::Full(scalar_ty(other)?),
    })
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn next(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> PResult<T> {
        Err(ParseError {
            msg: msg.into(),
            line: self.line(),
        })
    }

    fn expect_punct(&mut self, p: &str) -> PResult<()> {
        match self.peek() {
            Tok::Punct(q) if *q == p => {
                self.next();
                Ok(())
            }
            other => self.err(format!("expected `{p}`, found {other}")),
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if *q == p) {
            self.next();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> PResult<String> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.next();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if s == kw) {
            self.next();
            true
        } else {
            false
        }
    }

    fn expect_ty(&mut self) -> PResult<Ty> {
        let name = self.expect_ident()?;
        scalar_ty(&name).map_or_else(|| self.err(format!("unknown type `{name}`")), Ok)
    }

    /// Runs `f` one tree level down, rejecting the program if that level
    /// is past [`MAX_NESTING`].
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        self.reach(1)?;
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// Rejects the program if a tree reaching `below` levels under the
    /// current one would pass [`MAX_NESTING`].
    fn reach(&self, below: usize) -> PResult<()> {
        if self.depth + below > MAX_NESTING {
            return self.err(format!("nesting deeper than {MAX_NESTING} levels"));
        }
        Ok(())
    }

    // ----- expressions -------------------------------------------------
    //
    // Expression parsers return the tree with its height, which bounds
    // operator chains: they are built in a loop, not by recursion.

    fn parse_expr(&mut self) -> PResult<Expr> {
        self.parse_sub().map(|(e, _)| e)
    }

    /// An expression one level below the current one, with its height.
    fn parse_sub(&mut self) -> PResult<(Expr, usize)> {
        self.nested(|p| p.parse_binary(0))
    }

    fn binop_at(&self, level: u8) -> Option<(BinOp, &'static str)> {
        let table: &[&[(&str, BinOp)]] = &[
            &[("||", BinOp::LogOr)],
            &[("&&", BinOp::LogAnd)],
            &[("|", BinOp::BitOr)],
            &[("^", BinOp::BitXor)],
            &[("&", BinOp::BitAnd)],
            &[("==", BinOp::Eq), ("!=", BinOp::Ne)],
            &[
                ("<=", BinOp::Le),
                (">=", BinOp::Ge),
                ("<", BinOp::Lt),
                (">", BinOp::Gt),
            ],
            &[("<<", BinOp::Shl), (">>", BinOp::Shr)],
            &[("+", BinOp::Add), ("-", BinOp::Sub)],
            &[("*", BinOp::Mul), ("/", BinOp::Div), ("%", BinOp::Rem)],
        ];
        let ops = table.get(level as usize)?;
        if let Tok::Punct(p) = self.peek() {
            for (text, op) in ops.iter() {
                if text == p {
                    return Some((*op, text));
                }
            }
        }
        None
    }

    fn parse_binary(&mut self, level: u8) -> PResult<(Expr, usize)> {
        if level > 9 {
            return self.parse_unary();
        }
        let (mut lhs, mut height) = self.parse_binary(level + 1)?;
        while let Some((op, _)) = self.binop_at(level) {
            let line = self.line();
            self.next();
            let (rhs, rhs_height) = self.parse_binary(level + 1)?;
            height = 1 + height.max(rhs_height);
            self.reach(height - 1)?;
            lhs = Expr {
                kind: ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)),
                line,
            };
        }
        Ok((lhs, height))
    }

    fn parse_unary(&mut self) -> PResult<(Expr, usize)> {
        let line = self.line();
        let op = if self.eat_punct("-") {
            UnOp::Neg
        } else if self.eat_punct("!") {
            UnOp::Not
        } else if self.eat_punct("~") {
            UnOp::BitNot
        } else {
            return self.parse_postfix();
        };
        let (e, height) = self.nested(Self::parse_unary)?;
        let kind = ExprKind::Unary(op, Box::new(e));
        Ok((Expr { kind, line }, height + 1))
    }

    /// A parenthesised argument list, with the height of its tallest
    /// argument.
    fn parse_args(&mut self) -> PResult<(Vec<Expr>, usize)> {
        self.expect_punct("(")?;
        let mut args = Vec::new();
        let mut height = 0;
        if !self.eat_punct(")") {
            loop {
                let (arg, h) = self.parse_sub()?;
                args.push(arg);
                height = height.max(h);
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        Ok((args, height))
    }

    fn parse_postfix(&mut self) -> PResult<(Expr, usize)> {
        let line = self.line();
        let (kind, below) = match self.peek().clone() {
            Tok::Int(v) => {
                self.next();
                (ExprKind::Int(v), 0)
            }
            Tok::Float(v) => {
                self.next();
                (ExprKind::Float(v), 0)
            }
            Tok::Punct("(") => {
                self.next();
                let e = self.parse_sub()?;
                self.expect_punct(")")?;
                return Ok(e);
            }
            Tok::Ident(name) => {
                self.next();
                match (scalar_ty(&name), self.peek()) {
                    // Type conversion `ty(expr)`.
                    (Some(t), Tok::Punct("(")) => {
                        self.next();
                        let (e, h) = self.parse_sub()?;
                        self.expect_punct(")")?;
                        (ExprKind::Cast(t, Box::new(e)), h)
                    }
                    // Calls: syscall, intrinsic, or direct.
                    (_, Tok::Punct("(")) => {
                        let (args, h) = self.parse_args()?;
                        if name == "syscall" {
                            if args.is_empty() || args.len() > 6 {
                                return self.err("syscall takes 1..=6 arguments");
                            }
                            (ExprKind::Syscall(args), h)
                        } else if let Some(i) = Intrinsic::by_name(&name) {
                            (ExprKind::Intrinsic(i, args), h)
                        } else {
                            (ExprKind::Call(name, args), h)
                        }
                    }
                    (_, Tok::Punct("[")) => {
                        self.next();
                        let (idx, h) = self.parse_sub()?;
                        self.expect_punct("]")?;
                        if matches!(self.peek(), Tok::Punct("(")) {
                            let (args, args_h) = self.parse_args()?;
                            (
                                ExprKind::IndirectCall(name, Box::new(idx), args),
                                h.max(args_h),
                            )
                        } else {
                            (ExprKind::Index(name, Box::new(idx)), h)
                        }
                    }
                    _ => (ExprKind::Var(name), 0),
                }
            }
            other => return self.err(format!("expected expression, found {other}")),
        };
        Ok((Expr { kind, line }, below + 1))
    }

    // ----- statements --------------------------------------------------

    /// A `{ … }` block, its statements one level below the current one.
    fn parse_block(&mut self) -> PResult<Vec<Stmt>> {
        self.expect_punct("{")?;
        self.nested(|p| {
            let mut stmts = Vec::new();
            while !p.eat_punct("}") {
                stmts.push(p.parse_stmt()?);
            }
            Ok(stmts)
        })
    }

    /// Desugars `x OP= e` to `x = x OP e`.
    fn compound(op: &str) -> Option<BinOp> {
        Some(match op {
            "+=" => BinOp::Add,
            "-=" => BinOp::Sub,
            "*=" => BinOp::Mul,
            "/=" => BinOp::Div,
            "%=" => BinOp::Rem,
            "&=" => BinOp::BitAnd,
            "|=" => BinOp::BitOr,
            "^=" => BinOp::BitXor,
            "<<=" => BinOp::Shl,
            ">>=" => BinOp::Shr,
            _ => return None,
        })
    }

    /// Parses an assignment or expression statement (without semicolon).
    fn parse_simple(&mut self) -> PResult<Stmt> {
        let line = self.line();
        if let Tok::Ident(name) = self.peek().clone() {
            // `x = e`, `x OP= e`.
            if let Tok::Punct(p) = self.peek2().clone() {
                if p == "=" {
                    self.next();
                    self.next();
                    let value = self.parse_expr()?;
                    return Ok(Stmt::Assign { name, value, line });
                }
                if let Some(op) = Self::compound(p) {
                    self.next();
                    self.next();
                    // `x = x OP e` puts `e` one level down.
                    let rhs = self.nested(Self::parse_expr)?;
                    let value = Expr {
                        kind: ExprKind::Binary(
                            op,
                            Box::new(Expr {
                                kind: ExprKind::Var(name.clone()),
                                line,
                            }),
                            Box::new(rhs),
                        ),
                        line,
                    };
                    return Ok(Stmt::Assign { name, value, line });
                }
                if p == "[" {
                    // Could be `a[i] = e`, `a[i] OP= e`, or an expression
                    // such as `tbl[i](args)`. Parse the expression one level
                    // down, where `a[i] = a[i] OP e` puts it, and inspect
                    // what follows.
                    let expr = self.nested(Self::parse_expr)?;
                    if let ExprKind::Index(array, index) = expr.kind.clone() {
                        if self.eat_punct("=") {
                            let value = self.parse_expr()?;
                            return Ok(Stmt::StoreIndex {
                                array,
                                index: *index,
                                value,
                                line,
                            });
                        }
                        if let Tok::Punct(q) = self.peek().clone() {
                            if let Some(op) = Self::compound(q) {
                                self.next();
                                let rhs = self.nested(Self::parse_expr)?;
                                let value = Expr {
                                    kind: ExprKind::Binary(op, Box::new(expr), Box::new(rhs)),
                                    line,
                                };
                                return Ok(Stmt::StoreIndex {
                                    array,
                                    index: *index,
                                    value,
                                    line,
                                });
                            }
                        }
                    }
                    return Ok(Stmt::Expr(expr));
                }
            }
        }
        Ok(Stmt::Expr(self.parse_expr()?))
    }

    fn parse_stmt(&mut self) -> PResult<Stmt> {
        let line = self.line();
        if self.eat_kw("var") {
            let name = self.expect_ident()?;
            self.expect_punct(":")?;
            let ty = self.expect_ty()?;
            let init = if self.eat_punct("=") {
                Some(self.parse_expr()?)
            } else {
                None
            };
            self.expect_punct(";")?;
            return Ok(Stmt::Var {
                name,
                ty,
                init,
                line,
            });
        }
        if self.eat_kw("if") {
            self.expect_punct("(")?;
            let cond = self.parse_expr()?;
            self.expect_punct(")")?;
            let then_body = self.parse_block()?;
            let else_body = if self.eat_kw("else") {
                if matches!(self.peek(), Tok::Ident(s) if s == "if") {
                    vec![self.nested(Self::parse_stmt)?]
                } else {
                    self.parse_block()?
                }
            } else {
                Vec::new()
            };
            return Ok(Stmt::If(cond, then_body, else_body));
        }
        if self.eat_kw("while") {
            self.expect_punct("(")?;
            let cond = self.parse_expr()?;
            self.expect_punct(")")?;
            let body = self.parse_block()?;
            return Ok(Stmt::While(cond, body));
        }
        if self.eat_kw("do") {
            let body = self.parse_block()?;
            if !self.eat_kw("while") {
                return self.err("expected `while` after do-block");
            }
            self.expect_punct("(")?;
            let cond = self.parse_expr()?;
            self.expect_punct(")")?;
            self.expect_punct(";")?;
            return Ok(Stmt::DoWhile(body, cond));
        }
        if self.eat_kw("for") {
            // Desugared below: `init` and the loop sit one level under
            // the `for`, and `cond`, the body and `step` two levels.
            self.expect_punct("(")?;
            let init = if matches!(self.peek(), Tok::Punct(";")) {
                None
            } else {
                Some(self.nested(Self::parse_simple)?)
            };
            self.expect_punct(";")?;
            let cond = if matches!(self.peek(), Tok::Punct(";")) {
                Expr {
                    kind: ExprKind::Int(1),
                    line,
                }
            } else {
                self.nested(Self::parse_expr)?
            };
            self.expect_punct(";")?;
            let step = if matches!(self.peek(), Tok::Punct(")")) {
                None
            } else {
                Some(self.nested(|p| p.nested(Self::parse_simple))?)
            };
            self.expect_punct(")")?;
            let mut body = self.nested(Self::parse_block)?;
            // Desugar: { init; while (cond) { body; step; } }
            // NOTE: `continue` inside a desugared `for` re-tests the
            // condition without running the step, as documented in the
            // language notes; benchmarks avoid `continue` inside `for`.
            if let Some(s) = step {
                body.push(s);
            }
            let mut out = Vec::new();
            if let Some(i) = init {
                out.push(i);
            }
            out.push(Stmt::While(cond, body));
            return Ok(Stmt::If(
                Expr {
                    kind: ExprKind::Int(1),
                    line,
                },
                out,
                Vec::new(),
            ));
        }
        if self.eat_kw("break") {
            self.expect_punct(";")?;
            return Ok(Stmt::Break(line));
        }
        if self.eat_kw("continue") {
            self.expect_punct(";")?;
            return Ok(Stmt::Continue(line));
        }
        if self.eat_kw("return") {
            if self.eat_punct(";") {
                return Ok(Stmt::Return(None, line));
            }
            let e = self.parse_expr()?;
            self.expect_punct(";")?;
            return Ok(Stmt::Return(Some(e), line));
        }
        let s = self.parse_simple()?;
        self.expect_punct(";")?;
        Ok(s)
    }

    // ----- top level ---------------------------------------------------

    fn parse_program(&mut self) -> PResult<Program> {
        let mut p = Program::default();
        loop {
            if matches!(self.peek(), Tok::Eof) {
                return Ok(p);
            }
            if self.eat_kw("const") {
                let name = self.expect_ident()?;
                self.expect_punct("=")?;
                let value = self.parse_expr()?;
                self.expect_punct(";")?;
                p.consts.push(ConstDef { name, value });
            } else if self.eat_kw("global") {
                let ty = self.expect_ty()?;
                let name = self.expect_ident()?;
                let init = if self.eat_punct("=") {
                    Some(self.parse_expr()?)
                } else {
                    None
                };
                self.expect_punct(";")?;
                p.globals.push(GlobalDef { name, ty, init });
            } else if self.eat_kw("array") {
                let line = self.line();
                let tname = self.expect_ident()?;
                let elem = elem_ty(&tname)
                    .map_or_else(|| self.err(format!("unknown element type `{tname}`")), Ok)?;
                let name = self.expect_ident()?;
                let init = if self.eat_punct("[") {
                    let size = self.parse_expr()?;
                    self.expect_punct("]")?;
                    ArrayInit::Size(size)
                } else {
                    self.expect_punct("=")?;
                    match self.peek().clone() {
                        Tok::Str(bytes) => {
                            self.next();
                            ArrayInit::Str(bytes)
                        }
                        Tok::Punct("[") => {
                            self.next();
                            let mut items = Vec::new();
                            if !self.eat_punct("]") {
                                loop {
                                    items.push(self.parse_expr()?);
                                    if self.eat_punct("]") {
                                        break;
                                    }
                                    self.expect_punct(",")?;
                                }
                            }
                            ArrayInit::List(items)
                        }
                        other => {
                            return self.err(format!("expected array initializer, found {other}"));
                        }
                    }
                };
                self.expect_punct(";")?;
                p.arrays.push(ArrayDef {
                    name,
                    elem,
                    init,
                    line,
                });
            } else if self.eat_kw("table") {
                let line = self.line();
                let name = self.expect_ident()?;
                self.expect_punct("=")?;
                self.expect_punct("[")?;
                let mut funcs = Vec::new();
                if !self.eat_punct("]") {
                    loop {
                        funcs.push(self.expect_ident()?);
                        if self.eat_punct("]") {
                            break;
                        }
                        self.expect_punct(",")?;
                    }
                }
                self.expect_punct(";")?;
                p.tables.push(TableDef { name, funcs, line });
            } else if self.eat_kw("fn") {
                let line = self.line();
                let name = self.expect_ident()?;
                self.expect_punct("(")?;
                let mut params = Vec::new();
                if !self.eat_punct(")") {
                    loop {
                        let pname = self.expect_ident()?;
                        self.expect_punct(":")?;
                        let ty = self.expect_ty()?;
                        params.push((pname, ty));
                        if self.eat_punct(")") {
                            break;
                        }
                        self.expect_punct(",")?;
                    }
                }
                let ret = if self.eat_punct("->") {
                    Some(self.expect_ty()?)
                } else {
                    None
                };
                let body = self.parse_block()?;
                p.funcs.push(Func {
                    name,
                    params,
                    ret,
                    body,
                    line,
                });
            } else {
                return self.err(format!(
                    "expected top-level item (const/global/array/table/fn), found {}",
                    self.peek()
                ));
            }
        }
    }
}

/// Parses CLite source text into an AST.
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    p.parse_program()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_program() {
        let p = parse("fn main() -> i32 { return 42; }").unwrap();
        assert_eq!(p.funcs.len(), 1);
        assert_eq!(p.funcs[0].name, "main");
        assert_eq!(p.funcs[0].ret, Some(Ty::I32));
    }

    #[test]
    fn parses_precedence() {
        let p = parse("fn f() -> i32 { return 1 + 2 * 3; }").unwrap();
        let Stmt::Return(Some(e), _) = &p.funcs[0].body[0] else {
            panic!("expected return");
        };
        // 1 + (2 * 3).
        let ExprKind::Binary(BinOp::Add, l, r) = &e.kind else {
            panic!("expected add at top: {e:?}");
        };
        assert!(matches!(l.kind, ExprKind::Int(1)));
        assert!(matches!(r.kind, ExprKind::Binary(BinOp::Mul, _, _)));
    }

    #[test]
    fn parses_all_top_level_items() {
        let src = r#"
            const N = 4 * 4;
            global i32 counter = 0;
            global f64 total;
            array i32 A[N];
            array u8 msg = "hi\n";
            array i32 tbl = [1, 2, 3];
            table ops = [f, g];
            fn f(x: i32) -> i32 { return x; }
            fn g(x: i32) -> i32 { return x + 1; }
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.consts.len(), 1);
        assert_eq!(p.globals.len(), 2);
        assert_eq!(p.arrays.len(), 3);
        assert_eq!(p.tables.len(), 1);
        assert_eq!(p.funcs.len(), 2);
        assert_eq!(p.tables[0].funcs, vec!["f".to_string(), "g".to_string()]);
    }

    #[test]
    fn parses_control_flow() {
        let src = r#"
            fn f(n: i32) -> i32 {
                var s: i32 = 0;
                for (s = 0; n > 0; n -= 1) { s += n; }
                while (s > 100) { s -= 100; if (s == 50) { break; } else { continue; } }
                do { s += 1; } while (s < 10);
                return s;
            }
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.funcs.len(), 1);
    }

    #[test]
    fn parses_indirect_call_and_index() {
        let src = r#"
            fn f() -> i32 {
                var x: i32 = ops[2](1, 2);
                A[x] = ops[0](x);
                A[x] += 1;
                return A[x + 1];
            }
        "#;
        let p = parse(src).unwrap();
        let body = &p.funcs[0].body;
        assert!(matches!(
            &body[0],
            Stmt::Var { init: Some(Expr { kind: ExprKind::IndirectCall(n, _, args), .. }, ), .. }
            if n == "ops" && args.len() == 2
        ));
        assert!(matches!(&body[1], Stmt::StoreIndex { .. }));
        assert!(matches!(&body[2], Stmt::StoreIndex { .. }));
    }

    #[test]
    fn parses_casts_and_intrinsics() {
        let src = "fn f(x: f64) -> i32 { return i32(sqrt(x) + f64(3)); }";
        let p = parse(src).unwrap();
        let Stmt::Return(Some(e), _) = &p.funcs[0].body[0] else {
            panic!();
        };
        assert!(matches!(e.kind, ExprKind::Cast(Ty::I32, _)));
    }

    #[test]
    fn parses_syscall() {
        let src = "fn f() { syscall(4, 1, 0, 16); }";
        let p = parse(src).unwrap();
        assert!(matches!(
            &p.funcs[0].body[0],
            Stmt::Expr(Expr { kind: ExprKind::Syscall(args), .. }) if args.len() == 4
        ));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("fn f( { }").is_err());
        assert!(parse("const = 3;").is_err());
        assert!(parse("fn f() -> banana { }").is_err());
        assert!(parse("}").is_err());
    }

    #[test]
    fn error_carries_line() {
        let e = parse("fn f() {\n  var x: i32 = ;\n}").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn compound_assign_desugars() {
        let p = parse("fn f() { global_x <<= 2; }").unwrap();
        let Stmt::Assign { value, .. } = &p.funcs[0].body[0] else {
            panic!();
        };
        assert!(matches!(value.kind, ExprKind::Binary(BinOp::Shl, _, _)));
    }

    #[test]
    fn logical_ops_parse_lowest() {
        let p = parse("fn f(a: i32, b: i32) -> i32 { return a == 1 && b == 2 || a < b; }").unwrap();
        let Stmt::Return(Some(e), _) = &p.funcs[0].body[0] else {
            panic!();
        };
        assert!(matches!(e.kind, ExprKind::Binary(BinOp::LogOr, _, _)));
    }
}
