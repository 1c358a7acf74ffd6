//! CLite: the C-like source language of the benchmark suite.
//!
//! The paper compiles C/C++ benchmarks with two toolchains — Clang to
//! native code and Emscripten to WebAssembly — and compares the results.
//! CLite plays the role of C here: a small, statically typed language with
//! exactly the constructs whose compilation strategy the paper analyses:
//!
//! - scalar types `i32 i64 u32 u64 f32 f64` (plus `i8 u8 i16 u16` array
//!   element types),
//! - statically allocated arrays in linear memory with explicit index
//!   arithmetic (the matmul case study's `C[i*NJ+j]` pattern),
//! - functions, recursion, and **function tables** (`table ops = [f, g]`,
//!   `ops[i](x)`) that compile to `call_indirect` — the source of the
//!   paper's §6.2.3 dynamic checks,
//! - loops (`for`/`while`/`do..while`), `if`/`else`, short-circuit `&&`
//!   and `||`,
//! - a `syscall(...)` primitive that both toolchains route to the Browsix
//!   kernel.
//!
//! The pipeline is: text → [`parser`] → [`ast`] → [`typecheck`] →
//! [`hir`] (typed, resolved, with a concrete linear-memory layout) →
//! consumed by `wasmperf-emcc`, `wasmperf-clanglite`, and the reference
//! [`interp`].

pub mod ast;
pub mod hir;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod typecheck;

pub use ast::Program;
pub use hir::{HFunc, HProgram, HTy};
pub use interp::{CliteHost, Interp, InterpError, NoSyscalls};
pub use parser::{parse, ParseError, MAX_NESTING};
pub use typecheck::{lower, TypeError};

/// Parses and typechecks CLite source text into executable HIR.
///
/// Convenience for the common whole-pipeline path.
///
/// # Examples
///
/// ```
/// let src = "fn main() -> i32 { return 41 + 1; }";
/// let prog = wasmperf_cir::compile(src).unwrap();
/// assert_eq!(prog.funcs.len(), 1);
/// ```
pub fn compile(src: &str) -> Result<HProgram, String> {
    let ast = parse(src).map_err(|e| e.to_string())?;
    lower(&ast).map_err(|e| e.to_string())
}
