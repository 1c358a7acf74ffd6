//! Source nesting is bounded by one constant, [`MAX_NESTING`]: a program
//! at the limit compiles through every pipeline on a 2 MiB thread (the
//! default size for spawned threads, which is what the service's workers
//! run on) even in a debug build, and one level past it is a compile error
//! that names the limit instead of a stack overflow.

use wasmperf_cir::MAX_NESTING;
use wasmperf_cpu::{Machine, NullHost};
use wasmperf_wasmjit::EngineProfile;

/// `return ((…1…));` with `n` parenthesised groups. The function body is
/// level 1 and the returned expression level 2, so the innermost group is
/// level `n + 2`.
fn parens(n: usize) -> String {
    format!(
        "fn main() -> i32 {{ return {}1{}; }}",
        "(".repeat(n),
        ")".repeat(n)
    )
}

/// `return 1+1+…+1;` with `n` terms: a left-deep chain `n` levels tall,
/// its root at level 2.
fn chain(n: usize) -> String {
    format!("fn main() -> i32 {{ return 1{}; }}", "+1".repeat(n - 1))
}

/// `n` nested `if` blocks around `return 1;`, whose `1` sits at level
/// `n + 2`.
fn blocks(n: usize) -> String {
    format!(
        "fn main() -> i32 {{ {} return 1; {} return 0; }}",
        "if (1) {".repeat(n),
        "}".repeat(n)
    )
}

/// The deepest program of each shape, with its result.
fn at_limit() -> [(String, u64); 3] {
    [
        (parens(MAX_NESTING - 2), 1),
        (chain(MAX_NESTING - 1), MAX_NESTING as u64 - 1),
        (blocks(MAX_NESTING - 2), 1),
    ]
}

/// Runs `f` on a thread with a 2 MiB stack.
fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no panic or overflow");
}

#[test]
fn programs_at_the_limit_compile_through_every_pipeline() {
    on_small_stack(|| {
        for (src, want) in at_limit() {
            let prog = wasmperf_cir::compile(&src).expect("at the limit");
            let native = wasmperf_clanglite::compile(&prog, &Default::default());
            let entry = native.entry.expect("main");
            let out = Machine::new(&native, NullHost)
                .run(entry, &[], 1_000_000)
                .expect("runs");
            assert_eq!(out.ret as u32 as u64, want);

            let wasm = wasmperf_emcc::compile(&prog);
            wasmperf_wasm::validate(&wasm).expect("validates");
            for profile in [
                EngineProfile::chrome(),
                EngineProfile::firefox(),
                EngineProfile::chrome_asmjs(),
                EngineProfile::firefox_asmjs(),
            ] {
                wasmperf_wasmjit::compile(&wasm, &profile).expect("jit compiles");
            }
        }
    });
}

#[test]
fn one_level_past_the_limit_is_a_named_compile_error() {
    on_small_stack(|| {
        let limit = format!("nesting deeper than {MAX_NESTING} levels");
        for src in [
            parens(MAX_NESTING - 1),
            chain(MAX_NESTING),
            blocks(MAX_NESTING - 1),
            // The hostile shapes: 1000 groups (2 KB) and 2000 terms (4 KB).
            parens(1000),
            chain(2000),
        ] {
            let err = wasmperf_cir::compile(&src).expect_err("past the limit");
            assert!(err.contains(&limit), "{err}");
        }
    });
}
