//! Synthetic benchmark suite standing in for SPEC CINT95 + MediaBench in
//! the HPCA 2000 reproduction.
//!
//! The paper evaluated on eight benchmarks (cc1, ghostscript, go, ijpeg,
//! mpeg2enc, pegwit, perl, vortex). Real SPEC/MediaBench binaries cannot
//! be compiled for this ISA, so each benchmark is regenerated as a seeded
//! synthetic analog calibrated to the paper's observable statistics — see
//! [`spec`] for the published reference numbers carried with each spec and
//! DESIGN.md §3 for why this substitution preserves the paper's results.
//!
//! # Example
//!
//! ```
//! use rtdc_workloads::{generate, spec};
//!
//! let program = generate(&spec::pegwit());
//! assert_eq!(program.name, "pegwit");
//! assert!(program.total_insns() > 20_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generate;
pub mod idioms;
pub mod programs;
pub mod spec;
pub mod vocab;
pub mod zipf;

pub use generate::{filler_target, generate, DATA_SLOT_BYTES};
pub use spec::{all_benchmarks, by_name, BenchmarkSpec, PaperReference, Style};

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use rtdc_isa::program::ObjectProgram;

/// [`generate`], memoized by benchmark name.
///
/// Generating cc1 or ghostscript, the largest analogs, costs about a
/// quarter of a second in a release build, nearly all of it building the
/// master vocabulary of up to 900,000 words (the idiom table is drawn
/// beside it on a second thread); experiment harnesses that build many
/// images of the same benchmark should use this.
///
/// Thread-friendly: the global map lock is held only to fetch a
/// per-benchmark slot, so parallel experiment workers generating
/// *different* benchmarks proceed concurrently, while workers racing on
/// the *same* benchmark generate it exactly once.
pub fn generate_cached(spec: &BenchmarkSpec) -> Arc<ObjectProgram> {
    type Slot = Arc<OnceLock<Arc<ObjectProgram>>>;
    static CACHE: OnceLock<Mutex<HashMap<&'static str, Slot>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let slot: Slot = {
        let mut guard = cache.lock().expect("workload cache poisoned");
        Arc::clone(guard.entry(spec.name).or_default())
    };
    Arc::clone(slot.get_or_init(|| Arc::new(generate(spec))))
}

/// Looks a generator spec up by name: the eight paper analogs, then the
/// three tiny specs.
pub fn resolve_spec(name: &str) -> Option<BenchmarkSpec> {
    by_name(name).or_else(|| {
        [
            spec::tiny::walker(),
            spec::tiny::loop_kernel(),
            spec::tiny::interpreter(),
        ]
        .into_iter()
        .find(|s| s.name == name)
    })
}

/// Resolves a benchmark name to its program: a spec's ([`resolve_spec`])
/// through [`generate_cached`], else one of the four known-answer
/// [`programs`], which are built once per process.
pub fn resolve_program(name: &str) -> Option<Arc<ObjectProgram>> {
    if let Some(spec) = resolve_spec(name) {
        return Some(generate_cached(&spec));
    }
    static KNOWN: OnceLock<Vec<Arc<ObjectProgram>>> = OnceLock::new();
    KNOWN
        .get_or_init(|| programs::all_programs().into_iter().map(Arc::new).collect())
        .iter()
        .find(|p| p.name == name)
        .cloned()
}
