//! Experiment harness for the HPCA 2000 reproduction.
//!
//! The real entry points are the `[[bench]]` targets (`cargo bench -p
//! rtdc-bench`), one per table/figure of the paper, plus kernel microbenchmarks.
//! This library hosts the shared experiment plumbing they use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod args;
pub mod experiments;
pub mod jobs;
pub mod planopt;
