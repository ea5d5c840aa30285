#![forbid(unsafe_code)]
//! Experiment-reproduction support: plain-text table rendering and the
//! paper's reference numbers for the `repro` binary. Timing lives in
//! `perfbench/`, not here.

pub mod paper;
pub mod tables;
