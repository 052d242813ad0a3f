//! # spothost-perfbench
//!
//! The repository benchmark. It times calls into the simulators' public
//! entry points at millisecond scale, many times per run, on seed-built
//! inputs, and checks every output. A separate traced run replays each
//! layer on the same inputs and reports work counts and costs per unit.
//! See `README.md` beside this crate.

pub mod harness;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod runner;
pub mod stats;
pub mod steady;
pub mod trace;
pub mod workloads;
