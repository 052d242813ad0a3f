//! # spothost-fleet
//!
//! Fleet-scale service simulation: a reactive autoscaler grows and
//! shrinks a fleet of per-VM `spothost-core` schedulers against a
//! diurnal + flash-crowd demand curve, closing the loop with the
//! fleet-level MVA model (`spothost_workload::mva::fleet_response`).
//! See [`sim`] for the model and its determinism guarantees.

// Library code must not unwrap (see DESIGN.md "Failure semantics").
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod sim;

pub use sim::{
    run_fleet_sim, run_fleet_sim_with, FleetSample, FleetSim, FleetSimConfig, FleetSimReport,
};
