//! RTL/ISS fault-injection correlation — the primary contribution of
//! *Espinosa et al., DAC 2015*.
//!
//! The paper's claim: for **permanent** fault models, the probability `Pf`
//! that a fault injected in the RTL propagates to the off-core boundary is
//! a function of the *set* of instructions the workload executes — not
//! their order, count or input data — and is well captured by **instruction
//! diversity** `D` (unique opcodes) through `Pf = a·ln(D) + b`.
//!
//! This crate re-runs the paper's evaluation around that claim:
//!
//! * [`experiments`] re-runs every table and figure of the paper's
//!   evaluation section. Fig. 7 ([`experiments::fig7_from_parts`]) fits
//!   its twelve points with the same [`fault_inject::DomainFit`] a
//!   [`fault_inject::CorrelationSpec`] sweep produces, over diversities
//!   measured by [`workloads::profile`];
//! * [`extensions`] goes beyond it — transient, bridging and dual-point
//!   faults, register-file ISS injection, and the paper's Eq. 1
//!   ([`extensions::area_weights`], [`extensions::weighted_pf`]) as a
//!   per-unit predictor.
//!
//! # Example
//!
//! ```
//! use fault_inject::{DomainFit, SweepPoint, Target};
//! use rtl_sim::FaultKind;
//!
//! // Calibration points: (label, diversity, measured Pf).
//! let points = [("a", 8, 0.12), ("b", 11, 0.18), ("c", 18, 0.22), ("d", 47, 0.30)]
//!     .map(|(label, diversity, pf)| SweepPoint { label: label.to_string(), diversity, pf });
//! let fit = DomainFit::fit(Target::IntegerUnit, FaultKind::StuckAt1, points.to_vec()).unwrap();
//! assert!(fit.model.r2 > 0.9);
//! let predicted = fit.model.predict(30.0);
//! assert!(predicted > 0.22 && predicted < 0.30);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod extensions;
