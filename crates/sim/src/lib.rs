//! Deterministic discrete-event simulation engine.
//!
//! This crate replaces the role of the Narses simulator in the paper: it
//! provides simulated time, an event queue with deterministic ordering, and
//! seeded randomness helpers. Everything above it (network, protocol,
//! adversaries) is pure model code driven by this engine.
//!
//! The engine is deliberately single-threaded: reproduction experiments
//! parallelise across *seeds*, not within a run, so that every run is exactly
//! reproducible from its seed.

#![deny(missing_docs)]

pub mod engine;
pub mod fxmap;
pub mod json;
pub mod rng;
pub mod slab;
pub mod time;
pub mod weighted;

pub use engine::{Engine, EngineObs, EventFn};
pub use fxmap::{FxBuildHasher, FxHashMap, FxHasher};
pub use rng::SimRng;
pub use slab::Slab;
pub use time::{Duration, SimTime};
pub use weighted::AliasTable;
