//! The stages of Algorithm 1's round, one module each, in the order
//! [`Simulation::run_round_recorded`](crate::Simulation::run_round_recorded)
//! calls them: [`hydrate`], [`client_pass`] (whose admission adds each
//! delivered upload into the server's sums), selection (one
//! `Sparsifier::select_accumulated` call, inline: pick `J`, gather its
//! sums), [`probe`], [`broadcast`] and [`bookkeep`] (where each member
//! resets its own residual on `J`, on the pool); [`evaluate`] runs between
//! rounds.
//!
//! A stage is a free function whose parameters are its borrow list: every
//! field of the simulation it reads is a `&` argument and every field it
//! writes a `&mut` one, so two stages may overlap exactly when their lists
//! are disjoint (ARCHITECTURE.md's stage table). Only
//! [`Shared`](crate::simulation::Shared), the read-only inputs most stages
//! take, is bundled.

// A stage's parameter list is its borrow list, long by design.
#![allow(clippy::too_many_arguments)]

pub(crate) mod bookkeep;
pub(crate) mod broadcast;
pub(crate) mod client_pass;
pub(crate) mod evaluate;
pub(crate) mod hydrate;
pub(crate) mod probe;
