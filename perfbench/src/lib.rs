//! # mvolap-perfbench
//!
//! The repository's benchmark: one command that generates an evolving
//! warehouse from a seed, serves it through the real session server
//! (one node) or a three-node quorum cluster over loopback TCP, drives
//! it with seeded sessions, checks every answer against local replay
//! and prints end-to-end metrics — or, traced, per-layer metrics from
//! spans around in-process calls into each layer. See `README.md`.

pub mod bench;
pub mod check;
pub mod gen;
pub mod report;
pub mod run;
pub mod trace;
