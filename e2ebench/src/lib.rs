//! End-to-end serving benchmark for the `bix` bitmap-index system.
//!
//! Each run starts real [`bix_server::Server`]s (and, for the routed
//! workload, a [`bix_server::Router`]) in-process, checks every answer
//! against a row-store oracle, and drives them over TCP from at most two
//! client connections. An untraced run reports what a client sees; a
//! traced run samples every request, grafts the servers' span forests
//! under the client's own spans, and reports time and work per layer.
//! The benchmark adds no instrumentation to the program: it reads the
//! spans and registry counters the program already emits.

mod inputs;
mod load;
pub mod metrics;
pub mod run;
mod spans;
