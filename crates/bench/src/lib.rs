//! What the benchmark package (`perfbench/`, `BENCHMARK.json`) imports
//! from the workspace: the constant-density scaling world and its
//! receiver-discovery sweep.

pub mod core_scaling;
