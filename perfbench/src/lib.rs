//! The repository benchmark: four workloads driven through the public
//! APIs of the `amac` crates, end-to-end metrics from untraced runs, and
//! per-layer metrics from a separate traced run that times each layer
//! from outside (see README.md).

pub mod calibrate;
pub mod hold;
pub mod host;
pub mod measure;
pub mod report;
pub mod traced;
pub mod workloads;
