//! The four workloads.  Each file says why its workload exists.

pub mod hetero_mobile;
pub mod paper_sweep;
pub mod scale_5k;
pub mod service_jobs;

use crate::core::Workload;
use std::path::Path;

pub const NAMES: [&str; 4] = ["paper_sweep", "scale_5k", "hetero_mobile", "service_jobs"];

/// The workload called `name`, its inputs drawn from `seed`.
pub fn make(name: &str, seed: u64, smoke: bool, state_dir: &Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paper_sweep" => Box::new(paper_sweep::PaperSweep::new(seed, smoke, state_dir.to_path_buf())),
        "scale_5k" => Box::new(scale_5k::Scale5k::new(seed, smoke)),
        "hetero_mobile" => Box::new(hetero_mobile::HeteroMobile::new(seed, smoke)),
        "service_jobs" => Box::new(service_jobs::ServiceJobs::new(
            seed,
            smoke,
            state_dir.to_path_buf(),
        )),
        _ => return None,
    })
}
