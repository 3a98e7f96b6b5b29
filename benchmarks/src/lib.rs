//! `actbench`: sustained-load workloads, end-to-end metrics and a per-layer
//! span ledger for the ORB → OTS → Activity Service stack.
//!
//! The benchmark times only public functions of the workspace crates, from
//! outside; `README.md` lists them. It is a package of its own so that later
//! changes to the repository cannot edit what measures them.

pub mod alloc;
pub mod cli;
pub mod disk;
pub mod load;
pub mod native;
pub mod order;
pub mod prims;
pub mod probes;
pub mod procfs;
pub mod remote;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;
