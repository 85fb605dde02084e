//! One module per table/figure of the paper, plus the ablations.
//!
//! Which experiment name runs which module, and what it writes, is the
//! `EXPERIMENTS` table in `bin/repro.rs` (`repro --help` prints it).

pub mod ablate;
pub mod chaos;
pub mod common;
pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod giant;
pub mod scaling;
pub mod serve;
pub mod table12;
pub mod table34;
pub mod table5;
pub mod table6;
pub mod verify;
pub mod workloads;
