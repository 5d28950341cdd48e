#![warn(missing_docs)]

//! # sgcr-powerflow
//!
//! Steady-state AC power-flow simulation for the smart grid cyber range —
//! the Rust substitute for the Pandapower simulator used by the SG-ML paper.
//!
//! The cyber range couples an emulated cyber network (IEDs, PLCs, SCADA) to a
//! physical power model. Exactly as in the paper, the physical side is a
//! *snapshot* solver re-run periodically (default every 100 ms): a
//! [`PowerNetwork`] is mutated by breaker commands and load profiles, then
//! [`solve`] produces bus voltages and branch flows that virtual IEDs sample
//! as measurements.
//!
//! A range keeps its network in a [`TrackedNetwork`], which counts its own
//! writes, and re-runs it through one [`Solver`] per tenant. The solver
//! keeps its per-topology work and warm start between calls, and a call on
//! a network not written since its last converged call, with the same
//! [`SolveOptions`], replays that call's result without solving.
//!
//! The element model follows pandapower's tables (`bus`, `line`, `trafo`,
//! `load`, `sgen`, `gen`, `ext_grid`, `shunt`, `switch`) with the same
//! parameter names and units, so power models compiled from IEC 61850 SSD
//! files are directly comparable.
//!
//! # Examples
//!
//! ```
//! use sgcr_powerflow::PowerNetwork;
//!
//! let mut net = PowerNetwork::new("substation");
//! let hv = net.add_bus("hv", 110.0);
//! let lv = net.add_bus("lv", 20.0);
//! net.add_ext_grid("grid", hv, 1.0, 0.0);
//! net.add_trafo("t1", hv, lv, 25.0, 110.0, 20.0, 12.0, 0.6);
//! net.add_load("feeder", lv, 10.0, 3.0);
//!
//! let result = sgcr_powerflow::solve(&net)?;
//! assert!(result.bus[lv.index()].vm_pu > 0.9);
//! # Ok::<(), sgcr_powerflow::PowerFlowError>(())
//! ```

mod complex;
mod error;
mod network;
mod results;
mod solver;
mod sparse;
mod timeseries;
mod topology;

pub use complex::Complex;
pub use error::PowerFlowError;
pub use network::{
    Bus, BusId, ExtGrid, ExtGridId, Gen, GenId, Line, LineId, Load, LoadId, PowerNetwork, Sgen,
    SgenId, Shunt, ShuntId, Switch, SwitchId, SwitchTarget, TrackedNetwork, Trafo, TrafoId,
};
pub use results::{BranchResult, BusResult, ExtGridResult, GenResult, PowerFlowResult};
pub use solver::{solve, solve_traced, SolveOptions, Solver, SolverStats};
pub use timeseries::{Profile, ProfileTarget, ScenarioAction, ScenarioEvent, SimulationSchedule};
pub use topology::{Island, SlackSource, Topology};
