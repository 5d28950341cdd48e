//! A solver's record of its previous call — the network and options it was
//! given — and of the latest converged result, which a call with the same
//! inputs returns again.
//!
//! Inputs compare bit for bit — floats by bit pattern, so `-0.0` differs from
//! `0.0` and a NaN equals the same NaN — because a call answered from the
//! record must return exactly what solving again would. Every compared type
//! is destructured without `..`, so a new field does not compile until it is
//! compared here.

use crate::network::{
    Bus, BusId, ExtGrid, Gen, Line, Load, PowerNetwork, Sgen, Shunt, Switch, SwitchTarget, Trafo,
};
use crate::results::PowerFlowResult;
use crate::solver::SolveOptions;

/// Bit-for-bit equality.
trait Same {
    fn same(&self, other: &Self) -> bool;
}

impl Same for f64 {
    fn same(&self, other: &f64) -> bool {
        self.to_bits() == other.to_bits()
    }
}

/// Types without floats, whose `==` is already exact.
macro_rules! same_by_eq {
    ($($ty:ty),*) => {$(
        impl Same for $ty {
            fn same(&self, other: &$ty) -> bool {
                self == other
            }
        }
    )*};
}

same_by_eq!(String, bool, usize, i32, BusId, SwitchTarget);

/// Field-by-field [`Same`] for structs.
macro_rules! same_fields {
    ($($ty:ident { $($field:ident),* })*) => {$(
        impl Same for $ty {
            fn same(&self, other: &$ty) -> bool {
                let $ty { $($field),* } = self;
                $($field.same(&other.$field))&&*
            }
        }
    )*};
}

same_fields! {
    Bus { name, vn_kv, in_service }
    Line {
        name, from_bus, to_bus, length_km, r_ohm_per_km, x_ohm_per_km, c_nf_per_km, max_i_ka,
        in_service
    }
    Trafo {
        name, hv_bus, lv_bus, sn_mva, vn_hv_kv, vn_lv_kv, vk_percent, vkr_percent, tap_pos,
        tap_step_percent, in_service
    }
    Load { name, bus, p_mw, q_mvar, scaling, in_service }
    Sgen { name, bus, p_mw, q_mvar, scaling, in_service }
    Gen { name, bus, p_mw, vm_pu, in_service }
    ExtGrid { name, bus, vm_pu, va_degree, in_service }
    Shunt { name, bus, p_mw, q_mvar, in_service }
    Switch { name, bus, target, closed }
    SolveOptions { tolerance, max_iterations }
}

/// Makes `copy` equal to `source`; returns whether it already was.
fn mirror<T: Same + Clone>(copy: &mut T, source: &T) -> bool {
    let same = copy.same(source);
    if !same {
        copy.clone_from(source);
    }
    same
}

/// Makes the table `copy` equal to `source`, cloning only the elements that
/// differ; returns whether it already was.
fn mirror_table<T: Same + Clone>(copy: &mut Vec<T>, source: &[T]) -> bool {
    let mut same = copy.len() == source.len();
    copy.truncate(source.len());
    for (c, s) in copy.iter_mut().zip(source) {
        same &= mirror(c, s);
    }
    copy.extend_from_slice(&source[copy.len()..]);
    same
}

/// Makes `copy` equal to `source` table by table; returns whether it
/// already was.
fn mirror_network(copy: &mut PowerNetwork, source: &PowerNetwork) -> bool {
    let PowerNetwork {
        name,
        sn_mva_base,
        f_hz,
        bus,
        line,
        trafo,
        load,
        sgen,
        gen,
        ext_grid,
        shunt,
        switch,
    } = copy;
    // `&`, not `&&`: every table is brought up to date.
    mirror(name, &source.name)
        & mirror(sn_mva_base, &source.sn_mva_base)
        & mirror(f_hz, &source.f_hz)
        & mirror_table(bus, &source.bus)
        & mirror_table(line, &source.line)
        & mirror_table(trafo, &source.trafo)
        & mirror_table(load, &source.load)
        & mirror_table(sgen, &source.sgen)
        & mirror_table(gen, &source.gen)
        & mirror_table(ext_grid, &source.ext_grid)
        & mirror_table(shunt, &source.shunt)
        & mirror_table(switch, &source.switch)
}

/// The inputs of a solver's previous call, and the latest converged result:
/// the solver's one copy of it. The inputs are updated in place, so a
/// changed call clones only the elements that differ.
#[derive(Debug, Clone, Default)]
pub(crate) struct Record {
    /// `None` until the first call.
    inputs: Option<(PowerNetwork, SolveOptions)>,
    /// The latest converged result, exactly as the call that answered with
    /// it returned it; the default result before the first.
    result: PowerFlowResult,
    /// The iteration count a warm re-solve of `result` takes: what a call
    /// answered from the record reports.
    replay_iterations: usize,
    /// Whether `result` is the previous call's.
    converged: bool,
}

impl Record {
    /// Records `net` and `options` as the latest call's inputs, updating
    /// only the elements that changed. Returns whether the previous call's
    /// inputs were the same bit for bit and it converged: then
    /// [`result`](Record::result) answers this call too.
    pub(crate) fn replay(&mut self, net: &PowerNetwork, options: &SolveOptions) -> bool {
        let unchanged = match &mut self.inputs {
            Some((copy, copy_options)) => mirror(copy_options, options) & mirror_network(copy, net),
            None => {
                self.inputs = Some((net.clone(), options.clone()));
                false
            }
        };
        self.converged &= unchanged;
        if self.converged {
            self.result.iterations = self.replay_iterations;
        }
        self.converged
    }

    /// Keeps `result` of the latest call, and `replay_iterations` — the
    /// count a warm re-solve of it takes — to report when it is replayed.
    pub(crate) fn converged(&mut self, result: PowerFlowResult, replay_iterations: usize) {
        self.result = result;
        self.replay_iterations = replay_iterations;
        self.converged = true;
    }

    /// The latest converged result. A failed call leaves it as it was.
    pub(crate) fn result(&self) -> &PowerFlowResult {
        &self.result
    }
}
