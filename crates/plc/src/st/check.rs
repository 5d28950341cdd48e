//! Semantic analysis for Structured Text programs — the static front gate
//! in front of the interpreter.
//!
//! [`check_program`] runs a flow-sensitive type checker and a set of
//! dataflow analyses over the AST and returns [`CheckFinding`]s. The rules
//! deliberately mirror the interpreter's runtime behavior
//! ([`super::interp`]): every condition that *would* raise a
//! [`super::interp::RuntimeError`] on some scan is reported with
//! [`CheckSeverity::Error`], while IEC-hygiene issues the interpreter
//! tolerates (narrowing assignments, reads of default values, dead stores,
//! unreachable code) are [`CheckSeverity::Warning`]s. A program with no
//! error-level finding must not fault the interpreter — the lint layer and
//! the differential tests rely on that contract.
//!
//! The checker knows about *externally provided* variables (MMS read rules,
//! GOOSE subscriptions, and located I/O written by the runtime's input
//! image before every scan): those are typed `Any` and exempt from
//! read-before-write analysis.

use super::ast::*;
use super::Builtin;
use std::collections::{BTreeMap, BTreeSet};

/// Severity of a semantic finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckSeverity {
    /// Suspicious but runs: the interpreter tolerates it.
    Warning,
    /// The interpreter would (or could) raise a `RuntimeError`.
    Error,
}

/// Stable category of a semantic finding. The lint layer maps these to
/// `SG6xxx` diagnostic codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckCode {
    /// Operand/assignment type mismatch.
    TypeMismatch,
    /// A variable is read that nothing declares, provides, or assigns first.
    UnknownVariable,
    /// A function/FB call is malformed: unknown callee, wrong arity,
    /// unknown parameter, or FB-member misuse.
    BadFbCall,
    /// A declared non-input variable is read but never assigned anywhere,
    /// so it forever holds its type default.
    ReadBeforeWrite,
    /// A value is overwritten before anything reads it.
    DeadStore,
    /// A statement can never execute (constant condition, or it follows
    /// EXIT/RETURN or an infinite loop).
    Unreachable,
    /// Division or modulo by a literal zero.
    DivisionByZero,
}

/// One semantic finding, anchored at a program-relative position.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckFinding {
    /// Finding category.
    pub code: CheckCode,
    /// Severity (errors mirror interpreter faults).
    pub severity: CheckSeverity,
    /// Human-readable message.
    pub message: String,
    /// Position within the ST source (1-based; may be unknown for
    /// programs imported from PLCopen XML).
    pub pos: Pos,
}

/// The checker's type lattice: concrete IEC types plus `Any` for values
/// whose type is only known at runtime (external inputs, merged branches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    Bool,
    Int,
    Real,
    Time,
    Str,
    Any,
}

impl Ty {
    fn of(dt: DataType) -> Ty {
        match dt {
            DataType::Bool => Ty::Bool,
            DataType::Int | DataType::Dint | DataType::Uint => Ty::Int,
            DataType::Real => Ty::Real,
            DataType::Time => Ty::Time,
            DataType::Str => Ty::Str,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Ty::Bool => "BOOL",
            Ty::Int => "INT",
            Ty::Real => "REAL",
            Ty::Time => "TIME",
            Ty::Str => "STRING",
            Ty::Any => "a runtime-typed value",
        }
    }

    /// Mirrors `StValue::as_bool`: only BOOL and INT are truthy-capable.
    fn boolish(self) -> bool {
        matches!(self, Ty::Bool | Ty::Int | Ty::Any)
    }

    /// Mirrors `StValue::as_f64`/`as_i64`: everything but STRING converts.
    fn numericish(self) -> bool {
        !matches!(self, Ty::Str)
    }

    fn unify(self, other: Ty) -> Ty {
        if self == other {
            self
        } else {
            Ty::Any
        }
    }
}

/// Flow-sensitive state: what has been written so far (and with what
/// effective type), plus pending writes for dead-store detection.
#[derive(Debug, Clone, Default)]
struct FlowState {
    written: BTreeSet<String>,
    types: BTreeMap<String, Ty>,
    /// name -> position of a write nothing has read yet.
    pending: BTreeMap<String, Pos>,
}

impl FlowState {
    /// Join after a branch: a variable counts as written only if every
    /// path wrote it; effective types that disagree decay to `Any`.
    /// Dead-store candidates do not survive control-flow joins.
    fn join(mut states: Vec<FlowState>) -> FlowState {
        let Some(first) = states.pop() else {
            return FlowState::default();
        };
        let mut written = first.written;
        let mut types = first.types;
        for st in states {
            written.retain(|n| st.written.contains(n));
            for (name, ty) in st.types {
                types
                    .entry(name)
                    .and_modify(|t| *t = t.unify(ty))
                    .or_insert(ty);
            }
        }
        FlowState {
            written,
            types,
            pending: BTreeMap::new(),
        }
    }
}

struct Checker<'a> {
    declared: BTreeMap<&'a str, &'a VarDecl>,
    fbs: BTreeMap<String, FbType>,
    external: &'a BTreeSet<String>,
    /// Every name assigned anywhere in the program (any scan may write it).
    ever_written: BTreeSet<String>,
    findings: Vec<CheckFinding>,
    /// Names already reported unknown / read-before-write (one finding per
    /// variable, not per occurrence).
    flagged_unknown: BTreeSet<String>,
    flagged_rbw: BTreeSet<String>,
}

/// Checks a program. `external` names variables the runtime provides before
/// every scan: MMS read rules, GOOSE subscriptions, and located variables
/// (the input image restores those from the I/O tables).
///
/// Findings come back sorted by position, then category.
pub fn check_program(program: &Program, external: &BTreeSet<String>) -> Vec<CheckFinding> {
    let mut checker = Checker {
        declared: program.vars.iter().map(|v| (v.name.as_str(), v)).collect(),
        fbs: program
            .fbs
            .iter()
            .map(|f| (f.name.clone(), f.fb_type))
            .collect(),
        external,
        ever_written: collect_all_writes(program),
        findings: Vec::new(),
        flagged_unknown: BTreeSet::new(),
        flagged_rbw: BTreeSet::new(),
    };

    let mut state = FlowState::default();
    // Declarations, in order: initializers run at instantiation with only
    // the earlier declarations (and no FB instances) in scope.
    for decl in &program.vars {
        if let Some(init) = &decl.initial {
            checker.check_initializer(decl, init, &state);
            let ty = checker.infer(init, &mut state.clone());
            checker.check_assignable(Ty::of(decl.ty), ty, &decl.name, init.pos());
            state.types.insert(decl.name.clone(), ty);
            state.written.insert(decl.name.clone());
        } else {
            state.types.insert(decl.name.clone(), Ty::of(decl.ty));
        }
    }

    checker.check_block(&program.body, &mut state);

    checker.findings.sort_by_key(|f| {
        (
            f.pos.line,
            f.pos.column,
            match f.code {
                CheckCode::TypeMismatch => 0u8,
                CheckCode::UnknownVariable => 1,
                CheckCode::BadFbCall => 2,
                CheckCode::ReadBeforeWrite => 3,
                CheckCode::DeadStore => 4,
                CheckCode::Unreachable => 5,
                CheckCode::DivisionByZero => 6,
            },
        )
    });
    checker.findings
}

impl<'a> Checker<'a> {
    fn emit(&mut self, code: CheckCode, severity: CheckSeverity, pos: Pos, message: String) {
        self.findings.push(CheckFinding {
            code,
            severity,
            message,
            pos,
        });
    }

    fn error(&mut self, code: CheckCode, pos: Pos, message: String) {
        self.emit(code, CheckSeverity::Error, pos, message);
    }

    fn warn(&mut self, code: CheckCode, pos: Pos, message: String) {
        self.emit(code, CheckSeverity::Warning, pos, message);
    }

    /// Initializers run before the runtime binds anything: FB members and
    /// external inputs are not available yet, and only earlier declarations
    /// are in scope. `state` holds exactly those earlier declarations.
    fn check_initializer(&mut self, decl: &VarDecl, init: &Expr, state: &FlowState) {
        let mut names = Vec::new();
        collect_reads(init, &mut names);
        for (name, pos) in names {
            if !state.types.contains_key(name) {
                self.error(
                    CheckCode::UnknownVariable,
                    pos,
                    format!(
                        "initializer of {:?} reads {name:?}, which is not declared before it \
                         (initializers run before any input binding)",
                        decl.name
                    ),
                );
                self.flagged_unknown.insert(name.to_string());
            }
        }
        if member_access(init) {
            self.error(
                CheckCode::BadFbCall,
                init.pos(),
                format!(
                    "initializer of {:?} reads a function-block output; FB instances do not \
                     exist yet when initializers run",
                    decl.name
                ),
            );
        }
    }

    // --- statements --------------------------------------------------------

    fn check_block(&mut self, stmts: &[Stmt], state: &mut FlowState) {
        let mut terminated: Option<&'static str> = None;
        let mut reported = false;
        for stmt in stmts {
            if let Some(why) = terminated {
                if !reported {
                    self.warn(
                        CheckCode::Unreachable,
                        stmt.pos(),
                        format!("statement is unreachable ({why})"),
                    );
                    reported = true;
                }
            }
            self.check_stmt(stmt, state);
            match stmt {
                Stmt::Exit { .. } => terminated = terminated.or(Some("it follows EXIT")),
                Stmt::Return { .. } => terminated = terminated.or(Some("it follows RETURN")),
                _ => {
                    if self.is_endless_loop(stmt) {
                        terminated = terminated.or(Some("it follows a loop that never exits"));
                    }
                }
            }
        }
    }

    /// A `WHILE TRUE` / `REPEAT … UNTIL FALSE` with no reachable EXIT or
    /// RETURN never terminates — the scan faults on its execution budget.
    fn is_endless_loop(&self, stmt: &Stmt) -> bool {
        match stmt {
            Stmt::While { cond, body, .. } => {
                matches!(cond, Expr::Lit(Literal::Bool(true), _)) && !breaks_loop(body)
            }
            Stmt::Repeat { body, until, .. } => {
                matches!(until, Expr::Lit(Literal::Bool(false), _)) && !breaks_loop(body)
            }
            _ => false,
        }
    }

    fn check_stmt(&mut self, stmt: &Stmt, state: &mut FlowState) {
        match stmt {
            Stmt::Assign { target, value, pos } => {
                let ty = self.infer(value, state);
                match target {
                    LValue::Var(name) => self.mark_write(name, ty, *pos, state),
                    LValue::Member(instance, member) => {
                        // The interpreter faults on this unconditionally.
                        self.error(
                            CheckCode::BadFbCall,
                            *pos,
                            format!(
                                "direct assignment to FB member {instance}.{member} is not \
                                 supported; pass inputs in the call"
                            ),
                        );
                    }
                }
            }
            Stmt::If {
                branches,
                else_body,
                ..
            } => {
                let mut results = Vec::new();
                let mut prior_constant_true = false;
                for (i, (cond, body)) in branches.iter().enumerate() {
                    let cty = self.infer(cond, state);
                    self.require_boolish(cty, cond.pos(), "IF condition");
                    if prior_constant_true {
                        self.unreachable_branch(cond.pos(), body, "a preceding condition");
                    } else if let Expr::Lit(Literal::Bool(b), _) = cond {
                        if *b {
                            prior_constant_true = true;
                            // Everything after this branch is dead.
                            let rest_dead = branches.len() > i + 1 || !else_body.is_empty();
                            if rest_dead {
                                // Reported when we reach the dead branch/else.
                            }
                        } else {
                            self.unreachable_branch(cond.pos(), body, "this condition");
                        }
                    }
                    let mut st = state.clone();
                    st.pending.clear();
                    self.check_block(body, &mut st);
                    results.push(st);
                }
                if prior_constant_true && !else_body.is_empty() {
                    let pos = else_body[0].pos();
                    self.warn(
                        CheckCode::Unreachable,
                        pos,
                        "ELSE branch is unreachable (a preceding condition is constant TRUE)"
                            .to_string(),
                    );
                }
                let mut st = state.clone();
                st.pending.clear();
                self.check_block(else_body, &mut st);
                results.push(st);
                *state = FlowState::join(results);
            }
            Stmt::Case {
                selector,
                arms,
                else_body,
                ..
            } => {
                let sty = self.infer(selector, state);
                if sty == Ty::Str {
                    self.error(
                        CheckCode::TypeMismatch,
                        selector.pos(),
                        "CASE selector is STRING, not an integer".to_string(),
                    );
                } else if sty == Ty::Real {
                    self.warn(
                        CheckCode::TypeMismatch,
                        selector.pos(),
                        "CASE selector is REAL and will be truncated to an integer".to_string(),
                    );
                }
                let mut results = Vec::new();
                for (_, body) in arms {
                    let mut st = state.clone();
                    st.pending.clear();
                    self.check_block(body, &mut st);
                    results.push(st);
                }
                let mut st = state.clone();
                st.pending.clear();
                self.check_block(else_body, &mut st);
                results.push(st);
                *state = FlowState::join(results);
            }
            Stmt::For {
                var,
                from,
                to,
                by,
                body,
                pos,
            } => {
                for (expr, what) in [
                    (Some(from), "start"),
                    (Some(to), "end"),
                    (by.as_ref(), "step"),
                ] {
                    let Some(expr) = expr else { continue };
                    let ty = self.infer(expr, state);
                    if ty == Ty::Str {
                        self.error(
                            CheckCode::TypeMismatch,
                            expr.pos(),
                            format!("FOR {what} is STRING, not an integer"),
                        );
                    } else if ty == Ty::Real {
                        self.warn(
                            CheckCode::TypeMismatch,
                            expr.pos(),
                            format!("FOR {what} is REAL and will be truncated"),
                        );
                    }
                }
                if let Some(Expr::Lit(Literal::Int(0), p)) = by {
                    self.error(
                        CheckCode::TypeMismatch,
                        *p,
                        "FOR step must not be zero".to_string(),
                    );
                }
                state.pending.clear();
                self.mark_write(var, Ty::Int, *pos, state);
                let mut st = state.clone();
                self.check_block(body, &mut st);
                *state = FlowState::join(vec![st, state.clone()]);
            }
            Stmt::While { cond, body, .. } => {
                let cty = self.infer(cond, state);
                self.require_boolish(cty, cond.pos(), "WHILE condition");
                if matches!(cond, Expr::Lit(Literal::Bool(false), _)) {
                    self.unreachable_branch(cond.pos(), body, "the WHILE condition");
                }
                state.pending.clear();
                let mut st = state.clone();
                self.check_block(body, &mut st);
                if self.is_endless_loop(stmt) {
                    self.error(
                        CheckCode::Unreachable,
                        stmt.pos(),
                        "WHILE TRUE without EXIT or RETURN never terminates; the scan would \
                         exhaust its execution budget"
                            .to_string(),
                    );
                }
                *state = FlowState::join(vec![st, state.clone()]);
            }
            Stmt::Repeat { body, until, .. } => {
                state.pending.clear();
                // The body always runs at least once.
                self.check_block(body, state);
                let uty = self.infer(until, state);
                self.require_boolish(uty, until.pos(), "UNTIL condition");
                if self.is_endless_loop(stmt) {
                    self.error(
                        CheckCode::Unreachable,
                        stmt.pos(),
                        "REPEAT … UNTIL FALSE without EXIT or RETURN never terminates; the \
                         scan would exhaust its execution budget"
                            .to_string(),
                    );
                }
                state.pending.clear();
            }
            Stmt::FbCall {
                instance,
                inputs,
                outputs,
                pos,
            } => {
                self.check_fb_call(instance, inputs, outputs, *pos, state);
            }
            Stmt::Exit { .. } | Stmt::Return { .. } => {}
        }
    }

    fn unreachable_branch(&mut self, cond_pos: Pos, body: &[Stmt], what: &str) {
        let pos = body.first().map(Stmt::pos).unwrap_or(cond_pos);
        self.warn(
            CheckCode::Unreachable,
            pos,
            format!("branch is never taken ({what} is constant)"),
        );
    }

    fn require_boolish(&mut self, ty: Ty, pos: Pos, what: &str) {
        if !ty.boolish() {
            self.error(
                CheckCode::TypeMismatch,
                pos,
                format!("{what} is {}, not BOOL", ty.name()),
            );
        }
    }

    fn check_fb_call(
        &mut self,
        instance: &str,
        inputs: &[(String, Expr)],
        outputs: &[(String, String)],
        pos: Pos,
        state: &mut FlowState,
    ) {
        // Inputs are evaluated before the instance is resolved.
        let mut input_tys = Vec::new();
        for (name, expr) in inputs {
            input_tys.push((name.to_uppercase(), self.infer(expr, state), expr.pos()));
        }
        state.pending.clear();
        let Some(fb_type) = self.fbs.get(instance).copied() else {
            self.error(
                CheckCode::BadFbCall,
                pos,
                format!("unknown function block {instance:?} (declare it as TON, CTU, …)"),
            );
            for (_, target) in outputs {
                self.mark_write(target, Ty::Any, pos, state);
            }
            return;
        };
        let (kind, valid_in, valid_out) = fb_signature(fb_type);
        for (name, ty, epos) in &input_tys {
            if !valid_in.contains(&name.as_str()) {
                self.warn(
                    CheckCode::BadFbCall,
                    *epos,
                    format!("{kind} has no input {name:?}; the value is ignored"),
                );
                continue;
            }
            let ok = match name.as_str() {
                "PT" => matches!(ty, Ty::Time | Ty::Int | Ty::Any),
                "PV" => ty.numericish(),
                // IN/CU/CD/R/LD/CLK/S/S1/R1 are all edge/level booleans.
                _ => ty.boolish(),
            };
            if !ok {
                self.warn(
                    CheckCode::TypeMismatch,
                    *epos,
                    format!(
                        "{kind} input {name} given {}; it reads as its default instead",
                        ty.name()
                    ),
                );
            }
        }
        for (member, target) in outputs {
            let upper = member.to_uppercase();
            if !valid_out.contains(&upper.as_str()) {
                self.error(
                    CheckCode::BadFbCall,
                    pos,
                    format!("{kind} {instance:?} has no output {member:?}"),
                );
                self.mark_write(target, Ty::Any, pos, state);
                continue;
            }
            self.mark_write(target, output_ty(&upper), pos, state);
        }
    }

    // --- reads and writes --------------------------------------------------

    fn mark_write(&mut self, name: &str, ty: Ty, pos: Pos, state: &mut FlowState) {
        if let Some(old) = state.pending.insert(name.to_string(), pos) {
            self.warn(
                CheckCode::DeadStore,
                old,
                format!("value assigned to {name:?} is overwritten before anything reads it"),
            );
        }
        if let Some(decl) = self.declared.get(name) {
            self.check_assignable(Ty::of(decl.ty), ty, name, pos);
        }
        state.written.insert(name.to_string());
        state.types.insert(name.to_string(), ty);
    }

    fn check_assignable(&mut self, target: Ty, value: Ty, name: &str, pos: Pos) {
        let ok = match (target, value) {
            (Ty::Any, _) | (_, Ty::Any) => true,
            (a, b) if a == b => true,
            // Integer widens into REAL without surprises.
            (Ty::Real, Ty::Int) => true,
            _ => false,
        };
        if !ok {
            self.warn(
                CheckCode::TypeMismatch,
                pos,
                format!(
                    "{name:?} is declared {} but is assigned {}",
                    target.name(),
                    value.name()
                ),
            );
        }
    }

    fn mark_read(&mut self, name: &str, pos: Pos, state: &mut FlowState) -> Ty {
        state.pending.remove(name);
        if self.external.contains(name) {
            // Provided by the runtime before every scan; its value (and
            // type) is whatever the binding delivers.
            return state
                .types
                .get(name)
                .copied()
                .unwrap_or(Ty::Any)
                .unify(Ty::Any);
        }
        if state.written.contains(name) {
            return state.types.get(name).copied().unwrap_or(Ty::Any);
        }
        if let Some(decl) = self.declared.get(name) {
            // Declared but never assigned anywhere: every scan reads the
            // type default. Reading state *before* updating it later in the
            // scan is idiomatic (values persist across scans), so only a
            // variable with no write at all is flagged. Inputs are fed
            // externally by definition.
            let class = decl.class;
            let dty = Ty::of(decl.ty);
            if class != VarClass::Input
                && !self.ever_written.contains(name)
                && self.flagged_rbw.insert(name.to_string())
            {
                self.warn(
                    CheckCode::ReadBeforeWrite,
                    pos,
                    format!(
                        "{name:?} is read but never assigned and has no binding; it always \
                         holds the {} default",
                        dty.name()
                    ),
                );
            }
            return state.types.get(name).copied().unwrap_or(dty);
        }
        if self.fbs.contains_key(name) {
            if self.flagged_unknown.insert(name.to_string()) {
                self.error(
                    CheckCode::UnknownVariable,
                    pos,
                    format!(
                        "{name:?} is a function-block instance, not a variable; read an \
                         output like {name}.Q instead"
                    ),
                );
            }
            return Ty::Any;
        }
        if self.flagged_unknown.insert(name.to_string()) {
            self.error(
                CheckCode::UnknownVariable,
                pos,
                format!(
                    "unknown variable {name:?}: it is not declared, not provided by any \
                     binding, and nothing assigns it before this read"
                ),
            );
        }
        Ty::Any
    }

    // --- expressions --------------------------------------------------------

    fn infer(&mut self, expr: &Expr, state: &mut FlowState) -> Ty {
        match expr {
            Expr::Lit(lit, _) => match lit {
                Literal::Bool(_) => Ty::Bool,
                Literal::Int(_) => Ty::Int,
                Literal::Real(_) => Ty::Real,
                Literal::Time(_) => Ty::Time,
                Literal::Str(_) => Ty::Str,
            },
            Expr::Var(name, pos) => self.mark_read(name, *pos, state),
            Expr::Member(instance, member, pos) => {
                let Some(fb_type) = self.fbs.get(instance).copied() else {
                    self.error(
                        CheckCode::BadFbCall,
                        *pos,
                        format!("unknown member {instance}.{member}: no such FB instance"),
                    );
                    return Ty::Any;
                };
                let upper = member.to_uppercase();
                let (kind, _, valid_out) = fb_signature(fb_type);
                if !valid_out.contains(&upper.as_str()) {
                    self.error(
                        CheckCode::BadFbCall,
                        *pos,
                        format!("{kind} {instance:?} has no output {member:?}"),
                    );
                    return Ty::Any;
                }
                output_ty(&upper)
            }
            Expr::Unary(op, inner, pos) => {
                let ty = self.infer(inner, state);
                match op {
                    UnOp::Not => match ty {
                        Ty::Bool | Ty::Int | Ty::Any => ty,
                        other => {
                            self.error(
                                CheckCode::TypeMismatch,
                                *pos,
                                format!("NOT applied to {}", other.name()),
                            );
                            Ty::Any
                        }
                    },
                    UnOp::Neg => match ty {
                        Ty::Int | Ty::Real | Ty::Any => ty,
                        other => {
                            self.error(
                                CheckCode::TypeMismatch,
                                *pos,
                                format!("negation applied to {}", other.name()),
                            );
                            Ty::Any
                        }
                    },
                }
            }
            Expr::Binary(op, a, b, pos) => {
                let ta = self.infer(a, state);
                let tb = self.infer(b, state);
                self.infer_binary(*op, ta, tb, b, *pos)
            }
            Expr::Call { name, args, pos } => {
                let mut tys = Vec::with_capacity(args.len());
                for arg in args {
                    tys.push((self.infer(arg, state), arg.pos()));
                }
                self.infer_call(name, &tys, *pos)
            }
        }
    }

    fn infer_binary(&mut self, op: BinOp, ta: Ty, tb: Ty, rhs: &Expr, pos: Pos) -> Ty {
        use BinOp::*;
        match op {
            Or | Xor | And => {
                if !ta.boolish() || !tb.boolish() {
                    self.error(
                        CheckCode::TypeMismatch,
                        pos,
                        format!("logic operator applied to {} and {}", ta.name(), tb.name()),
                    );
                    return Ty::Bool;
                }
                match (ta, tb) {
                    (Ty::Int, Ty::Int) => Ty::Int,
                    (Ty::Bool, Ty::Bool) | (Ty::Bool, Ty::Int) | (Ty::Int, Ty::Bool) => Ty::Bool,
                    _ => Ty::Any,
                }
            }
            Eq | Neq | Lt | Gt | Le | Ge => {
                let str_mismatch = (ta == Ty::Str && !matches!(tb, Ty::Str | Ty::Any))
                    || (tb == Ty::Str && !matches!(ta, Ty::Str | Ty::Any));
                if str_mismatch {
                    self.error(
                        CheckCode::TypeMismatch,
                        pos,
                        format!("comparison between {} and {}", ta.name(), tb.name()),
                    );
                }
                Ty::Bool
            }
            Add | Sub | Mul | Div | Mod | Pow => {
                if matches!(op, Div | Mod) {
                    if let Expr::Lit(Literal::Int(0), zp) | Expr::Lit(Literal::Real(0.0), zp) = rhs
                    {
                        self.error(
                            CheckCode::DivisionByZero,
                            *zp,
                            format!(
                                "{} by a literal zero always faults",
                                if op == Div { "division" } else { "modulo" }
                            ),
                        );
                    }
                }
                if ta == Ty::Str || tb == Ty::Str {
                    self.error(
                        CheckCode::TypeMismatch,
                        pos,
                        format!("arithmetic on {} and {}", ta.name(), tb.name()),
                    );
                    return Ty::Any;
                }
                if ta == Ty::Time && tb == Ty::Time {
                    if matches!(op, Add | Sub) {
                        return Ty::Time;
                    }
                    self.error(
                        CheckCode::TypeMismatch,
                        pos,
                        "unsupported TIME operation (only + and - keep TIME)".to_string(),
                    );
                    return Ty::Any;
                }
                if (ta == Ty::Time) != (tb == Ty::Time) && ta != Ty::Any && tb != Ty::Any {
                    self.warn(
                        CheckCode::TypeMismatch,
                        pos,
                        format!(
                            "mixed arithmetic on {} and {} converts TIME to seconds",
                            ta.name(),
                            tb.name()
                        ),
                    );
                    return Ty::Real;
                }
                if ta == Ty::Bool || tb == Ty::Bool {
                    self.warn(
                        CheckCode::TypeMismatch,
                        pos,
                        format!("arithmetic on {} and {}", ta.name(), tb.name()),
                    );
                    return Ty::Real;
                }
                match (ta, tb) {
                    (Ty::Int, Ty::Int) => Ty::Int,
                    (Ty::Any, _) | (_, Ty::Any) => Ty::Any,
                    _ => Ty::Real,
                }
            }
        }
    }

    fn infer_call(&mut self, name: &str, args: &[(Ty, Pos)], pos: Pos) -> Ty {
        let Some(function) = Builtin::named(name) else {
            self.error(
                CheckCode::BadFbCall,
                pos,
                format!("unknown function {name:?}"),
            );
            return Ty::Any;
        };
        let (min, max) = function.arity();
        if args.len() < min {
            self.error(
                CheckCode::BadFbCall,
                pos,
                format!(
                    "{name} expects {min} argument{}, got {}",
                    if min == 1 { "" } else { "s" },
                    args.len()
                ),
            );
            return Ty::Any;
        }
        if args.len() > max {
            self.warn(
                CheckCode::BadFbCall,
                pos,
                format!(
                    "{name} takes {max} argument{}; the extra {} ignored",
                    if max == 1 { "" } else { "s" },
                    if args.len() - max == 1 {
                        "one is"
                    } else {
                        "ones are"
                    }
                ),
            );
        }
        match function {
            Builtin::Sel => {
                let (gty, gpos) = args[0];
                if !gty.boolish() {
                    self.error(
                        CheckCode::TypeMismatch,
                        gpos,
                        format!("SEL selector is {}, not BOOL", gty.name()),
                    );
                }
                match (args.get(1), args.get(2)) {
                    (Some((a, _)), Some((b, _))) => a.unify(*b),
                    _ => Ty::Any,
                }
            }
            Builtin::BoolToInt => {
                if !args[0].0.boolish() {
                    self.error(
                        CheckCode::TypeMismatch,
                        args[0].1,
                        format!("BOOL_TO_INT: argument is {}, not BOOL", args[0].0.name()),
                    );
                }
                Ty::Int
            }
            // Every other function takes numbers only.
            _ => {
                for (i, (ty, apos)) in args.iter().take(max).enumerate() {
                    if !ty.numericish() {
                        self.error(
                            CheckCode::TypeMismatch,
                            *apos,
                            format!("{name}: argument {i} is {}, not numeric", ty.name()),
                        );
                    }
                }
                match (function, args[0].0) {
                    (Builtin::Abs, ty @ (Ty::Int | Ty::Any)) => ty,
                    (Builtin::ToInt, _) => Ty::Int,
                    (Builtin::ToBool, _) => Ty::Bool,
                    _ => Ty::Real,
                }
            }
        }
    }
}

/// Valid inputs/outputs per standard FB type (uppercased names), plus the
/// IEC name for messages.
fn fb_signature(
    fb: FbType,
) -> (
    &'static str,
    &'static [&'static str],
    &'static [&'static str],
) {
    match fb {
        FbType::Ton => ("TON", &["IN", "PT"], &["Q", "ET"]),
        FbType::Tof => ("TOF", &["IN", "PT"], &["Q", "ET"]),
        FbType::Tp => ("TP", &["IN", "PT"], &["Q", "ET"]),
        FbType::Ctu => ("CTU", &["CU", "R", "PV"], &["Q", "CV"]),
        FbType::Ctd => ("CTD", &["CD", "LD", "PV"], &["Q", "CV"]),
        FbType::RTrig => ("R_TRIG", &["CLK"], &["Q", "Q1"]),
        FbType::FTrig => ("F_TRIG", &["CLK"], &["Q", "Q1"]),
        FbType::Sr => ("SR", &["S", "S1", "R", "R1"], &["Q", "Q1"]),
        FbType::Rs => ("RS", &["S", "S1", "R", "R1"], &["Q", "Q1"]),
    }
}

fn output_ty(member: &str) -> Ty {
    match member {
        "ET" => Ty::Time,
        "CV" => Ty::Int,
        _ => Ty::Bool,
    }
}

/// Does this statement list reach an EXIT or RETURN that would break the
/// *enclosing* loop? EXITs inside nested loops only break those.
fn breaks_loop(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Exit { .. } | Stmt::Return { .. } => true,
        Stmt::If {
            branches,
            else_body,
            ..
        } => branches.iter().any(|(_, b)| breaks_loop(b)) || breaks_loop(else_body),
        Stmt::Case {
            arms, else_body, ..
        } => arms.iter().any(|(_, b)| breaks_loop(b)) || breaks_loop(else_body),
        // A RETURN nested in an inner loop still leaves the scan.
        Stmt::For { body, .. } | Stmt::While { body, .. } | Stmt::Repeat { body, .. } => {
            returns(body)
        }
        _ => false,
    })
}

fn returns(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Return { .. } => true,
        Stmt::If {
            branches,
            else_body,
            ..
        } => branches.iter().any(|(_, b)| returns(b)) || returns(else_body),
        Stmt::Case {
            arms, else_body, ..
        } => arms.iter().any(|(_, b)| returns(b)) || returns(else_body),
        Stmt::For { body, .. } | Stmt::While { body, .. } | Stmt::Repeat { body, .. } => {
            returns(body)
        }
        _ => false,
    })
}

/// Every variable name the program can assign: initialized declarations,
/// assignment targets, FOR loop variables, and FB output captures. The lint
/// layer uses this to validate cross-plane bindings (a `<Write>` rule or a
/// SCADA tag is dead unless the program drives its variable).
pub fn assigned_variables(program: &Program) -> BTreeSet<String> {
    collect_all_writes(program)
}

/// Every plain variable the program reads anywhere — in expressions,
/// conditions, initializers, and FB inputs (FB *output* member reads are
/// not variable reads). The lint layer uses this to spot `<Read>`/`<Goose>`
/// bindings that feed a variable nothing consumes.
pub fn read_variables(program: &Program) -> BTreeSet<String> {
    fn expr(e: &Expr, out: &mut BTreeSet<String>) {
        let mut names = Vec::new();
        collect_reads(e, &mut names);
        for (name, _) in names {
            out.insert(name.to_string());
        }
    }
    fn walk(stmts: &[Stmt], out: &mut BTreeSet<String>) {
        for stmt in stmts {
            match stmt {
                Stmt::Assign { value, .. } => expr(value, out),
                Stmt::If {
                    branches,
                    else_body,
                    ..
                } => {
                    for (cond, body) in branches {
                        expr(cond, out);
                        walk(body, out);
                    }
                    walk(else_body, out);
                }
                Stmt::Case {
                    selector,
                    arms,
                    else_body,
                    ..
                } => {
                    expr(selector, out);
                    for (_, body) in arms {
                        walk(body, out);
                    }
                    walk(else_body, out);
                }
                Stmt::For {
                    from, to, by, body, ..
                } => {
                    expr(from, out);
                    expr(to, out);
                    if let Some(by) = by {
                        expr(by, out);
                    }
                    walk(body, out);
                }
                Stmt::While { cond, body, .. } => {
                    expr(cond, out);
                    walk(body, out);
                }
                Stmt::Repeat { body, until, .. } => {
                    walk(body, out);
                    expr(until, out);
                }
                Stmt::FbCall { inputs, .. } => {
                    for (_, e) in inputs {
                        expr(e, out);
                    }
                }
                Stmt::Exit { .. } | Stmt::Return { .. } => {}
            }
        }
    }
    let mut out = BTreeSet::new();
    for decl in &program.vars {
        if let Some(init) = &decl.initial {
            expr(init, &mut out);
        }
    }
    walk(&program.body, &mut out);
    out
}

/// Every name the program can assign: initialized declarations, assignment
/// targets, FOR loop variables, and FB output captures.
fn collect_all_writes(program: &Program) -> BTreeSet<String> {
    fn walk(stmts: &[Stmt], out: &mut BTreeSet<String>) {
        for stmt in stmts {
            match stmt {
                Stmt::Assign { target, .. } => {
                    if let LValue::Var(name) = target {
                        out.insert(name.clone());
                    }
                }
                Stmt::If {
                    branches,
                    else_body,
                    ..
                } => {
                    for (_, body) in branches {
                        walk(body, out);
                    }
                    walk(else_body, out);
                }
                Stmt::Case {
                    arms, else_body, ..
                } => {
                    for (_, body) in arms {
                        walk(body, out);
                    }
                    walk(else_body, out);
                }
                Stmt::For { var, body, .. } => {
                    out.insert(var.clone());
                    walk(body, out);
                }
                Stmt::While { body, .. } => walk(body, out),
                Stmt::Repeat { body, .. } => walk(body, out),
                Stmt::FbCall { outputs, .. } => {
                    for (_, target) in outputs {
                        out.insert(target.clone());
                    }
                }
                Stmt::Exit { .. } | Stmt::Return { .. } => {}
            }
        }
    }
    let mut out = BTreeSet::new();
    for decl in &program.vars {
        if decl.initial.is_some() {
            out.insert(decl.name.clone());
        }
    }
    walk(&program.body, &mut out);
    out
}

/// Collects every plain-variable read in an expression.
fn collect_reads<'e>(expr: &'e Expr, out: &mut Vec<(&'e str, Pos)>) {
    match expr {
        Expr::Lit(..) => {}
        Expr::Var(name, pos) => out.push((name, *pos)),
        Expr::Member(..) => {}
        Expr::Unary(_, inner, _) => collect_reads(inner, out),
        Expr::Binary(_, a, b, _) => {
            collect_reads(a, out);
            collect_reads(b, out);
        }
        Expr::Call { args, .. } => {
            for a in args {
                collect_reads(a, out);
            }
        }
    }
}

fn member_access(expr: &Expr) -> bool {
    match expr {
        Expr::Member(..) => true,
        Expr::Lit(..) | Expr::Var(..) => false,
        Expr::Unary(_, inner, _) => member_access(inner),
        Expr::Binary(_, a, b, _) => member_access(a) || member_access(b),
        Expr::Call { args, .. } => args.iter().any(member_access),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::st::parser::parse_program;

    fn check(src: &str, external: &[&str]) -> Vec<CheckFinding> {
        let program = parse_program(src).expect("parse");
        let ext: BTreeSet<String> = external.iter().map(|s| s.to_string()).collect();
        check_program(&program, &ext)
    }

    fn codes(findings: &[CheckFinding]) -> Vec<CheckCode> {
        findings.iter().map(|f| f.code).collect()
    }

    #[test]
    fn clean_program_is_clean() {
        let findings = check(
            "PROGRAM p VAR x : INT := 1; y : REAL; b : BOOL; t1 : TON; END_VAR \
             y := x / 2.0; \
             t1(IN := b, PT := T#5s); \
             b := t1.Q AND y > 0.5; \
             END_PROGRAM",
            &[],
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn external_variables_are_provided() {
        // `level` comes from an MMS read rule; `out` is located I/O.
        let findings = check(
            "PROGRAM p VAR level : REAL; out AT %QX0.0 : BOOL; END_VAR \
             out := level > 0.9; END_PROGRAM",
            &["level", "out"],
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unknown_variable_is_an_error() {
        let findings = check(
            "PROGRAM p VAR x : INT; END_VAR x := nope + 1; END_PROGRAM",
            &[],
        );
        assert_eq!(codes(&findings), vec![CheckCode::UnknownVariable]);
        assert_eq!(findings[0].severity, CheckSeverity::Error);
        // Reported once even when read twice.
        let findings = check(
            "PROGRAM p VAR x : INT; END_VAR x := nope + nope; END_PROGRAM",
            &[],
        );
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn never_written_read_is_a_warning() {
        let findings = check(
            "PROGRAM p VAR x : INT; y : INT; END_VAR y := x + 1; END_PROGRAM",
            &[],
        );
        assert_eq!(codes(&findings), vec![CheckCode::ReadBeforeWrite]);
        assert_eq!(findings[0].severity, CheckSeverity::Warning);
        // Reported once even when read repeatedly.
        let findings = check(
            "PROGRAM p VAR x : INT; y : INT; END_VAR y := x + x; END_PROGRAM",
            &[],
        );
        assert_eq!(findings.len(), 1);
        // Inputs and externally provided variables are exempt.
        let findings = check(
            "PROGRAM p VAR_INPUT x : INT; END_VAR VAR y : INT; END_VAR y := x; END_PROGRAM",
            &[],
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn scan_feedback_reads_are_idiomatic() {
        // Reading state written later in the scan (or only conditionally)
        // is fine: values persist across scans.
        let findings = check(
            "PROGRAM p VAR x : INT; y : INT; END_VAR y := x + 1; x := y; END_PROGRAM",
            &[],
        );
        assert!(findings.is_empty(), "{findings:?}");
        let findings = check(
            "PROGRAM p VAR c : BOOL; x : INT; y : INT; END_VAR \
             c := TRUE; IF c THEN x := 1; END_IF; y := x; END_PROGRAM",
            &[],
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn dead_store_detected_in_straight_line_code() {
        let findings = check(
            "PROGRAM p VAR x : INT; END_VAR x := 1; x := 2; END_PROGRAM",
            &[],
        );
        assert_eq!(codes(&findings), vec![CheckCode::DeadStore]);
        assert_eq!(findings[0].pos.line, 1);
        // A read in between keeps both stores alive.
        let findings = check(
            "PROGRAM p VAR x : INT; y : INT; END_VAR x := 1; y := x; x := 2; END_PROGRAM",
            &[],
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unreachable_after_return_and_constant_if() {
        let findings = check(
            "PROGRAM p VAR x : INT; END_VAR RETURN; x := 1; END_PROGRAM",
            &[],
        );
        assert_eq!(codes(&findings), vec![CheckCode::Unreachable]);
        let findings = check(
            "PROGRAM p VAR x : INT; END_VAR IF FALSE THEN x := 1; END_IF; END_PROGRAM",
            &[],
        );
        assert_eq!(codes(&findings), vec![CheckCode::Unreachable]);
    }

    #[test]
    fn endless_loop_is_an_error() {
        let findings = check(
            "PROGRAM p VAR x : INT; END_VAR WHILE TRUE DO x := x + 1; END_WHILE; END_PROGRAM",
            &[],
        );
        assert!(findings
            .iter()
            .any(|f| f.code == CheckCode::Unreachable && f.severity == CheckSeverity::Error));
        // With an EXIT it terminates.
        let findings = check(
            "PROGRAM p VAR x : INT; END_VAR \
             WHILE TRUE DO x := x + 1; IF x > 3 THEN EXIT; END_IF; END_WHILE; END_PROGRAM",
            &[],
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn division_by_literal_zero() {
        let findings = check(
            "PROGRAM p VAR x : INT; END_VAR x := 1 / 0; END_PROGRAM",
            &[],
        );
        assert_eq!(codes(&findings), vec![CheckCode::DivisionByZero]);
        assert_eq!(findings[0].severity, CheckSeverity::Error);
    }

    #[test]
    fn type_mismatches() {
        // Logic on REAL faults at runtime: error.
        let findings = check(
            "PROGRAM p VAR r : REAL; b : BOOL; END_VAR r := 1.0; b := r AND b; END_PROGRAM",
            &[],
        );
        assert!(findings
            .iter()
            .any(|f| f.code == CheckCode::TypeMismatch && f.severity == CheckSeverity::Error));
        // REAL into INT is tolerated at runtime: warning.
        let findings = check("PROGRAM p VAR x : INT; END_VAR x := 1.5; END_PROGRAM", &[]);
        assert_eq!(codes(&findings), vec![CheckCode::TypeMismatch]);
        assert_eq!(findings[0].severity, CheckSeverity::Warning);
        // STRING comparison against a number faults.
        let findings = check(
            "PROGRAM p VAR s : STRING; b : BOOL; END_VAR s := 'x'; b := s > 1; END_PROGRAM",
            &[],
        );
        assert!(findings
            .iter()
            .any(|f| f.code == CheckCode::TypeMismatch && f.severity == CheckSeverity::Error));
    }

    #[test]
    fn effective_types_follow_assignments() {
        // x is declared INT but holds a REAL; logic on it would fault.
        let findings = check(
            "PROGRAM p VAR x : INT; b : BOOL; END_VAR x := 1.5; b := x AND b; END_PROGRAM",
            &[],
        );
        assert!(findings
            .iter()
            .any(|f| f.code == CheckCode::TypeMismatch && f.severity == CheckSeverity::Error));
    }

    #[test]
    fn fb_call_checks() {
        // Unknown instance.
        let findings = check(
            "PROGRAM p VAR b : BOOL := TRUE; END_VAR t1(IN := b); END_PROGRAM",
            &[],
        );
        assert_eq!(codes(&findings), vec![CheckCode::BadFbCall]);
        // Unknown output is an error; unknown input only a warning.
        let findings = check(
            "PROGRAM p VAR b : BOOL := TRUE; t1 : TON; END_VAR \
             t1(IN := b, PT := T#1s, NOPE := b); END_PROGRAM",
            &[],
        );
        assert_eq!(codes(&findings), vec![CheckCode::BadFbCall]);
        assert_eq!(findings[0].severity, CheckSeverity::Warning);
        let findings = check(
            "PROGRAM p VAR b : BOOL; t1 : TON; END_VAR t1(IN := b, CV => b); END_PROGRAM",
            &[],
        );
        assert_eq!(codes(&findings), vec![CheckCode::BadFbCall]);
        assert_eq!(findings[0].severity, CheckSeverity::Error);
        // FB member assignment faults at runtime.
        let findings = check(
            "PROGRAM p VAR b : BOOL := TRUE; t1 : TON; END_VAR t1.IN := b; END_PROGRAM",
            &[],
        );
        assert_eq!(codes(&findings), vec![CheckCode::BadFbCall]);
        assert_eq!(findings[0].severity, CheckSeverity::Error);
    }

    #[test]
    fn builtin_arity_and_unknown_function() {
        let findings = check(
            "PROGRAM p VAR x : REAL; END_VAR x := FROBNICATE(1.0); END_PROGRAM",
            &[],
        );
        assert_eq!(codes(&findings), vec![CheckCode::BadFbCall]);
        let findings = check(
            "PROGRAM p VAR x : REAL; END_VAR x := EXPT(2.0); END_PROGRAM",
            &[],
        );
        assert_eq!(codes(&findings), vec![CheckCode::BadFbCall]);
        assert_eq!(findings[0].severity, CheckSeverity::Error);
    }

    #[test]
    fn initializer_scope_is_declaration_order() {
        let findings = check(
            "PROGRAM p VAR x : INT := y; y : INT := 1; END_VAR END_PROGRAM",
            &[],
        );
        assert_eq!(codes(&findings), vec![CheckCode::UnknownVariable]);
        let findings = check(
            "PROGRAM p VAR y : INT := 1; x : INT := y; END_VAR END_PROGRAM",
            &[],
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn findings_carry_positions() {
        let findings = check(
            "PROGRAM p\nVAR x : INT;\nEND_VAR\nx := nope;\nEND_PROGRAM",
            &[],
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].pos, Pos::new(4, 6));
    }
}
