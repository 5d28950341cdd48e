//! Tree-walking interpreter for Structured Text, with the IEC standard
//! function blocks (TON/TOF/TP, CTU/CTD, R_TRIG/F_TRIG, SR/RS).

use super::ast::*;
use super::Builtin;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum StValue {
    /// BOOL
    Bool(bool),
    /// Integer family
    Int(i64),
    /// REAL
    Real(f64),
    /// TIME in nanoseconds
    Time(u64),
    /// STRING
    Str(String),
}

impl StValue {
    /// The default value of a type.
    pub fn default_of(ty: DataType) -> StValue {
        match ty {
            DataType::Bool => StValue::Bool(false),
            DataType::Int | DataType::Dint | DataType::Uint => StValue::Int(0),
            DataType::Real => StValue::Real(0.0),
            DataType::Time => StValue::Time(0),
            DataType::Str => StValue::Str(String::new()),
        }
    }

    /// Truthiness for conditions.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            StValue::Bool(b) => Some(*b),
            StValue::Int(i) => Some(*i != 0),
            _ => None,
        }
    }

    /// Numeric view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            StValue::Int(i) => Some(*i as f64),
            StValue::Real(r) => Some(*r),
            StValue::Bool(b) => Some(f64::from(u8::from(*b))),
            StValue::Time(t) => Some(*t as f64 / 1e9),
            StValue::Str(_) => None,
        }
    }

    /// Integer view (truncating reals).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            StValue::Int(i) => Some(*i),
            StValue::Real(r) => Some(*r as i64),
            StValue::Bool(b) => Some(i64::from(*b)),
            StValue::Time(t) => Some(*t as i64),
            StValue::Str(_) => None,
        }
    }
}

impl fmt::Display for StValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StValue::Bool(b) => write!(f, "{b}"),
            StValue::Int(i) => write!(f, "{i}"),
            StValue::Real(r) => write!(f, "{r}"),
            StValue::Time(t) => write!(f, "T#{}ms", t / 1_000_000),
            StValue::Str(s) => write!(f, "'{s}'"),
        }
    }
}

/// A runtime error (the PLC faults on these).
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for RuntimeError {}

fn rt(message: impl Into<String>) -> RuntimeError {
    RuntimeError {
        message: message.into(),
    }
}

/// A standard function-block instance.
#[derive(Debug, Clone)]
pub enum FbInstance {
    /// On-delay timer.
    Ton {
        /// Output.
        q: bool,
        /// Elapsed time (ns).
        et: u64,
        /// Preset (ns).
        pt: u64,
        /// Rising-edge start time.
        start: Option<u64>,
    },
    /// Off-delay timer.
    Tof {
        /// Output.
        q: bool,
        /// Elapsed time (ns).
        et: u64,
        /// Preset (ns).
        pt: u64,
        /// Falling-edge start time.
        start: Option<u64>,
    },
    /// Pulse timer.
    Tp {
        /// Output.
        q: bool,
        /// Elapsed time (ns).
        et: u64,
        /// Preset (ns).
        pt: u64,
        /// Pulse start time.
        start: Option<u64>,
        /// Previous IN.
        prev_in: bool,
    },
    /// Up counter.
    Ctu {
        /// Count value.
        cv: i64,
        /// Output (cv >= pv).
        q: bool,
        /// Previous CU.
        prev: bool,
    },
    /// Down counter.
    Ctd {
        /// Count value.
        cv: i64,
        /// Output (cv <= 0).
        q: bool,
        /// Previous CD.
        prev: bool,
    },
    /// Rising-edge detector.
    RTrig {
        /// Output.
        q: bool,
        /// Previous CLK.
        prev: bool,
    },
    /// Falling-edge detector.
    FTrig {
        /// Output.
        q: bool,
        /// Previous CLK.
        prev: bool,
    },
    /// Set-dominant bistable.
    Sr {
        /// Output.
        q: bool,
    },
    /// Reset-dominant bistable.
    Rs {
        /// Output.
        q: bool,
    },
}

impl FbInstance {
    fn new(fb_type: FbType) -> FbInstance {
        match fb_type {
            FbType::Ton => FbInstance::Ton {
                q: false,
                et: 0,
                pt: 0,
                start: None,
            },
            FbType::Tof => FbInstance::Tof {
                q: false,
                et: 0,
                pt: 0,
                start: None,
            },
            FbType::Tp => FbInstance::Tp {
                q: false,
                et: 0,
                pt: 0,
                start: None,
                prev_in: false,
            },
            FbType::Ctu => FbInstance::Ctu {
                cv: 0,
                q: false,
                prev: false,
            },
            FbType::Ctd => FbInstance::Ctd {
                cv: 0,
                q: false,
                prev: false,
            },
            FbType::RTrig => FbInstance::RTrig {
                q: false,
                prev: false,
            },
            FbType::FTrig => FbInstance::FTrig {
                q: false,
                prev: false,
            },
            FbType::Sr => FbInstance::Sr { q: false },
            FbType::Rs => FbInstance::Rs { q: false },
        }
    }

    /// The block's input parameters (four at most): a call passes the value
    /// of input `inputs()[i]`, if given, as `args[i]`.
    fn inputs(&self) -> &'static [&'static str] {
        match self {
            FbInstance::Ton { .. } | FbInstance::Tof { .. } | FbInstance::Tp { .. } => {
                &["IN", "PT"]
            }
            FbInstance::Ctu { .. } => &["CU", "R", "PV"],
            FbInstance::Ctd { .. } => &["CD", "LD", "PV"],
            FbInstance::RTrig { .. } | FbInstance::FTrig { .. } => &["CLK"],
            FbInstance::Sr { .. } | FbInstance::Rs { .. } => &["S", "S1", "R", "R1"],
        }
    }

    /// Invokes the block with its input arguments at simulation time
    /// `now_ns`.
    fn call(&mut self, now_ns: u64, args: &[Option<StValue>; 4]) -> Result<(), RuntimeError> {
        let inputs = self.inputs();
        let arg = |name: &str| args[inputs.iter().position(|&input| input == name)?].as_ref();
        let get_bool =
            |name: &str| -> bool { arg(name).and_then(StValue::as_bool).unwrap_or(false) };
        let get_time = |name: &str| -> Option<u64> {
            match arg(name) {
                Some(StValue::Time(t)) => Some(*t),
                Some(StValue::Int(i)) if *i >= 0 => Some(*i as u64 * 1_000_000),
                _ => None,
            }
        };
        let get_int = |name: &str| -> Option<i64> { arg(name).and_then(StValue::as_i64) };

        match self {
            FbInstance::Ton { q, et, pt, start } => {
                if let Some(t) = get_time("PT") {
                    *pt = t;
                }
                let input = get_bool("IN");
                if input {
                    let s = *start.get_or_insert(now_ns);
                    *et = (now_ns - s).min(*pt);
                    *q = now_ns - s >= *pt;
                } else {
                    *start = None;
                    *et = 0;
                    *q = false;
                }
            }
            FbInstance::Tof { q, et, pt, start } => {
                if let Some(t) = get_time("PT") {
                    *pt = t;
                }
                let input = get_bool("IN");
                if input {
                    *q = true;
                    *start = None;
                    *et = 0;
                } else if *q {
                    let s = *start.get_or_insert(now_ns);
                    *et = (now_ns - s).min(*pt);
                    if now_ns - s >= *pt {
                        *q = false;
                    }
                }
            }
            FbInstance::Tp {
                q,
                et,
                pt,
                start,
                prev_in,
            } => {
                if let Some(t) = get_time("PT") {
                    *pt = t;
                }
                let input = get_bool("IN");
                if input && !*prev_in && start.is_none() {
                    *start = Some(now_ns);
                }
                *prev_in = input;
                if let Some(s) = *start {
                    *et = (now_ns - s).min(*pt);
                    if now_ns - s >= *pt {
                        *q = false;
                        if !input {
                            *start = None;
                            *et = 0;
                        }
                    } else {
                        *q = true;
                    }
                } else {
                    *q = false;
                    *et = 0;
                }
            }
            FbInstance::Ctu { cv, q, prev } => {
                let cu = get_bool("CU");
                let reset = get_bool("R");
                let pv = get_int("PV").unwrap_or(0);
                if reset {
                    *cv = 0;
                } else if cu && !*prev {
                    *cv += 1;
                }
                *prev = cu;
                *q = *cv >= pv;
            }
            FbInstance::Ctd { cv, q, prev } => {
                let cd = get_bool("CD");
                let load = get_bool("LD");
                let pv = get_int("PV").unwrap_or(0);
                if load {
                    *cv = pv;
                } else if cd && !*prev && *cv > 0 {
                    *cv -= 1;
                }
                *prev = cd;
                *q = *cv <= 0;
            }
            FbInstance::RTrig { q, prev } => {
                let clk = get_bool("CLK");
                *q = clk && !*prev;
                *prev = clk;
            }
            FbInstance::FTrig { q, prev } => {
                let clk = get_bool("CLK");
                *q = !clk && *prev;
                *prev = clk;
            }
            FbInstance::Sr { q } => {
                let s1 = get_bool("S1") || get_bool("S");
                let r = get_bool("R") || get_bool("R1");
                *q = s1 || (*q && !r);
            }
            FbInstance::Rs { q } => {
                let s = get_bool("S") || get_bool("S1");
                let r1 = get_bool("R1") || get_bool("R");
                *q = !r1 && (s || *q);
            }
        }
        Ok(())
    }

    /// Reads an output member (`Q`, `ET`, `CV`, `Q1`), in any letter case.
    fn output(&self, name: &str) -> Option<StValue> {
        let (q, other) = match *self {
            FbInstance::Ton { q, et, .. }
            | FbInstance::Tof { q, et, .. }
            | FbInstance::Tp { q, et, .. } => (q, ("ET", StValue::Time(et))),
            FbInstance::Ctu { cv, q, .. } | FbInstance::Ctd { cv, q, .. } => {
                (q, ("CV", StValue::Int(cv)))
            }
            FbInstance::RTrig { q, .. }
            | FbInstance::FTrig { q, .. }
            | FbInstance::Sr { q }
            | FbInstance::Rs { q } => (q, ("Q1", StValue::Bool(q))),
        };
        [("Q", StValue::Bool(q)), other]
            .into_iter()
            .find(|(member, _)| name.eq_ignore_ascii_case(member))
            .map(|(_, value)| value)
    }
}

enum Flow {
    Normal,
    Exit,
    Return,
}

/// The interpreter: program + variable/FB state, stepped one scan at a time.
/// The program is shared, never copied: every runtime of one compiled PLC
/// walks the same tree.
pub struct Interpreter {
    program: Arc<Program>,
    /// Variable values by name.
    pub vars: HashMap<String, StValue>,
    /// FB instances by name.
    pub fbs: HashMap<String, FbInstance>,
    loop_budget: u64,
}

impl Interpreter {
    /// Instantiates a program: declares variables (with initializers) and
    /// function blocks.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError`] if an initializer fails to evaluate.
    pub fn new(program: impl Into<Arc<Program>>) -> Result<Interpreter, RuntimeError> {
        let program = program.into();
        let mut interp = Interpreter {
            program: Arc::clone(&program),
            vars: HashMap::new(),
            fbs: HashMap::new(),
            loop_budget: 1_000_000,
        };
        for decl in &program.vars {
            let value = match &decl.initial {
                Some(expr) => interp.eval(expr, 0)?,
                None => StValue::default_of(decl.ty),
            };
            interp.vars.insert(decl.name.clone(), value);
        }
        for fb in &program.fbs {
            interp
                .fbs
                .insert(fb.name.clone(), FbInstance::new(fb.fb_type));
        }
        Ok(interp)
    }

    /// The program being executed.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Reads a variable.
    pub fn get(&self, name: &str) -> Option<&StValue> {
        self.vars.get(name)
    }

    /// Writes a variable where it is, creating it only if the program does
    /// not declare it (the I/O binding may feed such a name).
    pub fn set(&mut self, name: &str, value: StValue) {
        match self.vars.get_mut(name) {
            Some(slot) => *slot = value,
            None => {
                self.vars.insert(name.to_string(), value);
            }
        }
    }

    /// Executes one scan of the program body at simulation time `now_ns`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError`] on type errors, unknown identifiers,
    /// division by zero, or a runaway loop.
    pub fn scan(&mut self, now_ns: u64) -> Result<(), RuntimeError> {
        let program = Arc::clone(&self.program);
        let mut budget = self.loop_budget;
        self.exec_block(&program.body, now_ns, &mut budget)?;
        Ok(())
    }

    fn exec_block(
        &mut self,
        stmts: &[Stmt],
        now_ns: u64,
        budget: &mut u64,
    ) -> Result<Flow, RuntimeError> {
        for stmt in stmts {
            match self.exec_stmt(stmt, now_ns, budget)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(
        &mut self,
        stmt: &Stmt,
        now_ns: u64,
        budget: &mut u64,
    ) -> Result<Flow, RuntimeError> {
        if *budget == 0 {
            return Err(rt("scan exceeded execution budget (runaway loop?)"));
        }
        *budget -= 1;
        match stmt {
            Stmt::Assign { target, value, .. } => {
                let v = self.eval(value, now_ns)?;
                match target {
                    LValue::Var(name) => self.set(name, v),
                    LValue::Member(instance, _member) => {
                        // Assigning FB inputs outside a call has no effect in
                        // this implementation; flag it instead of silently
                        // dropping.
                        return Err(rt(format!(
                            "direct assignment to FB member {instance:?} is not supported; pass inputs in the call"
                        )));
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::If {
                branches,
                else_body,
                ..
            } => {
                for (cond, body) in branches {
                    let c = self
                        .eval(cond, now_ns)?
                        .as_bool()
                        .ok_or_else(|| rt("IF condition is not BOOL"))?;
                    if c {
                        return self.exec_block(body, now_ns, budget);
                    }
                }
                self.exec_block(else_body, now_ns, budget)
            }
            Stmt::Case {
                selector,
                arms,
                else_body,
                ..
            } => {
                let sel = self
                    .eval(selector, now_ns)?
                    .as_i64()
                    .ok_or_else(|| rt("CASE selector is not an integer"))?;
                for (labels, body) in arms {
                    let matched = labels.iter().any(|l| match l {
                        CaseLabel::Value(v) => sel == *v,
                        CaseLabel::Range(a, b) => sel >= *a && sel <= *b,
                    });
                    if matched {
                        return self.exec_block(body, now_ns, budget);
                    }
                }
                self.exec_block(else_body, now_ns, budget)
            }
            Stmt::For {
                var,
                from,
                to,
                by,
                body,
                ..
            } => {
                let start = self
                    .eval(from, now_ns)?
                    .as_i64()
                    .ok_or_else(|| rt("FOR start is not an integer"))?;
                let end = self
                    .eval(to, now_ns)?
                    .as_i64()
                    .ok_or_else(|| rt("FOR end is not an integer"))?;
                let step = match by {
                    Some(e) => self
                        .eval(e, now_ns)?
                        .as_i64()
                        .ok_or_else(|| rt("FOR step is not an integer"))?,
                    None => 1,
                };
                if step == 0 {
                    return Err(rt("FOR step must not be zero"));
                }
                let mut i = start;
                loop {
                    if (step > 0 && i > end) || (step < 0 && i < end) {
                        break;
                    }
                    self.set(var, StValue::Int(i));
                    match self.exec_block(body, now_ns, budget)? {
                        Flow::Exit => break,
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Normal => {}
                    }
                    i += step;
                }
                Ok(Flow::Normal)
            }
            Stmt::While { cond, body, .. } => {
                loop {
                    if *budget == 0 {
                        return Err(rt("scan exceeded execution budget (runaway loop?)"));
                    }
                    *budget -= 1;
                    let c = self
                        .eval(cond, now_ns)?
                        .as_bool()
                        .ok_or_else(|| rt("WHILE condition is not BOOL"))?;
                    if !c {
                        break;
                    }
                    match self.exec_block(body, now_ns, budget)? {
                        Flow::Exit => break,
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Normal => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Repeat { body, until, .. } => {
                loop {
                    if *budget == 0 {
                        return Err(rt("scan exceeded execution budget (runaway loop?)"));
                    }
                    *budget -= 1;
                    match self.exec_block(body, now_ns, budget)? {
                        Flow::Exit => break,
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Normal => {}
                    }
                    let done = self
                        .eval(until, now_ns)?
                        .as_bool()
                        .ok_or_else(|| rt("UNTIL condition is not BOOL"))?;
                    if done {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::FbCall {
                instance,
                inputs,
                outputs,
                ..
            } => {
                // Every input is evaluated; one the block does not take is
                // ignored, and the last of duplicates wins.
                let params = self.fbs.get(instance).map_or(&[][..], FbInstance::inputs);
                let mut args: [Option<StValue>; 4] = Default::default();
                for (name, expr) in inputs {
                    let value = self.eval(expr, now_ns)?;
                    if let Some(i) = params.iter().position(|p| p.eq_ignore_ascii_case(name)) {
                        args[i] = Some(value);
                    }
                }
                let fb = self
                    .fbs
                    .get_mut(instance)
                    .ok_or_else(|| rt(format!("unknown function block {instance:?}")))?;
                fb.call(now_ns, &args)?;
                for (member, target) in outputs {
                    let value = self
                        .fbs
                        .get(instance)
                        .and_then(|fb| fb.output(member))
                        .ok_or_else(|| {
                            rt(format!(
                                "function block {instance:?} has no output {member:?}"
                            ))
                        })?;
                    self.set(target, value);
                }
                Ok(Flow::Normal)
            }
            Stmt::Exit { .. } => Ok(Flow::Exit),
            Stmt::Return { .. } => Ok(Flow::Return),
        }
    }

    #[allow(clippy::only_used_in_recursion)] // now_ns is part of the eval contract
    fn eval(&self, expr: &Expr, now_ns: u64) -> Result<StValue, RuntimeError> {
        match expr {
            Expr::Lit(l, _) => Ok(match l {
                Literal::Bool(b) => StValue::Bool(*b),
                Literal::Int(i) => StValue::Int(*i),
                Literal::Real(r) => StValue::Real(*r),
                Literal::Time(t) => StValue::Time(*t),
                Literal::Str(s) => StValue::Str(s.clone()),
            }),
            Expr::Var(name, _) => self
                .vars
                .get(name)
                .cloned()
                .ok_or_else(|| rt(format!("unknown variable {name:?}"))),
            Expr::Member(instance, member, _) => self
                .fbs
                .get(instance)
                .and_then(|fb| fb.output(member))
                .ok_or_else(|| rt(format!("unknown member {instance}.{member}"))),
            Expr::Unary(op, inner, _) => {
                let v = self.eval(inner, now_ns)?;
                match op {
                    UnOp::Not => match v {
                        StValue::Bool(b) => Ok(StValue::Bool(!b)),
                        StValue::Int(i) => Ok(StValue::Int(!i)),
                        other => Err(rt(format!("NOT applied to {other}"))),
                    },
                    UnOp::Neg => match v {
                        StValue::Int(i) => Ok(StValue::Int(-i)),
                        StValue::Real(r) => Ok(StValue::Real(-r)),
                        other => Err(rt(format!("negation applied to {other}"))),
                    },
                }
            }
            Expr::Binary(op, a, b, _) => {
                let va = self.eval(a, now_ns)?;
                let vb = self.eval(b, now_ns)?;
                eval_binary(*op, va, vb)
            }
            Expr::Call { name, args, .. } => {
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(self.eval(a, now_ns)?);
                }
                eval_builtin(name, &values)
            }
        }
    }
}

fn eval_binary(op: BinOp, a: StValue, b: StValue) -> Result<StValue, RuntimeError> {
    use BinOp::*;
    match op {
        Or | Xor | And => {
            if let (Some(x), Some(y)) = (a.as_bool(), b.as_bool()) {
                let r = match op {
                    Or => x || y,
                    Xor => x ^ y,
                    And => x && y,
                    _ => unreachable!(),
                };
                return Ok(StValue::Bool(r));
            }
            // Bitwise on integers.
            if let (StValue::Int(x), StValue::Int(y)) = (&a, &b) {
                let r = match op {
                    Or => x | y,
                    Xor => x ^ y,
                    And => x & y,
                    _ => unreachable!(),
                };
                return Ok(StValue::Int(r));
            }
            Err(rt(format!("logic operator applied to {a} and {b}")))
        }
        Eq | Neq | Lt | Gt | Le | Ge => {
            let ordering = match (&a, &b) {
                (StValue::Str(x), StValue::Str(y)) => x.partial_cmp(y),
                _ => {
                    let (x, y) = (
                        a.as_f64().ok_or_else(|| rt("comparison on non-numeric"))?,
                        b.as_f64().ok_or_else(|| rt("comparison on non-numeric"))?,
                    );
                    x.partial_cmp(&y)
                }
            }
            .ok_or_else(|| rt("incomparable values"))?;
            use std::cmp::Ordering::*;
            let r = match op {
                Eq => ordering == Equal,
                Neq => ordering != Equal,
                Lt => ordering == Less,
                Gt => ordering == Greater,
                Le => ordering != Greater,
                Ge => ordering != Less,
                _ => unreachable!(),
            };
            Ok(StValue::Bool(r))
        }
        Add | Sub | Mul | Div | Mod | Pow => {
            // TIME arithmetic keeps TIME type.
            if let (StValue::Time(x), StValue::Time(y)) = (&a, &b) {
                let r = match op {
                    Add => x.saturating_add(*y),
                    Sub => x.saturating_sub(*y),
                    _ => return Err(rt("unsupported TIME operation")),
                };
                return Ok(StValue::Time(r));
            }
            let int_math = matches!(a, StValue::Int(_)) && matches!(b, StValue::Int(_));
            if int_math {
                let (x, y) = (a.as_i64().expect("int"), b.as_i64().expect("int"));
                let r = match op {
                    Add => x.wrapping_add(y),
                    Sub => x.wrapping_sub(y),
                    Mul => x.wrapping_mul(y),
                    Div => {
                        if y == 0 {
                            return Err(rt("division by zero"));
                        }
                        x / y
                    }
                    Mod => {
                        if y == 0 {
                            return Err(rt("modulo by zero"));
                        }
                        x % y
                    }
                    Pow => (x as f64).powi(y as i32) as i64,
                    _ => unreachable!(),
                };
                return Ok(StValue::Int(r));
            }
            let (x, y) = (
                a.as_f64().ok_or_else(|| rt("arithmetic on non-numeric"))?,
                b.as_f64().ok_or_else(|| rt("arithmetic on non-numeric"))?,
            );
            let r = match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                Div => {
                    if y == 0.0 {
                        return Err(rt("division by zero"));
                    }
                    x / y
                }
                Mod => x % y,
                Pow => x.powf(y),
                _ => unreachable!(),
            };
            Ok(StValue::Real(r))
        }
    }
}

fn eval_builtin(name: &str, args: &[StValue]) -> Result<StValue, RuntimeError> {
    let num = |i: usize| -> Result<f64, RuntimeError> {
        args.get(i)
            .and_then(StValue::as_f64)
            .ok_or_else(|| rt(format!("{name}: argument {i} is not numeric")))
    };
    let Some(function) = Builtin::named(name) else {
        return Err(rt(format!("unknown function {name:?}")));
    };
    match function {
        Builtin::Abs => {
            let v = num(0)?;
            Ok(match args[0] {
                StValue::Int(i) => StValue::Int(i.abs()),
                _ => StValue::Real(v.abs()),
            })
        }
        Builtin::Sqrt => Ok(StValue::Real(num(0)?.sqrt())),
        Builtin::Expt => Ok(StValue::Real(num(0)?.powf(num(1)?))),
        Builtin::Min | Builtin::Max => {
            let mut best = num(0)?;
            for i in 1..args.len() {
                let x = num(i)?;
                best = if function == Builtin::Min {
                    best.min(x)
                } else {
                    best.max(x)
                };
            }
            Ok(StValue::Real(best))
        }
        Builtin::Limit => {
            // LIMIT(min, in, max)
            let (lo, x, hi) = (num(0)?, num(1)?, num(2)?);
            Ok(StValue::Real(x.clamp(lo, hi)))
        }
        Builtin::Sel => {
            // SEL(G, IN0, IN1)
            let g = args
                .first()
                .and_then(StValue::as_bool)
                .ok_or_else(|| rt("SEL: selector must be BOOL"))?;
            let v = if g { args.get(2) } else { args.get(1) };
            v.cloned().ok_or_else(|| rt("SEL: missing arguments"))
        }
        Builtin::ToInt => Ok(StValue::Int(
            args.first()
                .and_then(StValue::as_i64)
                .ok_or_else(|| rt(format!("{name}: not convertible")))?,
        )),
        Builtin::ToReal => Ok(StValue::Real(num(0)?)),
        Builtin::BoolToInt => Ok(StValue::Int(
            args.first()
                .and_then(StValue::as_bool)
                .map(i64::from)
                .ok_or_else(|| rt("BOOL_TO_INT: not BOOL"))?,
        )),
        Builtin::ToBool => Ok(StValue::Bool(
            args.first()
                .and_then(StValue::as_i64)
                .map(|v| v != 0)
                .ok_or_else(|| rt("TO_BOOL: not numeric"))?,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::st::parser::parse_program;

    fn run(src: &str, scans: &[(u64, &[(&str, StValue)])]) -> Interpreter {
        let program = parse_program(src).expect("parse");
        let mut interp = Interpreter::new(program).expect("init");
        for (now_ms, inputs) in scans {
            for (name, value) in *inputs {
                interp.set(name, value.clone());
            }
            interp.scan(now_ms * 1_000_000).expect("scan");
        }
        interp
    }

    #[test]
    fn arithmetic_and_if() {
        let interp = run(
            "PROGRAM p VAR x : INT := 2; y : REAL; END_VAR \
             x := x * 10 + 1; \
             IF x > 20 THEN y := x / 2.0; ELSE y := 0.0; END_IF; \
             END_PROGRAM",
            &[(0, &[])],
        );
        assert_eq!(interp.get("x"), Some(&StValue::Int(21)));
        assert_eq!(interp.get("y"), Some(&StValue::Real(10.5)));
    }

    #[test]
    fn for_loop_with_exit() {
        let interp = run(
            "PROGRAM p VAR s : INT; i : INT; END_VAR \
             FOR i := 1 TO 100 DO s := s + i; IF i = 10 THEN EXIT; END_IF; END_FOR; \
             END_PROGRAM",
            &[(0, &[])],
        );
        assert_eq!(interp.get("s"), Some(&StValue::Int(55)));
    }

    #[test]
    fn while_and_repeat() {
        let interp = run(
            "PROGRAM p VAR a : INT := 10; b : INT; END_VAR \
             WHILE a > 0 DO a := a - 3; END_WHILE; \
             REPEAT b := b + 2; UNTIL b >= 5 END_REPEAT; \
             END_PROGRAM",
            &[(0, &[])],
        );
        assert_eq!(interp.get("a"), Some(&StValue::Int(-2)));
        assert_eq!(interp.get("b"), Some(&StValue::Int(6)));
    }

    #[test]
    fn case_statement() {
        let src = "PROGRAM p VAR sel : INT; out : INT; END_VAR \
                   CASE sel OF 1: out := 10; 2,3: out := 20; 4..6: out := 30; \
                   ELSE out := -1; END_CASE; END_PROGRAM";
        for (sel, expected) in [(1, 10), (2, 20), (3, 20), (5, 30), (9, -1)] {
            let interp = run(src, &[(0, &[("sel", StValue::Int(sel))])]);
            assert_eq!(
                interp.get("out"),
                Some(&StValue::Int(expected)),
                "sel={sel}"
            );
        }
    }

    #[test]
    fn ton_timer_elapses_in_simulated_time() {
        let src = "PROGRAM p VAR run : BOOL; done : BOOL; t1 : TON; END_VAR \
                   t1(IN := run, PT := T#500ms); done := t1.Q; END_PROGRAM";
        let program = parse_program(src).unwrap();
        let mut interp = Interpreter::new(program).unwrap();
        interp.set("run", StValue::Bool(true));
        interp.scan(0).unwrap();
        assert_eq!(interp.get("done"), Some(&StValue::Bool(false)));
        interp.scan(400_000_000).unwrap();
        assert_eq!(interp.get("done"), Some(&StValue::Bool(false)));
        interp.scan(600_000_000).unwrap();
        assert_eq!(interp.get("done"), Some(&StValue::Bool(true)));
        // Input drops: timer resets.
        interp.set("run", StValue::Bool(false));
        interp.scan(700_000_000).unwrap();
        assert_eq!(interp.get("done"), Some(&StValue::Bool(false)));
    }

    #[test]
    fn fb_inputs_and_members_match_in_any_case_and_the_last_duplicate_wins() {
        // `bogus` is no TON input: it is evaluated and ignored.
        let src = "PROGRAM p VAR done : BOOL; et : TIME; t1 : TON; END_VAR \
                   t1(in := FALSE, pt := T#100ms, bogus := 1, In := TRUE); \
                   done := t1.q; et := t1.Et; END_PROGRAM";
        let interp = run(src, &[(0, &[]), (150, &[])]);
        assert_eq!(interp.get("done"), Some(&StValue::Bool(true)));
        assert_eq!(interp.get("et"), Some(&StValue::Time(100_000_000)));
        // An input that fails to evaluate faults the scan, ignored or not.
        let src = "PROGRAM p VAR t1 : TON; END_VAR t1(bogus := nope); END_PROGRAM";
        let mut interp = Interpreter::new(parse_program(src).unwrap()).unwrap();
        assert!(interp.scan(0).is_err());
    }

    #[test]
    fn ctu_counts_rising_edges() {
        let src = "PROGRAM p VAR pulse : BOOL; full : BOOL; n : INT; c : CTU; END_VAR \
                   c(CU := pulse, PV := 3, Q => full, CV => n); END_PROGRAM";
        let program = parse_program(src).unwrap();
        let mut interp = Interpreter::new(program).unwrap();
        let mut t = 0u64;
        for _ in 0..3 {
            interp.set("pulse", StValue::Bool(true));
            interp.scan(t).unwrap();
            t += 1_000_000;
            interp.set("pulse", StValue::Bool(false));
            interp.scan(t).unwrap();
            t += 1_000_000;
        }
        assert_eq!(interp.get("n"), Some(&StValue::Int(3)));
        assert_eq!(interp.get("full"), Some(&StValue::Bool(true)));
    }

    #[test]
    fn r_trig_fires_once() {
        let src = "PROGRAM p VAR x : BOOL; hits : INT; e : R_TRIG; END_VAR \
                   e(CLK := x); IF e.Q THEN hits := hits + 1; END_IF; END_PROGRAM";
        let program = parse_program(src).unwrap();
        let mut interp = Interpreter::new(program).unwrap();
        for (t, x) in [(0, false), (1, true), (2, true), (3, false), (4, true)] {
            interp.set("x", StValue::Bool(x));
            interp.scan(t * 1_000_000).unwrap();
        }
        assert_eq!(interp.get("hits"), Some(&StValue::Int(2)));
    }

    #[test]
    fn sr_and_rs_bistables() {
        let src = "PROGRAM p VAR s : BOOL; r : BOOL; q1 : BOOL; q2 : BOOL; \
                   b1 : SR; b2 : RS; END_VAR \
                   b1(S1 := s, R := r, Q1 => q1); b2(S := s, R1 := r, Q1 => q2); END_PROGRAM";
        let program = parse_program(src).unwrap();
        let mut interp = Interpreter::new(program).unwrap();
        // Set both.
        interp.set("s", StValue::Bool(true));
        interp.set("r", StValue::Bool(false));
        interp.scan(0).unwrap();
        assert_eq!(interp.get("q1"), Some(&StValue::Bool(true)));
        assert_eq!(interp.get("q2"), Some(&StValue::Bool(true)));
        // Conflict: SR holds set, RS resets.
        interp.set("r", StValue::Bool(true));
        interp.scan(1_000_000).unwrap();
        assert_eq!(interp.get("q1"), Some(&StValue::Bool(true)));
        assert_eq!(interp.get("q2"), Some(&StValue::Bool(false)));
    }

    #[test]
    fn builtins() {
        let interp = run(
            "PROGRAM p VAR a : REAL; b : REAL; c : REAL; d : INT; END_VAR \
             a := MAX(1.0, 2.5); b := LIMIT(0.0, 7.7, 5.0); c := ABS(-3.25); d := TO_INT(9.9); \
             END_PROGRAM",
            &[(0, &[])],
        );
        assert_eq!(interp.get("a"), Some(&StValue::Real(2.5)));
        assert_eq!(interp.get("b"), Some(&StValue::Real(5.0)));
        assert_eq!(interp.get("c"), Some(&StValue::Real(3.25)));
        assert_eq!(interp.get("d"), Some(&StValue::Int(9)));
    }

    #[test]
    fn runtime_errors() {
        let program =
            parse_program("PROGRAM p VAR x : INT; END_VAR x := 1 / 0; END_PROGRAM").unwrap();
        let mut interp = Interpreter::new(program).unwrap();
        assert!(interp.scan(0).is_err());

        let program =
            parse_program("PROGRAM p VAR x : INT; END_VAR x := nope + 1; END_PROGRAM").unwrap();
        let mut interp = Interpreter::new(program).unwrap();
        assert!(interp.scan(0).is_err());

        // Runaway loop hits the budget instead of hanging.
        let program = parse_program(
            "PROGRAM p VAR x : INT; END_VAR WHILE TRUE DO x := x + 1; END_WHILE; END_PROGRAM",
        )
        .unwrap();
        let mut interp = Interpreter::new(program).unwrap();
        let err = interp.scan(0).unwrap_err();
        assert!(err.message.contains("budget"));
    }
}
