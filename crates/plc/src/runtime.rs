//! The PLC scan-cycle runtime: located variables bound to the Modbus data
//! tables, executed over the ST interpreter.

use crate::st::ast::Program;
use crate::st::interp::{Interpreter, RuntimeError, StValue};
use sgcr_modbus::SharedRegisters;
use std::fmt;
use std::sync::Arc;

/// A parsed direct address (`%QX0.0`, `%IW3`, …) mapped onto the Modbus
/// tables using the OpenPLC convention:
///
/// * `%QX a.b` → coil `a*8+b` (read/write)
/// * `%IX a.b` → discrete input `a*8+b` (read-only)
/// * `%QW n`   → holding register `n` (read/write)
/// * `%IW n`   → input register `n` (read-only)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoPoint {
    /// Coil (bit output).
    Coil(u16),
    /// Discrete input (bit input).
    Discrete(u16),
    /// Holding register (word output).
    Holding(u16),
    /// Input register (word input).
    Input(u16),
}

impl IoPoint {
    /// Parses a direct address without the leading `%`.
    pub fn parse(address: &str) -> Option<IoPoint> {
        let upper = address.trim_start_matches('%').to_uppercase();
        let (kind, rest) = upper.split_at(2.min(upper.len()));
        match kind {
            "QX" | "IX" => {
                let (byte, bit) = rest.split_once('.')?;
                let index = byte.parse::<u16>().ok()? * 8 + bit.parse::<u16>().ok()?;
                Some(if kind == "QX" {
                    IoPoint::Coil(index)
                } else {
                    IoPoint::Discrete(index)
                })
            }
            "QW" | "MW" => Some(IoPoint::Holding(rest.parse().ok()?)),
            "IW" => Some(IoPoint::Input(rest.parse().ok()?)),
            _ => None,
        }
    }

    /// Whether the PLC writes this point back after the scan.
    pub fn is_output(self) -> bool {
        matches!(self, IoPoint::Coil(_) | IoPoint::Holding(_))
    }
}

impl fmt::Display for IoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoPoint::Coil(i) => write!(f, "%QX{}.{}", i / 8, i % 8),
            IoPoint::Discrete(i) => write!(f, "%IX{}.{}", i / 8, i % 8),
            IoPoint::Holding(i) => write!(f, "%QW{i}"),
            IoPoint::Input(i) => write!(f, "%IW{i}"),
        }
    }
}

/// The PLC runtime: interpreter + I/O image synchronized with the Modbus
/// tables on every scan.
pub struct PlcRuntime {
    interp: Interpreter,
    /// Each located variable, by its index in the program's declarations.
    bindings: Vec<(usize, IoPoint)>,
    registers: SharedRegisters,
    fault: Option<RuntimeError>,
    scans: u64,
}

impl PlcRuntime {
    /// Builds a runtime from a parsed program and the shared Modbus tables.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError`] if a variable initializer fails or a located
    /// variable has an unparsable address.
    pub fn new(
        program: impl Into<Arc<Program>>,
        registers: SharedRegisters,
    ) -> Result<PlcRuntime, RuntimeError> {
        let program = program.into();
        let mut bindings = Vec::new();
        for (i, decl) in program.vars.iter().enumerate() {
            if let Some(address) = &decl.location {
                let point = IoPoint::parse(address).ok_or_else(|| RuntimeError {
                    message: format!(
                        "variable {:?} has unsupported direct address %{address}",
                        decl.name
                    ),
                })?;
                bindings.push((i, point));
            }
        }
        let interp = Interpreter::new(program)?;
        Ok(PlcRuntime {
            interp,
            bindings,
            registers,
            fault: None,
            scans: 0,
        })
    }

    /// Number of completed scans.
    pub fn scan_count(&self) -> u64 {
        self.scans
    }

    /// The latched fault, if the program errored.
    pub fn fault(&self) -> Option<&RuntimeError> {
        self.fault.as_ref()
    }

    /// Clears a latched fault.
    pub fn clear_fault(&mut self) {
        self.fault = None;
    }

    /// Reads a program variable.
    pub fn get(&self, name: &str) -> Option<&StValue> {
        self.interp.get(name)
    }

    /// Writes a program variable (used by the MMS input binding).
    pub fn set(&mut self, name: &str, value: StValue) {
        self.interp.set(name, value);
    }

    /// Executes one scan: read inputs → run program → write outputs.
    ///
    /// A faulted runtime skips execution until the fault is cleared (real
    /// PLCs stop in a safe state).
    pub fn scan(&mut self, now_ns: u64) {
        if self.fault.is_some() {
            return;
        }
        let program = Arc::clone(self.interp.program());
        // Input image.
        for &(i, point) in &self.bindings {
            let value = match point {
                IoPoint::Coil(a) => StValue::Bool(self.registers.coil(a)),
                IoPoint::Discrete(a) => StValue::Bool(self.registers.discrete(a)),
                IoPoint::Holding(a) => StValue::Int(i64::from(self.registers.holding(a))),
                IoPoint::Input(a) => StValue::Int(i64::from(self.registers.input(a))),
            };
            self.interp.set(&program.vars[i].name, value);
        }
        // Execute.
        if let Err(e) = self.interp.scan(now_ns) {
            self.fault = Some(e);
            return;
        }
        self.scans += 1;
        // Output image.
        for &(i, point) in &self.bindings {
            if !point.is_output() {
                continue;
            }
            let Some(value) = self.interp.get(&program.vars[i].name) else {
                continue;
            };
            match point {
                IoPoint::Coil(a) => {
                    if let Some(b) = value.as_bool() {
                        self.registers.set_coil(a, b);
                    }
                }
                IoPoint::Holding(a) => {
                    if let Some(v) = value.as_i64() {
                        self.registers.set_holding(a, v as u16);
                    }
                }
                _ => unreachable!("is_output filtered"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::st::parser::parse_program;

    #[test]
    fn io_point_parsing() {
        assert_eq!(IoPoint::parse("QX0.0"), Some(IoPoint::Coil(0)));
        assert_eq!(IoPoint::parse("QX1.3"), Some(IoPoint::Coil(11)));
        assert_eq!(IoPoint::parse("%IX2.7"), Some(IoPoint::Discrete(23)));
        assert_eq!(IoPoint::parse("QW5"), Some(IoPoint::Holding(5)));
        assert_eq!(IoPoint::parse("IW0"), Some(IoPoint::Input(0)));
        assert_eq!(IoPoint::parse("ZZ1"), None);
        assert_eq!(IoPoint::parse("QX1"), None);
    }

    #[test]
    fn io_point_display_roundtrip() {
        for p in [
            IoPoint::Coil(11),
            IoPoint::Discrete(23),
            IoPoint::Holding(5),
            IoPoint::Input(0),
        ] {
            let text = p.to_string();
            assert_eq!(IoPoint::parse(&text), Some(p), "{text}");
        }
    }

    #[test]
    fn scan_cycle_reads_inputs_writes_outputs() {
        let program = parse_program(
            "PROGRAM p VAR \
               level AT %IW0 : INT; \
               alarm AT %QX0.0 : BOOL; \
               scaled AT %QW1 : INT; \
             END_VAR \
             alarm := level > 100; \
             scaled := level * 2; \
             END_PROGRAM",
        )
        .unwrap();
        let registers = SharedRegisters::with_size(32);
        let mut runtime = PlcRuntime::new(program, registers.clone()).unwrap();

        registers.set_input(0, 50);
        runtime.scan(0);
        assert!(!registers.coil(0));
        assert_eq!(registers.holding(1), 100);

        registers.set_input(0, 150);
        runtime.scan(1_000_000);
        assert!(registers.coil(0));
        assert_eq!(registers.holding(1), 300);
        assert_eq!(runtime.scan_count(), 2);
    }

    #[test]
    fn master_written_coils_visible_to_program() {
        let program = parse_program(
            "PROGRAM p VAR \
               cmd AT %QX0.0 : BOOL; \
               echo AT %QX0.1 : BOOL; \
             END_VAR \
             echo := cmd; \
             END_PROGRAM",
        )
        .unwrap();
        let registers = SharedRegisters::with_size(32);
        let mut runtime = PlcRuntime::new(program, registers.clone()).unwrap();
        registers.set_coil(0, true); // SCADA writes the command coil
        runtime.scan(0);
        assert!(registers.coil(1), "program saw the master-written coil");
    }

    #[test]
    fn fault_latches_and_stops_scanning() {
        let program = parse_program(
            "PROGRAM p VAR x AT %QW0 : INT; d : INT; END_VAR x := 1 / d; END_PROGRAM",
        )
        .unwrap();
        let registers = SharedRegisters::with_size(8);
        let mut runtime = PlcRuntime::new(program, registers).unwrap();
        runtime.scan(0);
        assert!(runtime.fault().is_some());
        let scans = runtime.scan_count();
        runtime.scan(1);
        assert_eq!(runtime.scan_count(), scans, "faulted runtime must not scan");
        runtime.clear_fault();
        runtime.set("d", StValue::Int(2));
        runtime.scan(2);
        assert!(runtime.fault().is_none());
    }

    #[test]
    fn bad_address_rejected_at_construction() {
        let program = parse_program("PROGRAM p VAR x AT %ZZ0 : INT; END_VAR x := 1; END_PROGRAM");
        // The lexer accepts %ZZ0 (alphanumeric); construction must reject it.
        let program = program.unwrap();
        let registers = SharedRegisters::with_size(8);
        assert!(PlcRuntime::new(program, registers).is_err());
    }
}
