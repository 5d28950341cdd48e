//! IEC 61131-3 Structured Text: lexer, parser, AST, and interpreter.

pub mod ast;
pub mod check;
pub mod interp;
pub mod lexer;
pub mod parser;

/// A standard function a program may call. The checker types a call and
/// the interpreter evaluates it by matching on this enum, so its names and
/// argument counts are listed here only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Builtin {
    Abs,
    Sqrt,
    Expt,
    Min,
    Max,
    Limit,
    Sel,
    ToInt,
    ToReal,
    BoolToInt,
    ToBool,
}

impl Builtin {
    /// The function `name` calls (upper case, as the parser stores it).
    pub(crate) fn named(name: &str) -> Option<Builtin> {
        Some(match name {
            "ABS" => Builtin::Abs,
            "SQRT" => Builtin::Sqrt,
            "EXPT" => Builtin::Expt,
            "MIN" => Builtin::Min,
            "MAX" => Builtin::Max,
            "LIMIT" => Builtin::Limit,
            "SEL" => Builtin::Sel,
            "TO_INT" | "REAL_TO_INT" | "TRUNC" | "TO_DINT" => Builtin::ToInt,
            "TO_REAL" | "INT_TO_REAL" | "TO_LREAL" => Builtin::ToReal,
            "BOOL_TO_INT" => Builtin::BoolToInt,
            "INT_TO_BOOL" | "TO_BOOL" => Builtin::ToBool,
            _ => return None,
        })
    }

    /// The fewest and the most arguments: a missing argument faults, an
    /// extra one is ignored.
    pub(crate) fn arity(self) -> (usize, usize) {
        match self {
            Builtin::Expt => (2, 2),
            Builtin::Limit | Builtin::Sel => (3, 3),
            Builtin::Min | Builtin::Max => (1, usize::MAX),
            _ => (1, 1),
        }
    }
}
