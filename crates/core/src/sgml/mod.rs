//! The SG-ML supplementary XML schemas: IED Config, PLC Config, SCADA
//! Config (in `sgcr-scada`), and Power System Extra Config.

pub mod ied_config;
pub mod plc_config;
pub mod power_extra;

/// The source position of an element, or the unknown position for a
/// document built in memory.
fn pos_of(el: &sgcr_xml::ElementRef<'_>) -> sgcr_scl::SourcePos {
    el.position()
        .map(|p| sgcr_scl::SourcePos::new(p.line, p.column))
        .unwrap_or_default()
}
