#![warn(missing_docs)]

//! # sgcr-iec61850
//!
//! An IEC 61850 protocol stack for the smart grid cyber range — the Rust
//! substitute for the libiec61850 C library used by the SG-ML paper's
//! virtual IEDs.
//!
//! What is implemented, mirroring the paper's protocol inventory:
//!
//! * **MMS** (Manufacturing Message Specification) over TPKT/TCP — used
//!   between SCADA↔IED and PLC↔IED for interrogation and control
//!   ([`MmsServer`], [`MmsClient`], [`MmsServerApp`]);
//! * **GOOSE** — multicast L2 status exchange between IEDs with the standard
//!   stNum/sqNum retransmission curve ([`GoosePublisher`],
//!   [`GooseSubscriber`]);
//! * **SV** (Sampled Values) — fixed-rate measurement streaming
//!   ([`SvPublisher`], [`SvSubscriber`]);
//! * **R-GOOSE / R-SV** — the routable variants over UDP for
//!   inter-substation protection ([`SessionSender`], [`SessionReceiver`]);
//! * the underlying **BER** codec ([`ber`]) and the IEC 61850 **data model**
//!   (logical devices/nodes, FC-partitioned data attributes,
//!   `LD/LN$FC$DO$DA` addressing — [`DataModel`], [`ObjectRef`]).
//!
//! # Examples
//!
//! ```
//! use sgcr_iec61850::{DataModel, DataValue, SharedModel, MmsServer, MmsPdu, MmsRequest};
//!
//! let mut model = DataModel::new("IED1");
//! model.insert("IED1LD0/XCBR1$ST$Pos$stVal", DataValue::dbpos_on());
//! let mut server = MmsServer::new(SharedModel::new(model));
//!
//! let req = MmsPdu::ConfirmedRequest {
//!     invoke_id: 1,
//!     request: MmsRequest::Read { items: vec!["IED1LD0/XCBR1$ST$Pos$stVal".into()] },
//! };
//! let reply = server.handle(&req).expect("read gets a response");
//! assert!(matches!(reply, MmsPdu::ConfirmedResponse { .. }));
//! ```

pub mod ber;

mod apps;
mod goose;
mod mms;
mod model;
mod rgoose;
mod sv;

pub use apps::MmsServerApp;
pub use goose::{GooseConfig, GooseObservation, GoosePdu, GoosePublisher, GooseSubscriber};
pub use mms::{
    tpkt_frame, ControlDecision, ControlHandler, DataAccessError, MmsClient, MmsPdu, MmsRequest,
    MmsResponse, MmsServer, SharedModel, TpktDecoder, ERROR_PDU_SIZE, MMS_PORT, TPKT_MAX_PAYLOAD,
};
pub use model::{DataModel, DataValue, Fc, LeafId, ObjectRef, MAX_DATA_DEPTH};
pub use rgoose::{SessionPacket, SessionPayloadType, SessionReceiver, SessionSender, RGOOSE_PORT};
pub use sv::{SvAsdu, SvPdu, SvPublisher, SvSubscriber};
