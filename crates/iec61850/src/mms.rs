//! An MMS (ISO 9506) subset over TPKT/TCP — the services the smart grid
//! cyber range exercises: initiate, getNameList, read, write (including
//! control `Oper` writes), getVariableAccessAttributes, identify, and
//! unsolicited information reports.
//!
//! The PDU structure and `Data` encodings follow MMS BER conventions
//! (confirmed-request/-response context tags, invoke ids, domain-specific
//! variable names); the session/presentation layers of the full OSI stack
//! are collapsed into TPKT framing, which is sufficient for protocol-level
//! experiments and keeps captures legible. Service numbers mirror MMS
//! (`getNameList`=1, `identify`=2, `read`=4, `write`=5,
//! `getVariableAccessAttributes`=6).

use crate::ber::{self, BerError, Element, Reader, Tag};
use crate::model::{DataModel, DataValue, LeafId, ObjectRef};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The well-known MMS/ISO-over-TCP port.
pub const MMS_PORT: u16 = 102;

/// MMS `DataAccessError` codes (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum DataAccessError {
    /// 3: access denied by policy (e.g. blocked control).
    ObjectAccessDenied = 3,
    /// 7: type mismatch on write.
    TypeInconsistent = 7,
    /// 10: the named object does not exist.
    ObjectNonExistent = 10,
}

impl DataAccessError {
    fn from_u8(b: u8) -> DataAccessError {
        match b {
            3 => DataAccessError::ObjectAccessDenied,
            7 => DataAccessError::TypeInconsistent,
            _ => DataAccessError::ObjectNonExistent,
        }
    }
}

/// A confirmed service request.
#[derive(Debug, Clone, PartialEq)]
pub enum MmsRequest {
    /// List object names: domains (`object_class` 9) or named variables
    /// within a domain (`object_class` 0).
    GetNameList {
        /// 0 = named variables, 9 = domains.
        object_class: u8,
        /// Domain scope for variable listing.
        domain: Option<String>,
    },
    /// Identify the server (vendor/model/revision).
    Identify,
    /// Read named variables (full `LD/LN$FC$…` item ids).
    Read {
        /// Items to read.
        items: Vec<String>,
    },
    /// Write named variables.
    Write {
        /// Items to write (parallel to `values`).
        items: Vec<String>,
        /// Values to write.
        values: Vec<DataValue>,
    },
    /// Ask whether a variable exists (attribute discovery).
    GetVariableAccessAttributes {
        /// Item to query.
        item: String,
    },
}

/// A confirmed service response.
#[derive(Debug, Clone, PartialEq)]
pub enum MmsResponse {
    /// Name list.
    GetNameList {
        /// Returned identifiers.
        identifiers: Vec<String>,
        /// Whether more entries exist (always `false` here).
        more_follows: bool,
    },
    /// Server identity.
    Identify {
        /// Vendor string.
        vendor: String,
        /// Model string.
        model: String,
        /// Revision string.
        revision: String,
    },
    /// Per-item read results.
    Read {
        /// Value or access error per requested item.
        results: Vec<Result<DataValue, DataAccessError>>,
    },
    /// Per-item write results.
    Write {
        /// Success or access error per written item.
        results: Vec<Result<(), DataAccessError>>,
    },
    /// Variable existence answer.
    GetVariableAccessAttributes {
        /// Whether the variable exists.
        exists: bool,
    },
}

/// A top-level MMS PDU.
#[derive(Debug, Clone, PartialEq)]
pub enum MmsPdu {
    /// Association request.
    InitiateRequest,
    /// Association response.
    InitiateResponse,
    /// Service request.
    ConfirmedRequest {
        /// Matches the response to this request.
        invoke_id: u32,
        /// The service.
        request: MmsRequest,
    },
    /// Service response.
    ConfirmedResponse {
        /// Copied from the request.
        invoke_id: u32,
        /// The result.
        response: MmsResponse,
    },
    /// Service error.
    ConfirmedError {
        /// Copied from the request.
        invoke_id: u32,
        /// Error class/code.
        error: u32,
    },
    /// Unsolicited report of `(item, value)` pairs.
    InformationReport {
        /// Report name (RCB reference).
        report_name: String,
        /// Reported entries.
        entries: Vec<(String, DataValue)>,
    },
}

const TAG_CONFIRMED_REQ: Tag = Tag::context_constructed(0);
const TAG_CONFIRMED_RESP: Tag = Tag::context_constructed(1);
const TAG_CONFIRMED_ERR: Tag = Tag::context_constructed(2);
const TAG_UNCONFIRMED: Tag = Tag::context_constructed(3);
const TAG_INITIATE_REQ: Tag = Tag::context_constructed(8);
const TAG_INITIATE_RESP: Tag = Tag::context_constructed(9);

const SVC_GET_NAME_LIST: u8 = 1;
const SVC_IDENTIFY: u8 = 2;
const SVC_READ: u8 = 4;
const SVC_WRITE: u8 = 5;
const SVC_GET_VAR_ATTRS: u8 = 6;

fn write_str(out: &mut Vec<u8>, tag: Tag, s: &str) {
    ber::write_tlv(out, tag, s.as_bytes());
}

/// Appends a confirmed PDU: `tag` around the invoke id and what `body`
/// writes.
fn write_confirmed(out: &mut Vec<u8>, tag: Tag, invoke_id: u32, body: impl FnOnce(&mut Vec<u8>)) {
    ber::nest(out, tag, |out| {
        ber::write_unsigned(out, Tag::universal(0x02), u64::from(invoke_id));
        body(out);
    });
}

impl MmsPdu {
    /// BER-encodes the PDU (no TPKT framing).
    pub fn encode(&self) -> Vec<u8> {
        ber::encode_exact(|out| self.write(out))
    }

    /// Appends the PDU's BER encoding to `out`, as into a
    /// [`tpkt_frame`].
    pub fn write(&self, out: &mut Vec<u8>) {
        match self {
            MmsPdu::InitiateRequest => ber::nest(out, TAG_INITIATE_REQ, |_| {}),
            MmsPdu::InitiateResponse => ber::nest(out, TAG_INITIATE_RESP, |_| {}),
            MmsPdu::ConfirmedRequest { invoke_id, request } => {
                encode_request(out, *invoke_id, request)
            }
            MmsPdu::ConfirmedResponse {
                invoke_id,
                response,
            } => encode_response(out, *invoke_id, response),
            MmsPdu::ConfirmedError { invoke_id, error } => {
                write_confirmed(out, TAG_CONFIRMED_ERR, *invoke_id, |out| {
                    ber::write_unsigned(out, Tag::context(0), u64::from(*error));
                });
            }
            MmsPdu::InformationReport {
                report_name,
                entries,
            } => ber::nest(out, TAG_UNCONFIRMED, |out| {
                write_str(out, Tag::context(0), report_name);
                ber::nest(out, Tag::context_constructed(1), |out| {
                    for (item, value) in entries {
                        ber::nest(out, Tag::SEQUENCE, |out| {
                            write_str(out, Tag::context(0), item);
                            value.encode(out);
                        });
                    }
                });
            }),
        }
    }

    /// Decodes one PDU from raw (unframed) bytes.
    pub fn decode(data: &[u8]) -> Result<MmsPdu, BerError> {
        let mut reader = Reader::new(data);
        let el = reader.read_element()?;
        match el.tag {
            t if t == TAG_INITIATE_REQ => Ok(MmsPdu::InitiateRequest),
            t if t == TAG_INITIATE_RESP => Ok(MmsPdu::InitiateResponse),
            t if t == TAG_CONFIRMED_REQ => {
                let mut inner = Reader::new(el.contents);
                let invoke_id = inner.expect(Tag::universal(0x02))?.as_unsigned()? as u32;
                let service = inner.read_element()?;
                Ok(MmsPdu::ConfirmedRequest {
                    invoke_id,
                    request: decode_request(&service)?,
                })
            }
            t if t == TAG_CONFIRMED_RESP => {
                let mut inner = Reader::new(el.contents);
                let invoke_id = inner.expect(Tag::universal(0x02))?.as_unsigned()? as u32;
                let service = inner.read_element()?;
                Ok(MmsPdu::ConfirmedResponse {
                    invoke_id,
                    response: decode_response(&service)?,
                })
            }
            t if t == TAG_CONFIRMED_ERR => {
                let mut inner = Reader::new(el.contents);
                let invoke_id = inner.expect(Tag::universal(0x02))?.as_unsigned()? as u32;
                let error = inner.expect(Tag::context(0))?.as_unsigned()? as u32;
                Ok(MmsPdu::ConfirmedError { invoke_id, error })
            }
            t if t == TAG_UNCONFIRMED => {
                let mut inner = Reader::new(el.contents);
                let report_name = inner.expect(Tag::context(0))?.as_str()?.to_string();
                let list = inner.expect(Tag::context_constructed(1))?;
                let mut entries = Vec::new();
                for entry in list.children() {
                    let mut er = entry?.children();
                    let item = er.expect(Tag::context(0))?.as_str()?.to_string();
                    let value = DataValue::decode(&er.read_element()?)?;
                    entries.push((item, value));
                }
                Ok(MmsPdu::InformationReport {
                    report_name,
                    entries,
                })
            }
            other => Err(BerError::UnexpectedTag {
                expected: TAG_CONFIRMED_REQ.0,
                found: other.0,
            }),
        }
    }
}

impl MmsRequest {
    /// The MMS service number: the tag number of the request and of its
    /// response.
    fn service(&self) -> u8 {
        match self {
            MmsRequest::GetNameList { .. } => SVC_GET_NAME_LIST,
            MmsRequest::Identify => SVC_IDENTIFY,
            MmsRequest::Read { .. } => SVC_READ,
            MmsRequest::Write { .. } => SVC_WRITE,
            MmsRequest::GetVariableAccessAttributes { .. } => SVC_GET_VAR_ATTRS,
        }
    }
}

/// Appends a confirmed request PDU.
fn encode_request(out: &mut Vec<u8>, invoke_id: u32, request: &MmsRequest) {
    let tag = Tag::context_constructed(request.service());
    write_confirmed(out, TAG_CONFIRMED_REQ, invoke_id, |out| {
        ber::nest(out, tag, |out| match request {
            MmsRequest::GetNameList {
                object_class,
                domain,
            } => {
                ber::write_tlv(out, Tag::context(0), &[*object_class]);
                if let Some(d) = domain {
                    write_str(out, Tag::context(1), d);
                }
            }
            MmsRequest::Identify => {}
            MmsRequest::Read { items } => {
                for item in items {
                    write_str(out, Tag::context(0), item);
                }
            }
            MmsRequest::Write { items, values } => {
                for (item, value) in items.iter().zip(values) {
                    ber::nest(out, Tag::SEQUENCE, |out| {
                        write_str(out, Tag::context(0), item);
                        value.encode(out);
                    });
                }
            }
            MmsRequest::GetVariableAccessAttributes { item } => {
                write_str(out, Tag::context(0), item);
            }
        })
    });
}

fn decode_request(el: &Element<'_>) -> Result<MmsRequest, BerError> {
    match el.tag.number() {
        SVC_GET_NAME_LIST => {
            let mut r = Reader::new(el.contents);
            let class_el = r.expect(Tag::context(0))?;
            let object_class = *class_el
                .contents
                .first()
                .ok_or(BerError::BadContent("object class"))?;
            let domain = if !r.is_empty() {
                Some(r.expect(Tag::context(1))?.as_str()?.to_string())
            } else {
                None
            };
            Ok(MmsRequest::GetNameList {
                object_class,
                domain,
            })
        }
        SVC_IDENTIFY => Ok(MmsRequest::Identify),
        SVC_READ => {
            let mut r = Reader::new(el.contents);
            let mut items = Vec::new();
            while !r.is_empty() {
                items.push(r.expect(Tag::context(0))?.as_str()?.to_string());
            }
            Ok(MmsRequest::Read { items })
        }
        SVC_WRITE => {
            let mut items = Vec::new();
            let mut values = Vec::new();
            for pair in el.children() {
                let mut pr = pair?.children();
                items.push(pr.expect(Tag::context(0))?.as_str()?.to_string());
                values.push(DataValue::decode(&pr.read_element()?)?);
            }
            Ok(MmsRequest::Write { items, values })
        }
        SVC_GET_VAR_ATTRS => {
            let mut r = Reader::new(el.contents);
            let item = r.expect(Tag::context(0))?.as_str()?.to_string();
            Ok(MmsRequest::GetVariableAccessAttributes { item })
        }
        _ => Err(BerError::BadContent("unknown service")),
    }
}

impl MmsResponse {
    /// The MMS service number: the tag number of the response and of the
    /// request it answers.
    fn service(&self) -> u8 {
        match self {
            MmsResponse::GetNameList { .. } => SVC_GET_NAME_LIST,
            MmsResponse::Identify { .. } => SVC_IDENTIFY,
            MmsResponse::Read { .. } => SVC_READ,
            MmsResponse::Write { .. } => SVC_WRITE,
            MmsResponse::GetVariableAccessAttributes { .. } => SVC_GET_VAR_ATTRS,
        }
    }
}

/// Appends a confirmed response PDU.
fn encode_response(out: &mut Vec<u8>, invoke_id: u32, response: &MmsResponse) {
    let tag = Tag::context_constructed(response.service());
    write_confirmed(out, TAG_CONFIRMED_RESP, invoke_id, |out| {
        ber::nest(out, tag, |out| match response {
            MmsResponse::GetNameList {
                identifiers,
                more_follows,
            } => {
                ber::nest(out, Tag::context_constructed(0), |out| {
                    for id in identifiers {
                        write_str(out, Tag::universal(0x1a), id);
                    }
                });
                ber::write_tlv(out, Tag::context(1), &[u8::from(*more_follows)]);
            }
            MmsResponse::Identify {
                vendor,
                model,
                revision,
            } => {
                write_str(out, Tag::context(0), vendor);
                write_str(out, Tag::context(1), model);
                write_str(out, Tag::context(2), revision);
            }
            MmsResponse::Read { results } => {
                for res in results {
                    match res {
                        Ok(value) => value.encode(out),
                        // data-access-error [0]
                        Err(code) => ber::write_tlv(out, Tag::context(0), &[*code as u8]),
                    }
                }
            }
            MmsResponse::Write { results } => {
                for res in results {
                    match res {
                        Ok(()) => ber::write_tlv(out, Tag::context(1), &[]),
                        Err(code) => ber::write_tlv(out, Tag::context(0), &[*code as u8]),
                    }
                }
            }
            MmsResponse::GetVariableAccessAttributes { exists } => {
                ber::write_tlv(out, Tag::context(0), &[u8::from(*exists)]);
            }
        })
    });
}

fn decode_response(el: &Element<'_>) -> Result<MmsResponse, BerError> {
    match el.tag.number() {
        SVC_GET_NAME_LIST => {
            let mut r = Reader::new(el.contents);
            let list = r.expect(Tag::context_constructed(0))?;
            let mut identifiers = Vec::new();
            for id in list.children() {
                identifiers.push(id?.as_str()?.to_string());
            }
            let more = r.expect(Tag::context(1))?;
            Ok(MmsResponse::GetNameList {
                identifiers,
                more_follows: more.contents.first().is_some_and(|&b| b != 0),
            })
        }
        SVC_IDENTIFY => {
            let mut r = Reader::new(el.contents);
            Ok(MmsResponse::Identify {
                vendor: r.expect(Tag::context(0))?.as_str()?.to_string(),
                model: r.expect(Tag::context(1))?.as_str()?.to_string(),
                revision: r.expect(Tag::context(2))?.as_str()?.to_string(),
            })
        }
        SVC_READ => {
            let mut results = Vec::new();
            for child in el.children() {
                let child = child?;
                if child.tag == Tag::context(0) && child.contents.len() == 1 {
                    results.push(Err(DataAccessError::from_u8(child.contents[0])));
                } else {
                    results.push(Ok(DataValue::decode(&child)?));
                }
            }
            Ok(MmsResponse::Read { results })
        }
        SVC_WRITE => {
            let mut results = Vec::new();
            for child in el.children() {
                let child = child?;
                if child.tag == Tag::context(1) {
                    results.push(Ok(()));
                } else if child.tag == Tag::context(0) && child.contents.len() == 1 {
                    results.push(Err(DataAccessError::from_u8(child.contents[0])));
                } else {
                    return Err(BerError::BadContent("write result"));
                }
            }
            Ok(MmsResponse::Write { results })
        }
        SVC_GET_VAR_ATTRS => {
            let mut r = Reader::new(el.contents);
            let exists = r.expect(Tag::context(0))?;
            Ok(MmsResponse::GetVariableAccessAttributes {
                exists: exists.contents.first().is_some_and(|&b| b != 0),
            })
        }
        _ => Err(BerError::BadContent("unknown service response")),
    }
}

// --------------------------------------------------------------------------
// TPKT framing (RFC 1006): 0x03 0x00 <len_hi> <len_lo> <payload>.
// --------------------------------------------------------------------------

/// The longest PDU one TPKT frame carries: the 16-bit length field counts
/// the frame's own 4-byte header.
pub const TPKT_MAX_PAYLOAD: usize = u16::MAX as usize - 4;

/// The [`MmsPdu::ConfirmedError`] code of a reply too long for one TPKT
/// frame: the MMS service error `pdu-size`.
pub const ERROR_PDU_SIZE: u32 = 3;

/// A TPKT frame for the TCP stream: the 4-byte header, then the PDU
/// `pdu` appends, written into one buffer allocated once at the frame's
/// length; `None` when the PDU is longer than [`TPKT_MAX_PAYLOAD`] bytes
/// and no length field can state it. `pdu` must not call
/// [`MmsPdu::encode`] or another encoder that returns a `Vec`.
pub fn tpkt_frame(pdu: impl FnOnce(&mut Vec<u8>)) -> Option<Vec<u8>> {
    let frame = ber::encode_exact(|out| {
        out.extend_from_slice(&[0x03, 0x00, 0, 0]);
        pdu(out);
        match u16::try_from(out.len()) {
            Ok(total) => out[2..4].copy_from_slice(&total.to_be_bytes()),
            // No frame: an empty buffer, which no frame is.
            Err(_) => out.clear(),
        }
    });
    (!frame.is_empty()).then_some(frame)
}

/// Reassembles TPKT frames from TCP stream bytes.
#[derive(Debug, Default)]
pub struct TpktDecoder {
    buf: Vec<u8>,
}

impl TpktDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds stream bytes and lends `payload` each TPKT payload they
    /// complete, in order, from the decoder's own buffer.
    ///
    /// Bytes that cannot start a frame — anything before the next `0x03`
    /// version byte, or a header whose length is below its own 4 bytes —
    /// are skipped, so the decoder resynchronizes on any input in time
    /// linear in its length.
    pub fn feed(&mut self, data: &[u8], mut payload: impl FnMut(&[u8])) {
        self.buf.extend_from_slice(data);
        let mut at = 0;
        loop {
            let Some(skip) = self.buf[at..].iter().position(|&b| b == 0x03) else {
                at = self.buf.len();
                break;
            };
            at += skip;
            let rest = &self.buf[at..];
            if rest.len() < 4 {
                break;
            }
            let len = usize::from(u16::from_be_bytes([rest[2], rest[3]]));
            if len < 4 {
                // Too short to hold its own header: not a frame start.
                at += 1;
                continue;
            }
            if rest.len() < len {
                break;
            }
            payload(&rest[4..len]);
            at += len;
        }
        self.buf.drain(..at);
    }
}

// --------------------------------------------------------------------------
// Server
// --------------------------------------------------------------------------

/// A shared, mutable handle to an IED's data model (the server's backing
/// store, updated concurrently by the IED runtime).
#[derive(Debug, Clone, Default)]
pub struct SharedModel {
    inner: Arc<Mutex<DataModel>>,
}

impl SharedModel {
    /// Wraps a model.
    pub fn new(model: DataModel) -> SharedModel {
        SharedModel {
            inner: Arc::new(Mutex::new(model)),
        }
    }

    /// Runs `f` with exclusive access to the model.
    pub fn with<R>(&self, f: impl FnOnce(&mut DataModel) -> R) -> R {
        f(&mut self.inner.lock())
    }

    /// Reads an item.
    pub fn read(&self, item_id: &str) -> Option<DataValue> {
        self.inner.lock().read(item_id)
    }

    /// Writes a leaf item.
    pub fn write(&self, item_id: &str, value: DataValue) -> bool {
        self.inner.lock().write(item_id, value)
    }

    /// Writes a leaf through its handle (see [`DataModel::set`]).
    pub fn set(&self, id: LeafId, value: DataValue) {
        self.inner.lock().set(id, value);
    }
}

/// Decision returned by a control handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlDecision {
    /// Execute the control.
    Accept,
    /// Reject (e.g. interlock active).
    Reject,
}

/// Callback invoked when a client writes to a control object
/// (`…$CO$…$Oper$ctlVal`).
pub type ControlHandler = Box<dyn FnMut(&ObjectRef, &DataValue) -> ControlDecision + Send>;

/// The MMS server engine: executes request PDUs against a [`SharedModel`].
pub struct MmsServer {
    model: SharedModel,
    control_handler: Option<ControlHandler>,
    /// Identity reported by `identify`.
    pub identity: (String, String, String),
}

impl MmsServer {
    /// Creates a server over a shared model.
    pub fn new(model: SharedModel) -> MmsServer {
        MmsServer {
            model,
            control_handler: None,
            identity: (
                "sgcr".to_string(),
                "virtual-ied".to_string(),
                "0.1".to_string(),
            ),
        }
    }

    /// Installs the control (`Oper`) handler.
    pub fn set_control_handler(&mut self, handler: ControlHandler) {
        self.control_handler = Some(handler);
    }

    /// The shared model backing this server.
    pub fn model(&self) -> &SharedModel {
        &self.model
    }

    /// Handles one request PDU, producing the reply.
    pub fn handle(&mut self, pdu: &MmsPdu) -> Option<MmsPdu> {
        match pdu {
            MmsPdu::InitiateRequest => Some(MmsPdu::InitiateResponse),
            MmsPdu::ConfirmedRequest { invoke_id, request } => Some(MmsPdu::ConfirmedResponse {
                invoke_id: *invoke_id,
                response: self.execute(request),
            }),
            _ => None,
        }
    }

    fn execute(&mut self, request: &MmsRequest) -> MmsResponse {
        match request {
            MmsRequest::GetNameList {
                object_class,
                domain,
            } => {
                let identifiers = self.model.with(|m| match (object_class, domain) {
                    (9, _) => m.device_names(),
                    (_, Some(d)) => m.node_names(d),
                    (_, None) => m.leaf_item_ids(),
                });
                MmsResponse::GetNameList {
                    identifiers,
                    more_follows: false,
                }
            }
            MmsRequest::Identify => MmsResponse::Identify {
                vendor: self.identity.0.clone(),
                model: self.identity.1.clone(),
                revision: self.identity.2.clone(),
            },
            MmsRequest::Read { items } => {
                let results = items
                    .iter()
                    .map(|item| {
                        self.model
                            .read(item)
                            .ok_or(DataAccessError::ObjectNonExistent)
                    })
                    .collect();
                MmsResponse::Read { results }
            }
            MmsRequest::Write { items, values } => {
                let results = items
                    .iter()
                    .zip(values)
                    .map(|(item, value)| self.execute_write(item, value))
                    .collect();
                MmsResponse::Write { results }
            }
            MmsRequest::GetVariableAccessAttributes { item } => {
                MmsResponse::GetVariableAccessAttributes {
                    exists: self.model.with(|m| m.contains(item)),
                }
            }
        }
    }

    fn execute_write(&mut self, item: &str, value: &DataValue) -> Result<(), DataAccessError> {
        let Ok(object_ref) = item.parse::<ObjectRef>() else {
            return Err(DataAccessError::ObjectNonExistent);
        };
        // Control writes go to `LN$CO$<obj>$Oper$ctlVal`.
        let is_control = object_ref.fc_str == "CO"
            && object_ref.path.iter().any(|p| p == "Oper")
            && object_ref.path.last().is_some_and(|p| p == "ctlVal");
        if is_control {
            if !self.model.with(|m| m.contains(item)) {
                return Err(DataAccessError::ObjectNonExistent);
            }
            let decision = match &mut self.control_handler {
                Some(handler) => handler(&object_ref, value),
                None => ControlDecision::Accept,
            };
            return match decision {
                ControlDecision::Accept => {
                    self.model.write(item, value.clone());
                    Ok(())
                }
                ControlDecision::Reject => Err(DataAccessError::ObjectAccessDenied),
            };
        }
        if !ObjectRef::client_writable(item) {
            return Err(DataAccessError::ObjectAccessDenied);
        }
        if self.model.write(item, value.clone()) {
            Ok(())
        } else {
            Err(DataAccessError::ObjectNonExistent)
        }
    }
}

// --------------------------------------------------------------------------
// Client
// --------------------------------------------------------------------------

/// Client-side bookkeeping: builds framed requests and pairs each reply
/// with the request it answers by invoke id and service.
#[derive(Default)]
pub struct MmsClient {
    decoder: TpktDecoder,
    next_invoke: u32,
    /// The service of each request awaiting its answer, by invoke id.
    pending: BTreeMap<u32, u8>,
}

impl MmsClient {
    /// Creates an idle client.
    pub fn new() -> MmsClient {
        MmsClient::default()
    }

    /// Builds a framed initiate request (send right after connecting).
    pub fn initiate(&mut self) -> Vec<u8> {
        // A few bytes: always fits a frame.
        tpkt_frame(|out| MmsPdu::InitiateRequest.write(out)).unwrap_or_default()
    }

    /// Builds a framed confirmed request; returns `(invoke_id, bytes)`, or
    /// `None` when the request is too long for one TPKT frame (nothing is
    /// then left pending).
    pub fn request(&mut self, request: &MmsRequest) -> Option<(u32, Vec<u8>)> {
        let invoke_id = self.next_invoke + 1;
        let wire = tpkt_frame(|out| encode_request(out, invoke_id, request))?;
        self.next_invoke = invoke_id;
        self.pending.insert(invoke_id, request.service());
        Some((invoke_id, wire))
    }

    /// Feeds received TCP bytes; returns each decoded report, initiate
    /// response, and confirmed response or error that answers a pending
    /// request. A response answers the request pending under its invoke id
    /// when it is of that request's service; an error always does. Either
    /// takes the request off the pending list; any other PDU is dropped.
    pub fn feed(&mut self, data: &[u8]) -> Vec<MmsPdu> {
        let mut out = Vec::new();
        self.decoder.feed(data, |payload| {
            let Ok(pdu) = MmsPdu::decode(payload) else {
                return;
            };
            let kept = match &pdu {
                MmsPdu::ConfirmedResponse {
                    invoke_id,
                    response,
                } => self.pending.remove(invoke_id) == Some(response.service()),
                MmsPdu::ConfirmedError { invoke_id, .. } => {
                    self.pending.remove(invoke_id).is_some()
                }
                MmsPdu::InformationReport { .. } | MmsPdu::InitiateResponse => true,
                MmsPdu::InitiateRequest | MmsPdu::ConfirmedRequest { .. } => false,
            };
            if kept {
                out.push(pdu);
            }
        });
        out
    }

    /// Requests still awaiting a response.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_model() -> SharedModel {
        let mut m = DataModel::new("GIED1");
        m.insert("GIED1LD0/MMXU1$MX$TotW$mag$f", DataValue::Float(42.0));
        m.insert("GIED1LD0/XCBR1$ST$Pos$stVal", DataValue::dbpos_on());
        m.insert("GIED1LD0/CSWI1$CO$Pos$Oper$ctlVal", DataValue::Bool(true));
        m.insert("GIED1LD0/PTOC1$SP$StrVal$setMag$f", DataValue::Float(3.0));
        SharedModel::new(m)
    }

    #[test]
    fn pdu_roundtrips() {
        let pdus = vec![
            MmsPdu::InitiateRequest,
            MmsPdu::InitiateResponse,
            MmsPdu::ConfirmedRequest {
                invoke_id: 7,
                request: MmsRequest::Read {
                    items: vec!["LD/LN$MX$a$b".into(), "LD/LN$ST$c".into()],
                },
            },
            MmsPdu::ConfirmedRequest {
                invoke_id: 8,
                request: MmsRequest::Write {
                    items: vec!["LD/LN$CO$Pos$Oper$ctlVal".into()],
                    values: vec![DataValue::Bool(false)],
                },
            },
            MmsPdu::ConfirmedRequest {
                invoke_id: 9,
                request: MmsRequest::GetNameList {
                    object_class: 0,
                    domain: Some("GIED1LD0".into()),
                },
            },
            MmsPdu::ConfirmedRequest {
                invoke_id: 10,
                request: MmsRequest::Identify,
            },
            MmsPdu::ConfirmedResponse {
                invoke_id: 7,
                response: MmsResponse::Read {
                    results: vec![
                        Ok(DataValue::Float(1.5)),
                        Err(DataAccessError::ObjectNonExistent),
                    ],
                },
            },
            MmsPdu::ConfirmedResponse {
                invoke_id: 8,
                response: MmsResponse::Write {
                    results: vec![Ok(()), Err(DataAccessError::ObjectAccessDenied)],
                },
            },
            MmsPdu::ConfirmedError {
                invoke_id: 3,
                error: 11,
            },
            MmsPdu::InformationReport {
                report_name: "rpt1".into(),
                entries: vec![("LD/LN$ST$x".into(), DataValue::Bool(true))],
            },
        ];
        for pdu in pdus {
            let wire = pdu.encode();
            assert_eq!(MmsPdu::decode(&wire).unwrap(), pdu, "pdu {pdu:?}");
        }
    }

    #[test]
    fn tpkt_reassembly() {
        let payload1 = MmsPdu::InitiateRequest.encode();
        let payload2 = MmsPdu::InitiateResponse.encode();
        let mut stream = tpkt_frame(|out| MmsPdu::InitiateRequest.write(out)).unwrap();
        stream.extend(tpkt_frame(|out| MmsPdu::InitiateResponse.write(out)).unwrap());
        let mut dec = TpktDecoder::new();
        // Byte-by-byte feeding must still produce both frames.
        let mut frames = Vec::new();
        for b in stream {
            dec.feed(&[b], |payload| frames.push(payload.to_vec()));
        }
        assert_eq!(frames, vec![payload1, payload2]);
    }

    #[test]
    fn server_read_write_namelist() {
        let mut server = MmsServer::new(sample_model());
        // Read.
        let resp = server.handle(&MmsPdu::ConfirmedRequest {
            invoke_id: 1,
            request: MmsRequest::Read {
                items: vec![
                    "GIED1LD0/MMXU1$MX$TotW$mag$f".into(),
                    "GIED1LD0/NOPE$ST$x".into(),
                ],
            },
        });
        match resp {
            Some(MmsPdu::ConfirmedResponse {
                response: MmsResponse::Read { results },
                ..
            }) => {
                assert_eq!(results[0], Ok(DataValue::Float(42.0)));
                assert_eq!(results[1], Err(DataAccessError::ObjectNonExistent));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Write to a set-point (SP): allowed.
        let resp = server.handle(&MmsPdu::ConfirmedRequest {
            invoke_id: 2,
            request: MmsRequest::Write {
                items: vec!["GIED1LD0/PTOC1$SP$StrVal$setMag$f".into()],
                values: vec![DataValue::Float(4.5)],
            },
        });
        match resp {
            Some(MmsPdu::ConfirmedResponse {
                response: MmsResponse::Write { results },
                ..
            }) => assert_eq!(results, vec![Ok(())]),
            other => panic!("unexpected {other:?}"),
        }
        // Write to a measurement (MX): denied.
        let resp = server.handle(&MmsPdu::ConfirmedRequest {
            invoke_id: 3,
            request: MmsRequest::Write {
                items: vec!["GIED1LD0/MMXU1$MX$TotW$mag$f".into()],
                values: vec![DataValue::Float(0.0)],
            },
        });
        match resp {
            Some(MmsPdu::ConfirmedResponse {
                response: MmsResponse::Write { results },
                ..
            }) => assert_eq!(results, vec![Err(DataAccessError::ObjectAccessDenied)]),
            other => panic!("unexpected {other:?}"),
        }
        // Name lists.
        let resp = server.handle(&MmsPdu::ConfirmedRequest {
            invoke_id: 4,
            request: MmsRequest::GetNameList {
                object_class: 9,
                domain: None,
            },
        });
        match resp {
            Some(MmsPdu::ConfirmedResponse {
                response: MmsResponse::GetNameList { identifiers, .. },
                ..
            }) => assert_eq!(identifiers, vec!["GIED1LD0".to_string()]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn control_handler_gates_oper_writes() {
        let mut server = MmsServer::new(sample_model());
        let log = Arc::new(Mutex::new(Vec::new()));
        let log2 = log.clone();
        server.set_control_handler(Box::new(move |object_ref, value| {
            log2.lock().push((object_ref.to_item_id(), value.clone()));
            if value.as_bool() == Some(false) {
                ControlDecision::Reject
            } else {
                ControlDecision::Accept
            }
        }));
        let write = |server: &mut MmsServer, v: bool| {
            let resp = server.handle(&MmsPdu::ConfirmedRequest {
                invoke_id: 1,
                request: MmsRequest::Write {
                    items: vec!["GIED1LD0/CSWI1$CO$Pos$Oper$ctlVal".into()],
                    values: vec![DataValue::Bool(v)],
                },
            });
            match resp {
                Some(MmsPdu::ConfirmedResponse {
                    response: MmsResponse::Write { results },
                    ..
                }) => results[0],
                other => panic!("unexpected {other:?}"),
            }
        };
        assert_eq!(write(&mut server, true), Ok(()));
        assert_eq!(
            write(&mut server, false),
            Err(DataAccessError::ObjectAccessDenied)
        );
        assert_eq!(log.lock().len(), 2);
    }

    #[test]
    fn client_tracks_pending() {
        let mut client = MmsClient::new();
        let too_long = MmsRequest::Read {
            items: vec!["x".repeat(TPKT_MAX_PAYLOAD)],
        };
        assert_eq!(client.request(&too_long), None);
        assert_eq!(client.pending_count(), 0, "nothing left pending");
        let (id, wire) = client.request(&MmsRequest::Identify).unwrap();
        assert_eq!(id, 1, "the refused request used no invoke id");
        assert_eq!(client.pending_count(), 1);
        // Simulate the server answering.
        let mut server = MmsServer::new(sample_model());
        let mut req = None;
        TpktDecoder::new().feed(&wire, |payload| req = MmsPdu::decode(payload).ok());
        let resp = server.handle(&req.unwrap()).unwrap();
        let pdus = client.feed(&tpkt_frame(|out| resp.write(out)).unwrap());
        assert_eq!(pdus.len(), 1);
        assert!(matches!(
            &pdus[0],
            MmsPdu::ConfirmedResponse { invoke_id, .. } if *invoke_id == id
        ));
        assert_eq!(client.pending_count(), 0);
    }

    #[test]
    fn a_confirmed_error_answers_its_request_and_clears_it() {
        let mut client = MmsClient::new();
        let read = MmsRequest::Read {
            items: vec!["GIED1LD0/MMXU1$MX$TotW$mag$f".into()],
        };
        let (id, _) = client.request(&read).unwrap();
        let error = MmsPdu::ConfirmedError {
            invoke_id: id,
            error: ERROR_PDU_SIZE,
        };
        let replies = client.feed(&tpkt_frame(|out| error.write(out)).unwrap());
        assert_eq!(replies, std::slice::from_ref(&error));
        assert_eq!(
            client.pending_count(),
            0,
            "an errored read leaves nothing pending"
        );
        // A second answer under the same invoke id answers nothing.
        let replies = client.feed(&tpkt_frame(|out| error.write(out)).unwrap());
        assert_eq!(replies, []);
    }

    #[test]
    fn a_response_of_another_service_answers_nothing() {
        let mut client = MmsClient::new();
        let (id, _) = client.request(&MmsRequest::Identify).unwrap();
        let read = MmsPdu::ConfirmedResponse {
            invoke_id: id,
            response: MmsResponse::Read {
                results: vec![Ok(DataValue::Float(1.0))],
            },
        };
        assert_eq!(client.feed(&tpkt_frame(|out| read.write(out)).unwrap()), []);
        assert_eq!(client.pending_count(), 0, "the invoke id was answered");
        // A report answers no request and always comes through.
        let report = MmsPdu::InformationReport {
            report_name: "rpt1".into(),
            entries: vec![],
        };
        let replies = client.feed(&tpkt_frame(|out| report.write(out)).unwrap());
        assert_eq!(replies, [report]);
    }

    #[test]
    fn malformed_bytes_do_not_panic() {
        for garbage in [&[0u8][..], &[0xa0, 0x05, 1, 2][..], &[0xff; 40][..]] {
            let _ = MmsPdu::decode(garbage);
        }
        let mut dec = TpktDecoder::new();
        dec.feed(&[0x99, 0x03, 0x00, 0x00], |_| {});
    }
}
