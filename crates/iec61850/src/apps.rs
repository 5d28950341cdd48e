//! A ready-made `sgcr-net` application: the MMS server app the virtual IED
//! is built on.

use crate::mms::{tpkt_frame, MmsPdu, MmsServer, TpktDecoder, ERROR_PDU_SIZE, MMS_PORT};
use sgcr_net::{ConnId, HostCtx, Ipv4Addr, SocketApp};
use std::collections::HashMap;

/// An MMS server listening on TCP 102, answering from an [`MmsServer`].
///
/// A confirmed request whose reply is too long for one TPKT frame is
/// answered with a [`MmsPdu::ConfirmedError`] of code [`ERROR_PDU_SIZE`]
/// under the request's invoke id, so every request gets exactly one answer
/// and the client stays in step.
pub struct MmsServerApp {
    server: MmsServer,
    port: u16,
    decoders: HashMap<ConnId, TpktDecoder>,
}

impl MmsServerApp {
    /// Wraps a server engine, listening on the standard port.
    pub fn new(server: MmsServer) -> MmsServerApp {
        MmsServerApp {
            server,
            port: MMS_PORT,
            decoders: HashMap::new(),
        }
    }

    /// The underlying server engine.
    pub fn server_mut(&mut self) -> &mut MmsServer {
        &mut self.server
    }

    /// Connections currently associated with the server (report targets).
    pub fn connections(&self) -> Vec<ConnId> {
        let mut conns: Vec<ConnId> = self.decoders.keys().copied().collect();
        conns.sort();
        conns
    }
}

impl SocketApp for MmsServerApp {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.tcp_listen(self.port);
    }

    fn on_tcp_accepted(&mut self, _ctx: &mut HostCtx<'_>, conn: ConnId, _peer: (Ipv4Addr, u16)) {
        self.decoders.insert(conn, TpktDecoder::new());
    }

    fn on_tcp_data(&mut self, ctx: &mut HostCtx<'_>, conn: ConnId, data: &[u8]) {
        let payloads = match self.decoders.get_mut(&conn) {
            Some(dec) => dec.feed(data),
            None => return,
        };
        for payload in payloads {
            let Ok(pdu) = MmsPdu::decode(&payload) else {
                continue;
            };
            let Some(reply) = self.server.handle(&pdu) else {
                continue;
            };
            let wire = tpkt_frame(&reply.encode()).or_else(|| match reply {
                MmsPdu::ConfirmedResponse { invoke_id, .. } => tpkt_frame(
                    &MmsPdu::ConfirmedError {
                        invoke_id,
                        error: ERROR_PDU_SIZE,
                    }
                    .encode(),
                ),
                _ => None,
            });
            if let Some(wire) = wire {
                ctx.tcp_send(conn, &wire);
            }
        }
    }

    fn on_tcp_closed(&mut self, _ctx: &mut HostCtx<'_>, conn: ConnId) {
        self.decoders.remove(&conn);
    }
}
