//! A ready-made `sgcr-net` application: the MMS server app the virtual IED
//! is built on.

use crate::mms::{tpkt_frame, MmsPdu, MmsServer, TpktDecoder, ERROR_PDU_SIZE, MMS_PORT};
use sgcr_net::{ConnId, HostCtx, Ipv4Addr, SocketApp};
use std::collections::BTreeMap;

/// An MMS server listening on TCP 102, answering from an [`MmsServer`].
///
/// A confirmed request whose reply is too long for one TPKT frame is
/// answered with a [`MmsPdu::ConfirmedError`] of code [`ERROR_PDU_SIZE`]
/// under the request's invoke id, so every request gets exactly one answer
/// and the client stays in step.
pub struct MmsServerApp {
    server: MmsServer,
    /// The stream decoder of each associated connection.
    decoders: BTreeMap<ConnId, TpktDecoder>,
}

impl MmsServerApp {
    /// Wraps a server engine, listening on the standard port.
    pub fn new(server: MmsServer) -> MmsServerApp {
        MmsServerApp {
            server,
            decoders: BTreeMap::new(),
        }
    }

    /// Connections currently associated with the server (report targets),
    /// in id order.
    pub fn connections(&self) -> impl Iterator<Item = ConnId> + '_ {
        self.decoders.keys().copied()
    }
}

impl SocketApp for MmsServerApp {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.tcp_listen(MMS_PORT);
    }

    fn on_tcp_accepted(&mut self, _ctx: &mut HostCtx<'_>, conn: ConnId, _peer: (Ipv4Addr, u16)) {
        self.decoders.insert(conn, TpktDecoder::new());
    }

    fn on_tcp_data(&mut self, ctx: &mut HostCtx<'_>, conn: ConnId, data: &[u8]) {
        let Some(decoder) = self.decoders.get_mut(&conn) else {
            return;
        };
        decoder.feed(data, |payload| {
            let Ok(pdu) = MmsPdu::decode(payload) else {
                return;
            };
            let Some(reply) = self.server.handle(&pdu) else {
                return;
            };
            let wire = tpkt_frame(|out| reply.write(out)).or_else(|| match reply {
                MmsPdu::ConfirmedResponse { invoke_id, .. } => {
                    let error = ERROR_PDU_SIZE;
                    tpkt_frame(|out| MmsPdu::ConfirmedError { invoke_id, error }.write(out))
                }
                _ => None,
            });
            if let Some(wire) = wire {
                ctx.tcp_send(conn, &wire);
            }
        });
    }

    fn on_tcp_closed(&mut self, _ctx: &mut HostCtx<'_>, conn: ConnId) {
        self.decoders.remove(&conn);
    }
}
