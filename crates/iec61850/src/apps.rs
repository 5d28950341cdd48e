//! Ready-made `sgcr-net` applications: an MMS server app and a polling MMS
//! client app, used as building blocks by the virtual IED, PLC, and SCADA.

use crate::mms::{
    tpkt_frame, MmsClient, MmsPdu, MmsRequest, MmsServer, TpktDecoder, ERROR_PDU_SIZE, MMS_PORT,
};
use crate::model::DataValue;
use parking_lot::Mutex;
use sgcr_net::{ConnId, HostCtx, Ipv4Addr, SocketApp};
use std::collections::HashMap;
use std::sync::Arc;

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

/// Shared mailbox of responses observed by an [`MmsPollerApp`].
pub type PollResults = Arc<Mutex<Vec<(u64, String, DataValue)>>>;

/// A simple MMS client that connects to a server and polls a fixed item list
/// at a fixed period, publishing results (time-ms, item, value) to a shared
/// mailbox. Useful for tests and as the skeleton of the SCADA poller.
pub struct MmsPollerApp {
    server_ip: Ipv4Addr,
    items: Vec<String>,
    period_ms: u64,
    client: MmsClient,
    conn: Option<ConnId>,
    results: PollResults,
}

impl MmsPollerApp {
    /// Creates a poller against `server_ip` reading `items` every `period_ms`.
    pub fn new(
        server_ip: Ipv4Addr,
        items: Vec<String>,
        period_ms: u64,
    ) -> (MmsPollerApp, PollResults) {
        let results: PollResults = Arc::default();
        (
            MmsPollerApp {
                server_ip,
                items,
                period_ms,
                client: MmsClient::new(),
                conn: None,
                results: results.clone(),
            },
            results,
        )
    }

    fn poll(&mut self, ctx: &mut HostCtx<'_>) {
        if let Some(conn) = self.conn {
            let request = MmsRequest::Read {
                items: self.items.clone(),
            };
            if let Some((_, wire)) = self.client.request(request) {
                ctx.tcp_send(conn, &wire);
            }
        }
        ctx.set_timer(sgcr_net::SimDuration::from_millis(self.period_ms), 1);
    }
}

impl SocketApp for MmsPollerApp {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        let conn = ctx.tcp_connect(self.server_ip, MMS_PORT);
        self.conn = Some(conn);
    }

    fn on_tcp_connected(&mut self, ctx: &mut HostCtx<'_>, conn: ConnId) {
        let init = self.client.initiate();
        ctx.tcp_send(conn, &init);
        self.poll(ctx);
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, _token: u64) {
        self.poll(ctx);
    }

    fn on_tcp_data(&mut self, ctx: &mut HostCtx<'_>, _conn: ConnId, data: &[u8]) {
        for reply in self.client.feed(data) {
            if let (
                Some(MmsRequest::Read { items }),
                MmsPdu::ConfirmedResponse {
                    response: crate::mms::MmsResponse::Read { results },
                    ..
                },
            ) = reply
            {
                let now = ctx.now().as_millis();
                let mut mailbox = self.results.lock();
                for (item, result) in items.into_iter().zip(results) {
                    if let Ok(value) = result {
                        mailbox.push((now, item, value));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mms::SharedModel;
    use crate::model::DataModel;
    use sgcr_net::{LinkSpec, Network, SimTime};

    #[test]
    fn mms_client_server_over_emulated_network() {
        let mut net = Network::new();
        let sw = net.add_switch("sw");
        let ied = net.add_host("ied", Ipv4Addr::new(10, 0, 0, 1));
        let hmi = net.add_host("hmi", Ipv4Addr::new(10, 0, 0, 2));
        net.connect(ied, sw, LinkSpec::default());
        net.connect(hmi, sw, LinkSpec::default());

        let mut model = DataModel::new("IED1");
        model.insert("IED1LD0/MMXU1$MX$TotW$mag$f", DataValue::Float(10.0));
        let shared = SharedModel::new(model);
        net.attach_app(
            ied,
            Box::new(MmsServerApp::new(MmsServer::new(shared.clone()))),
        );

        let (poller, results) = MmsPollerApp::new(
            Ipv4Addr::new(10, 0, 0, 1),
            vec!["IED1LD0/MMXU1$MX$TotW$mag$f".into()],
            100,
        );
        net.attach_app(hmi, Box::new(poller));

        // Run; change the "measurement" mid-way; run more.
        net.run_until(SimTime::from_millis(250));
        shared.write("IED1LD0/MMXU1$MX$TotW$mag$f", DataValue::Float(20.0));
        net.run_until(SimTime::from_millis(600));

        let observed = results.lock();
        let values: Vec<f32> = observed
            .iter()
            .filter_map(|(_, _, v)| match v {
                DataValue::Float(f) => Some(*f),
                _ => None,
            })
            .collect();
        assert!(values.contains(&10.0), "early polls see 10.0: {values:?}");
        assert!(values.contains(&20.0), "later polls see 20.0: {values:?}");
        // Poll cadence ≈ every 100 ms over 600 ms.
        assert!(
            observed.len() >= 4,
            "expected several polls, got {}",
            observed.len()
        );
    }
}
