//! Emulated Modbus TCP server and client applications for `sgcr-net` hosts.

use crate::codec::{
    decode_request, decode_response, encode_response, Adu, FunctionCode, Request, Response,
    StreamDecoder,
};
use crate::registers::SharedRegisters;
use bytes::Bytes;
use sgcr_net::{ConnId, HostCtx, Ipv4Addr, SocketApp};
use std::collections::HashMap;

/// The standard Modbus TCP port.
pub const MODBUS_PORT: u16 = 502;

/// A Modbus TCP server serving a [`SharedRegisters`] map.
///
/// Attach to a host; the PLC/IED runtime mutates the shared map and the
/// server answers SCADA/master requests against it.
pub struct ModbusServerApp {
    registers: SharedRegisters,
    decoders: HashMap<ConnId, StreamDecoder>,
}

impl ModbusServerApp {
    /// Creates a server on the standard port.
    pub fn new(registers: SharedRegisters) -> Self {
        ModbusServerApp {
            registers,
            decoders: HashMap::new(),
        }
    }
}

impl SocketApp for ModbusServerApp {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.tcp_listen(MODBUS_PORT);
    }

    fn on_tcp_accepted(&mut self, _ctx: &mut HostCtx<'_>, conn: ConnId, _peer: (Ipv4Addr, u16)) {
        self.decoders.insert(conn, StreamDecoder::new());
    }

    fn on_tcp_data(&mut self, ctx: &mut HostCtx<'_>, conn: ConnId, data: &[u8]) {
        let adus = match self.decoders.get_mut(&conn) {
            Some(dec) => dec.feed(data),
            None => return,
        };
        for adu in adus {
            let reply_pdu = match decode_request(&adu.pdu) {
                Some(req) => {
                    let fc = FunctionCode::from_u8(adu.pdu[0]).expect("decoded request");
                    let resp = self.registers.with(|map| map.execute(&req));
                    encode_response(fc, &resp)
                }
                None => {
                    // Unknown function: Modbus exception 0x01.
                    vec![adu.pdu.first().copied().unwrap_or(0) | 0x80, 0x01]
                }
            };
            let reply = Adu {
                transaction_id: adu.transaction_id,
                unit_id: adu.unit_id,
                pdu: Bytes::from(reply_pdu),
            };
            ctx.tcp_send(conn, &reply.encode());
        }
    }

    fn on_tcp_closed(&mut self, _ctx: &mut HostCtx<'_>, conn: ConnId) {
        self.decoders.remove(&conn);
    }
}

/// Client-side bookkeeping: matches responses to outstanding requests over
/// one TCP connection. Embed in a master application (SCADA, PLC, attacker).
#[derive(Debug, Default)]
pub struct ModbusClient {
    decoder: StreamDecoder,
    next_tid: u16,
    pending: HashMap<u16, Request>,
}

impl ModbusClient {
    /// Creates an idle client.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes a request, remembering it for response matching.
    /// Send the returned bytes on the TCP connection.
    pub fn request(&mut self, unit_id: u8, req: Request) -> Vec<u8> {
        self.next_tid = self.next_tid.wrapping_add(1);
        let tid = self.next_tid;
        let adu = Adu {
            transaction_id: tid,
            unit_id,
            pdu: Bytes::from(crate::codec::encode_request(&req)),
        };
        self.pending.insert(tid, req);
        adu.encode()
    }

    /// Feeds received TCP bytes; returns completed `(request, response)` pairs.
    pub fn feed(&mut self, data: &[u8]) -> Vec<(Request, Response)> {
        let mut out = Vec::new();
        for adu in self.decoder.feed(data) {
            if let Some(req) = self.pending.remove(&adu.transaction_id) {
                if let Some(resp) = decode_response(&req, &adu.pdu) {
                    out.push((req, resp));
                }
            }
        }
        out
    }

    /// Number of requests still awaiting a response.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use sgcr_net::{LinkSpec, Network, SimDuration, SimTime};
    use std::sync::Arc;

    /// A master that connects, writes a register, then reads it back.
    struct TestMaster {
        server_ip: Ipv4Addr,
        client: ModbusClient,
        conn: Option<ConnId>,
        results: Arc<Mutex<Vec<(Request, Response)>>>,
    }

    impl SocketApp for TestMaster {
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            self.conn = Some(ctx.tcp_connect(self.server_ip, MODBUS_PORT));
        }
        fn on_tcp_connected(&mut self, ctx: &mut HostCtx<'_>, conn: ConnId) {
            let w = self.client.request(
                1,
                Request::WriteSingleRegister {
                    address: 10,
                    value: 4242,
                },
            );
            ctx.tcp_send(conn, &w);
            let r = self.client.request(
                1,
                Request::ReadHoldingRegisters {
                    address: 10,
                    count: 1,
                },
            );
            ctx.tcp_send(conn, &r);
        }
        fn on_tcp_data(&mut self, _ctx: &mut HostCtx<'_>, _conn: ConnId, data: &[u8]) {
            self.results.lock().extend(self.client.feed(data));
        }
    }

    #[test]
    fn end_to_end_write_then_read() {
        let mut net = Network::new();
        let sw = net.add_switch("sw");
        let server = net.add_host("plc", Ipv4Addr::new(10, 0, 0, 1));
        let master = net.add_host("scada", Ipv4Addr::new(10, 0, 0, 2));
        net.connect(server, sw, LinkSpec::default());
        net.connect(master, sw, LinkSpec::default());

        let regs = SharedRegisters::with_size(64);
        net.attach_app(server, Box::new(ModbusServerApp::new(regs.clone())));
        let results = Arc::new(Mutex::new(Vec::new()));
        net.attach_app(
            master,
            Box::new(TestMaster {
                server_ip: Ipv4Addr::new(10, 0, 0, 1),
                client: ModbusClient::new(),
                conn: None,
                results: results.clone(),
            }),
        );
        net.run_until(SimTime::from_millis(500));

        let results = results.lock();
        assert_eq!(results.len(), 2);
        assert!(matches!(
            results[0].1,
            Response::WroteSingleRegister {
                address: 10,
                value: 4242
            }
        ));
        assert_eq!(results[1].1, Response::Registers(vec![4242]));
        // The device side sees the write through the shared handle.
        assert_eq!(regs.holding(10), 4242);
    }

    /// The device runtime updates inputs; the master polls them.
    struct Poller {
        server_ip: Ipv4Addr,
        client: ModbusClient,
        observed: Arc<Mutex<Vec<u16>>>,
        conn: Option<ConnId>,
    }

    impl SocketApp for Poller {
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            self.conn = Some(ctx.tcp_connect(self.server_ip, MODBUS_PORT));
        }
        fn on_tcp_connected(&mut self, ctx: &mut HostCtx<'_>, conn: ConnId) {
            let r = self.client.request(
                1,
                Request::ReadInputRegisters {
                    address: 0,
                    count: 1,
                },
            );
            ctx.tcp_send(conn, &r);
            ctx.set_timer(SimDuration::from_millis(100), 1);
        }
        fn on_timer(&mut self, ctx: &mut HostCtx<'_>, _token: u64) {
            if let Some(conn) = self.conn {
                let r = self.client.request(
                    1,
                    Request::ReadInputRegisters {
                        address: 0,
                        count: 1,
                    },
                );
                ctx.tcp_send(conn, &r);
                ctx.set_timer(SimDuration::from_millis(100), 1);
            }
        }
        fn on_tcp_data(&mut self, _ctx: &mut HostCtx<'_>, _conn: ConnId, data: &[u8]) {
            for (_, resp) in self.client.feed(data) {
                if let Response::Registers(regs) = resp {
                    self.observed.lock().push(regs[0]);
                }
            }
        }
    }

    #[test]
    fn polling_sees_device_updates() {
        let mut net = Network::new();
        let sw = net.add_switch("sw");
        let server = net.add_host("ied", Ipv4Addr::new(10, 0, 0, 1));
        let master = net.add_host("hmi", Ipv4Addr::new(10, 0, 0, 2));
        net.connect(server, sw, LinkSpec::default());
        net.connect(master, sw, LinkSpec::default());

        let regs = SharedRegisters::with_size(16);
        net.attach_app(server, Box::new(ModbusServerApp::new(regs.clone())));
        let observed = Arc::new(Mutex::new(Vec::new()));
        net.attach_app(
            master,
            Box::new(Poller {
                server_ip: Ipv4Addr::new(10, 0, 0, 1),
                client: ModbusClient::new(),
                observed: observed.clone(),
                conn: None,
            }),
        );

        // Step the sim, changing the "measurement" between slices.
        for (step, value) in [(0u64, 100u16), (1, 200), (2, 300)] {
            regs.set_input(0, value);
            net.run_until(SimTime::from_millis((step + 1) * 250));
        }
        let observed = observed.lock();
        assert!(observed.contains(&100));
        assert!(observed.contains(&200));
        assert!(observed.contains(&300));
    }
}
