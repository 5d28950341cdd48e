//! TPKT stream reassembly (RFC 1006) under hostile bytes: a header too
//! short to hold itself, or a long run of garbage, must not wedge or stall
//! an MMS stream, and splitting a valid stream anywhere must not change
//! the frames it decodes to. A TPKT length is a u16 that counts its own
//! 4-byte header, so a longer PDU has no frame: an MMS server answers a
//! request whose reply would need one with an error, in step.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic

use proptest::collection::vec;
use proptest::prelude::*;
use sg_cyber_range::iec61850::{
    tpkt_frame, DataModel, DataValue, MmsClient, MmsPdu, MmsRequest, MmsResponse, MmsServer,
    MmsServerApp, SharedModel, TpktDecoder, ERROR_PDU_SIZE, MMS_PORT, TPKT_MAX_PAYLOAD,
};
use sg_cyber_range::net::{ConnId, HostCtx, Ipv4Addr, LinkSpec, Network, SimTime, SocketApp};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// `count` distinct payloads of 1–40 bytes.
fn payloads(count: usize) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| (0..1 + i % 40).map(|j| (i * 7 + j) as u8).collect())
        .collect()
}

/// `payload` in a TPKT frame, if it fits one.
fn tpkt(payload: &[u8]) -> Option<Vec<u8>> {
    tpkt_frame(|out| out.extend_from_slice(payload))
}

/// The payloads `decoder` lends when fed `bytes`.
fn feed(decoder: &mut TpktDecoder, bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut payloads = Vec::new();
    decoder.feed(bytes, |payload| payloads.push(payload.to_vec()));
    payloads
}

fn framed(payloads: &[Vec<u8>]) -> Vec<u8> {
    payloads
        .iter()
        .flat_map(|p| tpkt(p).expect("a short payload fits a frame"))
        .collect()
}

#[test]
fn a_header_shorter_than_itself_does_not_wedge_the_stream() {
    let frames = payloads(1_001);
    let mut stream = vec![0x03, 0x00, 0x00, 0x02];
    stream.extend(framed(&frames));
    let mut decoder = TpktDecoder::new();
    assert_eq!(feed(&mut decoder, &stream), frames);
    // The same bytes one at a time.
    let mut decoder = TpktDecoder::new();
    let decoded: Vec<_> = stream
        .iter()
        .flat_map(|b| feed(&mut decoder, &[*b]))
        .collect();
    assert_eq!(decoded, frames);
}

#[test]
fn a_mebibyte_of_garbage_is_skipped_in_linear_time() {
    let frame = b"after the garbage".to_vec();
    let mut stream: Vec<u8> = (0..1 << 20).map(|i| [0x00, 0xff, 0x30][i % 3]).collect();
    stream.extend(tpkt(&frame).unwrap());
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let decoded = feed(&mut TpktDecoder::new(), &stream);
        done.send(decoded).expect("the test waits for the result");
    });
    let decoded = finished
        .recv_timeout(Duration::from_secs(2))
        .expect("1 MiB of garbage is skipped within 2 s");
    worker.join().expect("the decoder does not panic");
    assert_eq!(decoded, vec![frame]);
}

#[test]
fn a_pdu_past_the_length_field_has_no_frame() {
    let longest = vec![0x5a; TPKT_MAX_PAYLOAD];
    let frame = tpkt(&longest).expect("the longest PDU fits");
    assert_eq!(frame[..4], [0x03, 0x00, 0xff, 0xff]);
    assert_eq!(feed(&mut TpktDecoder::new(), &frame), vec![longest]);
    assert_eq!(tpkt(&[0x5a; TPKT_MAX_PAYLOAD + 1]), None);
}

/// An MMS client that sends its requests back to back on one connection
/// and keeps every PDU it gets back.
struct Requester {
    server: Ipv4Addr,
    requests: Vec<MmsRequest>,
    client: MmsClient,
    answers: Arc<Mutex<Vec<MmsPdu>>>,
}

impl SocketApp for Requester {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.tcp_connect(self.server, MMS_PORT);
    }

    fn on_tcp_connected(&mut self, ctx: &mut HostCtx<'_>, conn: ConnId) {
        ctx.tcp_send(conn, &self.client.initiate());
        for request in self.requests.drain(..) {
            let (_, wire) = self.client.request(&request).expect("requests are short");
            ctx.tcp_send(conn, &wire);
        }
    }

    fn on_tcp_data(&mut self, _ctx: &mut HostCtx<'_>, _conn: ConnId, data: &[u8]) {
        self.answers.lock().unwrap().extend(self.client.feed(data));
    }
}

#[test]
fn a_reply_too_long_for_a_frame_is_an_error_and_the_next_request_is_answered() {
    let (big, small) = (
        "IED1LD0/LPHD1$DC$PhyNam$vendor",
        "IED1LD0/MMXU1$MX$TotW$mag$f",
    );
    let mut model = DataModel::new("IED1");
    model.insert(big, DataValue::Str("x".repeat(TPKT_MAX_PAYLOAD)));
    model.insert(small, DataValue::Float(4.5));
    let mut net = Network::new();
    let switch = net.add_switch("sw");
    let ied = net.add_host("ied", Ipv4Addr::new(10, 0, 0, 1));
    let client = net.add_host("client", Ipv4Addr::new(10, 0, 0, 2));
    net.connect(ied, switch, LinkSpec::default());
    net.connect(client, switch, LinkSpec::default());
    let server = MmsServer::new(SharedModel::new(model));
    net.attach_app(ied, Box::new(MmsServerApp::new(server)));
    let answers = Arc::new(Mutex::new(Vec::new()));
    let read = |item: &str| MmsRequest::Read {
        items: vec![item.to_string()],
    };
    net.attach_app(
        client,
        Box::new(Requester {
            server: Ipv4Addr::new(10, 0, 0, 1),
            requests: vec![read(big), read(small)],
            client: MmsClient::new(),
            answers: answers.clone(),
        }),
    );
    net.run_until(SimTime::from_millis(200));
    assert_eq!(
        *answers.lock().unwrap(),
        [
            MmsPdu::InitiateResponse,
            MmsPdu::ConfirmedError {
                invoke_id: 1,
                error: ERROR_PDU_SIZE,
            },
            MmsPdu::ConfirmedResponse {
                invoke_id: 2,
                response: MmsResponse::Read {
                    results: vec![Ok(DataValue::Float(4.5))],
                },
            },
        ]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    fn any_chunking_decodes_the_same_payloads(
        frames in vec(vec(any::<u8>(), 0..300), 0..12),
        chunks in vec(1usize..64, 1..40),
    ) {
        let stream = framed(&frames);
        let mut decoder = TpktDecoder::new();
        let mut decoded = Vec::new();
        let (mut at, mut next) = (0, 0);
        while at < stream.len() {
            let end = (at + chunks[next % chunks.len()]).min(stream.len());
            decoded.extend(feed(&mut decoder, &stream[at..end]));
            (at, next) = (end, next + 1);
        }
        prop_assert_eq!(decoded, frames);
    }
}
