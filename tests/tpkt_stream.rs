//! TPKT stream reassembly (RFC 1006) under hostile bytes: a header too
//! short to hold itself, or a long run of garbage, must not wedge or stall
//! an MMS stream, and splitting a valid stream anywhere must not change
//! the frames it decodes to.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic

use proptest::collection::vec;
use proptest::prelude::*;
use sg_cyber_range::iec61850::{tpkt_frame, TpktDecoder};
use std::sync::mpsc;
use std::time::Duration;

/// `count` distinct payloads of 1–40 bytes.
fn payloads(count: usize) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| (0..1 + i % 40).map(|j| (i * 7 + j) as u8).collect())
        .collect()
}

fn framed(payloads: &[Vec<u8>]) -> Vec<u8> {
    payloads.iter().flat_map(|p| tpkt_frame(p)).collect()
}

#[test]
fn a_header_shorter_than_itself_does_not_wedge_the_stream() {
    let frames = payloads(1_001);
    let mut stream = vec![0x03, 0x00, 0x00, 0x02];
    stream.extend(framed(&frames));
    let mut decoder = TpktDecoder::new();
    assert_eq!(decoder.feed(&stream), frames);
    // The same bytes one at a time.
    let mut decoder = TpktDecoder::new();
    let decoded: Vec<_> = stream.iter().flat_map(|b| decoder.feed(&[*b])).collect();
    assert_eq!(decoded, frames);
}

#[test]
fn a_mebibyte_of_garbage_is_skipped_in_linear_time() {
    let frame = b"after the garbage".to_vec();
    let mut stream: Vec<u8> = (0..1 << 20).map(|i| [0x00, 0xff, 0x30][i % 3]).collect();
    stream.extend(tpkt_frame(&frame));
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let decoded = TpktDecoder::new().feed(&stream);
        done.send(decoded).expect("the test waits for the result");
    });
    let decoded = finished
        .recv_timeout(Duration::from_secs(2))
        .expect("1 MiB of garbage is skipped within 2 s");
    worker.join().expect("the decoder does not panic");
    assert_eq!(decoded, vec![frame]);
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
            decoded.extend(decoder.feed(&stream[at..end]));
            (at, next) = (end, next + 1);
        }
        prop_assert_eq!(decoded, frames);
    }
}
