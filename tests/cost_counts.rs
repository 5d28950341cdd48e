//! Deterministic cost guards: the live heap a fresh tenant adds, and the
//! allocations it makes, when it is instantiated from an already compiled
//! model, the allocations a step makes, the events a quiescent step
//! dispatches, and what a tenant's event journal holds and costs to render.
//! Counts do not drift with the host the way timings do, so a bound here
//! catches a tenant that grows what its compiled model should share, a
//! step that allocates what it could reuse, or a device that runs while
//! nothing it reads changed.
//!
//! The heap and the allocations are measured by a counting global
//! allocator, the events by the network's own counter. The allocator's
//! counts are thread-local, so tests running in parallel threads do not
//! mix, and a single-threaded range is measured whole.
//!
//! A change that lowers a count tightens its bound in the same change; one
//! that raises a bound says why.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/example code may panic

use sg_cyber_range::core::{breaker_cmd_key, CompiledModel, CyberRange, RangeBuilder};
use sg_cyber_range::kvstore::Value;
use sg_cyber_range::models::{epic_bundle, multisub_bundle, MultiSubParams};
use sg_cyber_range::net::{
    ConnId, HostCtx, Ipv4Addr, LinkSpec, Network, SimDuration, SimTime, SocketApp,
};
use sg_cyber_range::obs::Telemetry;
use sg_cyber_range::plc::{parse_program, Interpreter, StValue};
use sg_cyber_range::powerflow::{SolveOptions, Solver};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

struct Counting;

thread_local! {
    /// Bytes allocated minus bytes freed by this thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Allocations (including reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count(delta: isize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

fn count_alloc(delta: isize) {
    count(delta);
    let _ = ALLOCS.try_with(|allocs| allocs.set(allocs.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// bookkeeping only reads sizes and touches a const-initialized `Cell`, which
// does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            count_alloc(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            count_alloc(layout.size() as isize);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            count_alloc(new_size as isize - layout.size() as isize);
        }
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-(layout.size() as isize));
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

/// Runs `f` and returns the allocations it made on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Instantiates a tenant of `model`, telemetry off, and returns it with the
/// live heap it added and the allocations it made.
fn instantiate(model: &Arc<CompiledModel>) -> (CyberRange, isize, u64) {
    let before = live_bytes();
    let mut range = None;
    let allocs = allocations(|| {
        range = Some(
            RangeBuilder::from_model(model.clone())
                .build()
                .expect("range instantiates"),
        );
    });
    (range.expect("built"), live_bytes() - before, allocs)
}

/// Checks that a fresh tenant of `model` adds at most `heap` bytes of live
/// heap and makes at most `allocs` allocations, and that a second tenant of
/// the same model costs what the first did.
fn check_fresh_tenant(name: &str, model: &Arc<CompiledModel>, heap: isize, allocs: u64) {
    let (_first, first, first_allocs) = instantiate(model);
    let (_second, second, second_allocs) = instantiate(model);
    assert!(
        first <= heap,
        "a fresh {name} tenant adds {first} B of live heap (bound {heap} B)"
    );
    assert!(
        first_allocs <= allocs,
        "instantiating one {name} tenant makes {first_allocs} allocations (bound {allocs})"
    );
    assert_eq!(
        (second, second_allocs),
        (first, first_allocs),
        "a second {name} tenant of the same model costs what the first did"
    );
}

/// A fresh paper-profile tenant (5 substations, 104 IEDs). It added
/// 2,628 KiB while every tenant built its own IED attribute trees; with the
/// trees shared per compiled model a debug build measures 615 KiB
/// (630,205 B), 629 KiB (644,520 B) since each host keeps a tick that can
/// park and each IED a degradation watcher list, and 635 KiB (650,655 B)
/// since each IED app keeps its own name for journal events. It measures
/// 603 KiB (617,036 B) since the range hands every device one degradation
/// signal and each IED its host node's name, finds hosts through the
/// network's index, and keeps one copy of the latest solution. It measures
/// 568 KiB (581,139 B) since the solver keeps no copy of the network, and
/// 564 KiB (577,779 B) since each host keeps its connections in a table
/// indexed by id and the network keeps no set of armed TCP timers and no
/// second queue for ticks. It measures 411 KiB (421,101 B; 577,779 B →
/// 421,101 B) since the tenant's store is a fork of the compiled model's
/// template, sharing its key index, and the IEDs and the publish table keep
/// their slots in the compiled model: the tenant copies no key and resolves
/// none. Its instantiation made 5,750 allocations while the tenant interned
/// every key and resolved its own slots, and makes 4,035 since (5,750 →
/// 4,035); a tenant that interns its keys again fails the allocation bound.
/// Since the HMI shares its configuration and keeps its tags by point
/// index it measures 420,774 B and makes 4,019 allocations (421,101 B →
/// 420,774 B, 4,035 → 4,019), and 417,526 B since each MMS server keeps its
/// sessions in a `BTreeMap` and no port (420,774 B → 417,526 B), and
/// 420,022 B since each IED's GOOSE publisher keeps the PDU it retransmits
/// in place of its configuration, 24 B more per IED (417,526 B →
/// 420,022 B; the bound stands). Each bound leaves 10% headroom (the bounds
/// were 453 and 452 KiB and 4,439).
const PAPER_TENANT_BOUND: isize = 449 * 1024;
const PAPER_TENANT_ALLOCS: u64 = 4_421;

/// A fresh EPIC tenant: 191 KiB with per-tenant trees, 53 KiB (54,219 B)
/// shared, 54 KiB (55,402 B) with parkable ticks, 54 KiB (55,671 B) with
/// per-app IED names, 52 KiB (53,478 B) with the shared signal, names and
/// solution, 51 KiB (52,010 B) without the solver's copy of the network,
/// 50 KiB (51,674 B; 51,994 B before, measured alike) with the connection
/// table, and 45 KiB (51,674 B → 45,651 B) with a forked store; its
/// instantiation makes 622 → 531 allocations. With the PLC program, the PLC
/// bindings and the SCADA configuration shared, not copied, it measures
/// 41,026 B and makes 461 allocations (45,651 B → 41,026 B, 531 → 461), and
/// 40,866 B since each MMS server keeps its sessions in a `BTreeMap` and no
/// port (41,026 B → 40,866 B), and 41,058 B since each GOOSE publisher keeps
/// the PDU it retransmits (40,866 B → 41,058 B; the bound stands, 9.5%
/// over). Each bound leaves 10% headroom (the bounds were 50 KiB, 45,129 B
/// and 585).
const EPIC_TENANT_BOUND: isize = 44_953;
const EPIC_TENANT_ALLOCS: u64 = 507;

#[test]
fn a_fresh_paper_tenant_shares_its_ied_models() {
    let bundle = multisub_bundle(&MultiSubParams::paper_profile());
    let model = CompiledModel::shared(&bundle).expect("paper bundle must compile");
    check_fresh_tenant("paper", &model, PAPER_TENANT_BOUND, PAPER_TENANT_ALLOCS);
}

#[test]
fn a_fresh_epic_tenant_shares_its_ied_models() {
    let model = CompiledModel::shared(&epic_bundle()).expect("EPIC bundle must compile");
    check_fresh_tenant("EPIC", &model, EPIC_TENANT_BOUND, EPIC_TENANT_ALLOCS);
}

/// Steps `range` until it has taken `steps` steps in all.
fn step_to(range: &mut CyberRange, steps: u64) {
    while range.steps_total() < steps {
        range.step();
    }
}

/// Allocations per step over `range`'s next 100 steps.
fn allocations_per_step(range: &mut CyberRange) -> f64 {
    allocations(|| {
        for _ in 0..100 {
            range.step();
        }
    }) as f64
        / 100.0
}

/// A quiescent paper step, steps 100–200, telemetry off: a debug build
/// measured 48.2 allocations per step while the replayed solve cloned its
/// result, and 45.2 until the network stopped collecting per event (a
/// switch's out-ports, every connection id per TCP segment) and the SCADA
/// poll stopped cloning its data source: 37.0 with the network change
/// alone, 34.5 with both. It measures 33.5 since the HMI maps a read to its
/// points by position and an update allocates no key (34.5 → 33.5), and 26.0
/// since the BER encoders write each PDU into one buffer and an MMS poll
/// copies no item (33.5 → 26.0). It measures 6.0 since a send writes each
/// frame's headers and payload into one buffer and a receive reads every
/// layer in place (26.0 → 6.0; the bound was 28.6). Each bound here leaves
/// 10% headroom.
const PAPER_QUIESCENT_STEP_ALLOCS: f64 = 6.6;

/// An EPIC step from step 1,200, telemetry off: 361.9 per step while a
/// replay cloned its result, 358.9 until the network stopped collecting per
/// event, 298.9 since, and 284.3 since the PLC scan and the SCADA poll stop
/// cloning their configuration. It measures 242.8 since the interpreter
/// walks its program in place and overwrites variables where they are, and
/// the PLC and the HMI map replies to their bindings by position (284.3 →
/// 242.8; the bound was 313). It measures 196.0 since the BER encoders
/// nest each TLV in place, writing each PDU into one buffer, and the MMS
/// client keeps no copy of a request (242.8 → 196.0; the bound was 267). It
/// measures 56.6 since the network stack writes each frame it sends into
/// one buffer and reads each frame it receives in place, the MMS peers
/// frame each PDU once and read TPKT payloads in place, and GOOSE is
/// decoded once per frame (196.0 → 56.6; the bound was 215.6).
const EPIC_STEP_ALLOCS: f64 = 62.3;

/// The paper step that applies a breaker command written through the store
/// at step 100: 888 allocations, most of them the re-solve of the new
/// topology and the IEDs that sample it; 887 since the solver no longer
/// copies the changed breaker into a record, 810 since the network
/// collects nothing per event, and 800 since the HMI keeps its tags by
/// point index (810 → 800; the bound was 891), 765 since the BER encoders
/// write each PDU into one buffer (800 → 765; the bound was 880), and 600
/// since a frame is one buffer that every layer reads in place (765 → 600;
/// the bound was 842).
const PAPER_COMMAND_STEP_ALLOCS: u64 = 660;

/// One scan of the EPIC CPLC program, from its second scan on: 30
/// allocations while a scan cloned the program body and every write
/// allocated its variable's key, 2 since (30 → 2): the argument vectors of
/// its two `TO_INT` calls. The bound leaves 10% headroom.
const CPLC_SCAN_ALLOCS: f64 = 2.2;

fn paper_tenant() -> CyberRange {
    let bundle = multisub_bundle(&MultiSubParams::paper_profile());
    let model = CompiledModel::shared(&bundle).expect("paper bundle must compile");
    CyberRange::instantiate(model).expect("range instantiates")
}

#[test]
fn a_quiescent_paper_step_allocates_within_its_bound() {
    let mut range = paper_tenant();
    step_to(&mut range, 100);
    let per_step = allocations_per_step(&mut range);
    assert!(
        per_step <= PAPER_QUIESCENT_STEP_ALLOCS,
        "a quiescent paper step makes {per_step} allocations (bound {PAPER_QUIESCENT_STEP_ALLOCS})"
    );
}

/// A replayed solve, on a network not written since the last converged
/// one: 3 allocations while a replay cloned the kept result (its bus, line
/// and ext-grid tables), none since it returns the solver's one copy by
/// reference.
#[test]
fn a_replayed_solve_allocates_nothing() {
    let range = paper_tenant();
    let (net, options) = (range.power.clone(), SolveOptions::default());
    let mut solver = Solver::new();
    solver.solve(&net, &options).expect("converges");
    let allocs = allocations(|| {
        for _ in 0..100 {
            solver.solve(&net, &options).expect("replays");
        }
    });
    assert_eq!(solver.stats().reused, 100, "every call replayed");
    assert_eq!(allocs, 0, "100 replayed solves allocate");
}

#[test]
fn an_epic_step_allocates_within_its_bound() {
    let model = CompiledModel::shared(&epic_bundle()).expect("EPIC bundle must compile");
    let mut range = CyberRange::instantiate(model).expect("range instantiates");
    step_to(&mut range, 1_200);
    let per_step = allocations_per_step(&mut range);
    assert!(
        per_step <= EPIC_STEP_ALLOCS,
        "an EPIC step makes {per_step} allocations (bound {EPIC_STEP_ALLOCS})"
    );
}

#[test]
fn a_cplc_scan_allocates_within_its_bound() {
    let model = CompiledModel::shared(&epic_bundle()).expect("EPIC bundle must compile");
    let mut interp = Interpreter::new(model.plcs[0].program.clone()).expect("CPLC instantiates");
    interp.scan(0).expect("CPLC scans");
    let per_scan = allocations(|| {
        for scan in 1..=100 {
            interp.scan(scan * 100_000_000).expect("CPLC scans");
        }
    }) as f64
        / 100.0;
    assert!(
        per_scan <= CPLC_SCAN_ALLOCS,
        "a CPLC scan makes {per_scan} allocations (bound {CPLC_SCAN_ALLOCS})"
    );
}

/// One scan of `t1(IN := run, PT := T#500ms); done := t1.Q;`, from its
/// second scan on: 4 allocations while a call collected its inputs into a
/// map keyed by upper-cased copies of their names and reading a member
/// upper-cased its name, none since.
#[test]
fn a_function_block_call_allocates_nothing() {
    let program = parse_program(
        "PROGRAM timer\n\
         VAR run : BOOL := TRUE; done : BOOL; t1 : TON; END_VAR\n\
         t1(IN := run, PT := T#500ms);\n\
         done := t1.Q;\n\
         END_PROGRAM",
    )
    .expect("the program parses");
    let mut interp = Interpreter::new(program).expect("the program instantiates");
    interp.scan(0).expect("the program scans");
    let allocs = allocations(|| {
        for scan in 1..=100 {
            interp.scan(scan * 100_000_000).expect("the program scans");
        }
    });
    assert_eq!(interp.get("done"), Some(&StValue::Bool(true)), "t1 ran");
    assert_eq!(allocs, 0, "100 scans of a TON call allocate");
}

#[test]
fn a_paper_command_step_allocates_within_its_bound() {
    let mut range = paper_tenant();
    step_to(&mut range, 100);
    range
        .store
        .set(&breaker_cmd_key("S2/CB3"), Value::Bool(false));
    let allocs = allocations(|| range.step());
    assert_eq!(range.switch_is_closed("S2/CB3"), Some(false));
    assert!(
        allocs <= PAPER_COMMAND_STEP_ALLOCS,
        "the paper step applying a breaker command makes {allocs} allocations \
         (bound {PAPER_COMMAND_STEP_ALLOCS})"
    );
}

/// App-timer events a quiescent paper step dispatches, steps 100–200: 106.5
/// while every IED's sample timer fired each period, 2.5 since a quiet IED
/// parks its tick until something it reads changes. The bound leaves 10%
/// headroom.
const PAPER_QUIESCENT_STEP_APP_TIMERS: f64 = 2.75;

#[test]
fn a_quiescent_paper_step_wakes_no_quiet_ied() {
    let mut range = paper_tenant();
    step_to(&mut range, 100);
    let before = range.net.dispatched();
    for _ in 0..100 {
        range.step();
    }
    let after = range.net.dispatched();
    let per_step = (after.app_timers - before.app_timers) as f64 / 100.0;
    assert!(
        per_step <= PAPER_QUIESCENT_STEP_APP_TIMERS,
        "a quiescent paper step dispatches {per_step} app timers \
         (bound {PAPER_QUIESCENT_STEP_APP_TIMERS})"
    );
}

/// An EPIC tenant with `Telemetry::new()`, whose journal holds every packet
/// it sends and delivers: 42,338 records at step 1,200. While each record was
/// a 72-byte event with its own copy of a host name, a debug build measured
/// 4,878 KiB (4,994,847 B) of live heap there and 395.8 allocations per step
/// over steps 200–1,200, and rendering the journal as JSON Lines made
/// 169,366 allocations (4.0 per record). With 24-byte slots and shared names
/// it measures 1,622 KiB (1,660,996 B) and 361.8 per step (361.9 with
/// telemetry off), and the render makes one allocation. Since a replayed
/// solve copies nothing it measures 1,620 KiB (1,658,803 B) and 358.8 per
/// step, and 1,618 KiB (1,657,335 B) since the solver keeps no copy of the
/// network. Since the network collects nothing per event and the device
/// apps clone no configuration it measures 1,617 KiB (1,656,271 B) and
/// 284.2 per step (358.8 before; the bounds were 1,781 KiB and 395), and
/// 1,612 KiB (1,656,271 B → 1,650,248 B) with a forked store (the bound was
/// 1,780 KiB). With the PLC's and the HMI's bindings resolved once and
/// their configuration shared it measures 1,606 KiB (1,650,248 B →
/// 1,644,684 B) and 242.7 per step (284.2 → 242.7; the bounds were 1,773
/// KiB and 313). With one BER buffer per PDU and no request copied by the
/// MMS client it measures 1,605 KiB (1,644,684 B → 1,643,079 B) and 195.9
/// per step (242.7 → 195.9; the bounds were 1,767 KiB and 267). With one
/// buffer per frame it makes 56.5 per step (195.9 → 56.5; the bound was
/// 215.5) and holds 1,643,723 B (1,643,079 B → 1,643,723 B: the thread's
/// reused packet buffer, and each IED's GOOSE publisher keeping the PDU it
/// retransmits; the bound was 1,766 KiB). Each bound leaves 10% headroom.
const EPIC_JOURNALED_HEAP: isize = 1_808_096;
const EPIC_JOURNALED_STEP_ALLOCS: f64 = 62.2;
const EPIC_JOURNAL_EXPORT_ALLOCS_PER_RECORD: f64 = 1.1 / 42_338.0;

#[test]
fn a_journaled_epic_tenant_stays_within_its_bounds() {
    let model = CompiledModel::shared(&epic_bundle()).expect("EPIC bundle must compile");
    let before = live_bytes();
    let telemetry = Telemetry::new();
    let mut range = RangeBuilder::from_model(model)
        .telemetry(telemetry.clone())
        .build()
        .expect("range instantiates");
    // No step overruns it, so no wall-clock event joins the journal.
    range.set_step_budget(Duration::from_secs(3600));
    step_to(&mut range, 200);
    let per_step = allocations(|| step_to(&mut range, 1_200)) as f64 / 1_000.0;
    let heap = live_bytes() - before;
    let mut jsonl = String::new();
    let export = allocations(|| jsonl = telemetry.journal_jsonl());
    let records = jsonl.lines().count();
    let per_record = export as f64 / records as f64;
    assert!(
        heap <= EPIC_JOURNALED_HEAP,
        "a journaled EPIC tenant holds {heap} B at step 1,200 (bound {EPIC_JOURNALED_HEAP} B)"
    );
    assert!(
        per_step <= EPIC_JOURNALED_STEP_ALLOCS,
        "a journaled EPIC step makes {per_step} allocations (bound {EPIC_JOURNALED_STEP_ALLOCS})"
    );
    assert!(
        per_record <= EPIC_JOURNAL_EXPORT_ALLOCS_PER_RECORD,
        "rendering {records} records makes {per_record} allocations per record \
         (bound {EPIC_JOURNAL_EXPORT_ALLOCS_PER_RECORD})"
    );
}

/// One end of a TCP and UDP exchange: every millisecond the client sends
/// its peer a 100-byte TCP message and a 100-byte UDP datagram, and the
/// server echoes each back. Neither allocates: they send from a fixed
/// buffer or echo the bytes they were lent.
struct Exchange {
    /// The server's address, on the client.
    server: Option<Ipv4Addr>,
    conn: Option<ConnId>,
}

const EXCHANGE_PORT: u16 = 7000;

impl SocketApp for Exchange {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.bind_udp(EXCHANGE_PORT);
        match self.server {
            Some(server) => {
                ctx.tcp_connect(server, EXCHANGE_PORT);
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
            None => ctx.tcp_listen(EXCHANGE_PORT),
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, _token: u64) {
        let (Some(server), Some(conn)) = (self.server, self.conn) else {
            return;
        };
        ctx.tcp_send(conn, &[0x5a; 100]);
        ctx.send_udp(server, EXCHANGE_PORT, EXCHANGE_PORT, &[0xa5; 100]);
        ctx.set_timer(SimDuration::from_millis(1), 0);
    }

    fn on_tcp_connected(&mut self, _ctx: &mut HostCtx<'_>, conn: ConnId) {
        self.conn = Some(conn);
    }

    fn on_tcp_data(&mut self, ctx: &mut HostCtx<'_>, conn: ConnId, data: &[u8]) {
        if self.server.is_none() {
            ctx.tcp_send(conn, data);
        }
    }

    fn on_udp(&mut self, ctx: &mut HostCtx<'_>, src: (Ipv4Addr, u16), _dst_port: u16, data: &[u8]) {
        if self.server.is_none() {
            ctx.send_udp(src.0, src.1, EXCHANGE_PORT, data);
        }
    }
}

/// Two hosts on a switch exchanging TCP data and UDP datagrams, from 100 ms
/// on, when ARP has resolved and every buffer has grown: the network stack
/// made about nine allocations per frame a host sent while each layer of a
/// send encoded into a fresh buffer and each layer of a receive copied its
/// payload out, and makes one since: the frame's payload, written once.
#[test]
fn a_host_sends_each_frame_with_one_allocation_and_receives_it_with_none() {
    let mut net = Network::new();
    let switch = net.add_switch("sw");
    let server = Ipv4Addr::new(10, 0, 0, 1);
    let hosts = [
        (net.add_host("server", server), None),
        (
            net.add_host("client", Ipv4Addr::new(10, 0, 0, 2)),
            Some(server),
        ),
    ];
    for (host, server) in hosts {
        net.connect(host, switch, LinkSpec::default());
        net.attach_app(host, Box::new(Exchange { server, conn: None }));
    }
    net.run_until(SimTime::from_millis(100));
    let before = net.dispatched().frames;
    let allocs = allocations(|| net.run_until(SimTime::from_millis(200)));
    // Each frame a host sends arrives twice: at the switch and at the peer.
    let sent = (net.dispatched().frames - before) / 2;
    assert!(sent >= 400, "the hosts exchanged {sent} frames");
    assert!(
        allocs <= sent,
        "sending {sent} frames, and receiving them, makes {allocs} allocations"
    );
}
