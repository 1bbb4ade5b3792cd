//! Exhaustive sans-io protocol exploration.
//!
//! The workspace's wire protocols are all built as *sans-io* state
//! machines — push bytes in whatever fragments arrive, poll for
//! complete messages — precisely so their behavior is a pure function
//! of the byte stream, not of delivery timing.  This module turns that
//! design decision into a checked property: a bounded-depth model
//! checker drives each machine through **every** chunking schedule of
//! each scenario stream (all `2^(n-1)` split points for streams up to
//! [`ExplorerConfig::exhaustive_len`] bytes, a structured reduced set
//! beyond) and asserts four invariants on every run:
//!
//! * **split-invariance** — the sequence of emitted messages and the
//!   terminal error (if any) are identical to the whole-stream
//!   reference run, for every schedule;
//! * **no-panic** — no schedule panics the machine;
//! * **bounded buffering** — while the machine is still parsing, its
//!   retained bytes never exceed the target's declared cap (truncation
//!   is covered implicitly: every step of every schedule *is* a
//!   truncated stream, and the invariants hold at each step);
//! * **progress** — a machine that is not finished and has no output
//!   or error pending never reports `bytes_needed() == 0` (no stuck
//!   states).
//!
//! Scenario streams carry expected outcomes where the builder knows
//! them (valid frames, known-garbage headers), so semantic breakage —
//! not just inconsistency — is caught.  The [`mutants`] corpus is the
//! engine's own regression suite: deliberately broken parser variants
//! (off-by-one length handling, unbounded accumulation, chunk-local
//! header scanning) that the explorer must reject at 100%.

use std::panic::{catch_unwind, AssertUnwindSafe};

use openmeta_echo::wire::{
    reply_from_frame, subscribe_from_frame, FRAME_RECORD, FRAME_SUBSCRIBE, FRAME_SUB_ERR,
    FRAME_SUB_OK,
};
use openmeta_echo::{HandshakeReply, SubscribeRequest};
use openmeta_net::LengthFramer;
use openmeta_ohttp::{Request, RequestParser};
use openmeta_pbio::verify::{Severity, Violation};
use openmeta_pbio::{FormatId, FormatRegistry, FormatSpec, IOField, MachineModel as PbioMachine};
use xmit::negotiate::{
    reply_from_frame as negotiate_reply_from_frame, Accept, AcceptEntry, Hello, NegotiateReply,
    PairVerdict, FRAME_ACCEPT, FRAME_HELLO, FRAME_REJECT,
};

use crate::diag::{ProtoReport, Stage};

/// Bounds for the schedule enumerator.
#[derive(Debug, Clone, Copy)]
pub struct ExplorerConfig {
    /// Streams up to this many bytes are explored under **all**
    /// `2^(len-1)` chunkings; longer streams get the reduced set
    /// (whole, byte-at-a-time, every 2-chunk and 3-chunk split).
    pub exhaustive_len: usize,
}

impl Default for ExplorerConfig {
    fn default() -> ExplorerConfig {
        ExplorerConfig { exhaustive_len: 12 }
    }
}

/// A sans-io protocol machine under test, adapted to a canonical
/// push/drain surface so one driver can explore every protocol core.
pub trait Machine {
    /// Append newly received bytes.
    fn push(&mut self, bytes: &[u8]);
    /// Drain every message currently decodable, as canonical display
    /// strings, plus the terminal error if one occurred.
    fn drain(&mut self) -> (Vec<String>, Option<String>);
    /// Bytes retained but not yet consumed by an emitted message.
    fn buffered(&self) -> usize;
    /// Bytes still needed before the next message can be emitted
    /// (0 must mean "a message or error is available right now").
    fn bytes_needed(&self) -> usize;
    /// The machine has completed its protocol role (retained bytes now
    /// belong to the next stage, e.g. delivery frames behind `SUB_OK`).
    fn finished(&self) -> bool {
        false
    }
}

/// Expected whole-stream outcome of a scenario, when the builder knows
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expectation {
    /// Canonical messages, in order.
    pub outputs: Vec<String>,
    /// The stream must end in a protocol error.
    pub error: bool,
}

/// One input stream to explore.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable label used in diagnostics.
    pub label: &'static str,
    /// The byte stream.
    pub bytes: Vec<u8>,
    /// Ground-truth outcome, if known.
    pub expect: Option<Expectation>,
}

/// One protocol core plus its scenario corpus.
pub struct Target {
    /// Stable name used in diagnostics (`subject` field).
    pub name: &'static str,
    /// Retained-byte bound enforced while the machine is parsing.
    pub cap: usize,
    /// Fresh-machine factory (one machine per schedule run).
    pub make: Box<dyn Fn() -> Box<dyn Machine>>,
    /// Streams to explore.
    pub scenarios: Vec<Scenario>,
}

// ------------------------------------------------------------ driver

#[derive(Debug, Clone, PartialEq, Eq)]
struct Outcome {
    outputs: Vec<String>,
    error: Option<String>,
}

/// Run one schedule to completion, checking per-step invariants.
/// `Err` is an invariant violation; `Ok` is the observed outcome.
fn run_schedule(target: &Target, bytes: &[u8], schedule: &[usize]) -> Result<Outcome, Violation> {
    let run = || -> Result<Outcome, Violation> {
        let mut m = (target.make)();
        let mut outcome = Outcome { outputs: Vec::new(), error: None };
        let mut offset = 0usize;
        // Step 0 is the fresh machine; each subsequent step delivers one
        // chunk.  The checks after every step make truncation a free
        // byproduct: stopping the stream here must leave a sane machine.
        for step in 0..=schedule.len() {
            if step > 0 {
                let chunk = schedule[step - 1];
                m.push(&bytes[offset..offset + chunk]);
                offset += chunk;
            }
            let (outputs, error) = m.drain();
            outcome.outputs.extend(outputs);
            if let Some(e) = error {
                outcome.error = Some(e);
                return Ok(outcome);
            }
            if !m.finished() {
                if m.buffered() > target.cap {
                    return Err(Violation {
                        check: "bounded-buffer",
                        severity: Severity::Error,
                        detail: format!(
                            "step {step}: {} bytes retained exceeds cap {}",
                            m.buffered(),
                            target.cap
                        ),
                    });
                }
                if m.bytes_needed() == 0 {
                    return Err(Violation {
                        check: "progress",
                        severity: Severity::Error,
                        detail: format!(
                            "step {step}: bytes_needed()==0 with no output, no error, not finished"
                        ),
                    });
                }
            }
        }
        Ok(outcome)
    };
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(result) => result,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(Violation { check: "no-panic", severity: Severity::Error, detail: msg })
        }
    }
}

/// Every chunking schedule for a stream of `len` bytes, within bounds.
fn schedules(len: usize, cfg: &ExplorerConfig) -> Vec<Vec<usize>> {
    if len == 0 {
        return vec![Vec::new()];
    }
    if len <= cfg.exhaustive_len {
        // Each bit of `mask` is a cut point between byte i and i+1.
        let mut out = Vec::with_capacity(1 << (len - 1));
        for mask in 0u64..(1u64 << (len - 1)) {
            let mut chunks = Vec::new();
            let mut run = 1usize;
            for bit in 0..len - 1 {
                if mask & (1 << bit) != 0 {
                    chunks.push(run);
                    run = 1;
                } else {
                    run += 1;
                }
            }
            chunks.push(run);
            out.push(chunks);
        }
        return out;
    }
    // Reduced set: whole, byte-at-a-time, every 2-chunk split, every
    // 3-chunk split.
    let mut out = vec![vec![len], vec![1; len]];
    for cut in 1..len {
        out.push(vec![cut, len - cut]);
    }
    for a in 1..len - 1 {
        for b in a + 1..len {
            out.push(vec![a, b - a, len - b]);
        }
    }
    out
}

/// Explore one target, appending diagnostics and counters to `report`.
pub fn explore_target(target: &Target, cfg: &ExplorerConfig, report: &mut ProtoReport) {
    report.machines_checked += 1;
    for scenario in &target.scenarios {
        let context = |sched: &str| format!("{}::{} {}", target.name, scenario.label, sched);
        let whole: Vec<usize> =
            if scenario.bytes.is_empty() { Vec::new() } else { vec![scenario.bytes.len()] };
        report.schedules_run += 1;
        let reference = match run_schedule(target, &scenario.bytes, &whole) {
            Ok(outcome) => outcome,
            Err(violation) => {
                report.push(Stage::SansIo, target.name, context("[whole]"), violation);
                continue;
            }
        };
        if let Some(expect) = &scenario.expect {
            if expect.outputs != reference.outputs || expect.error != reference.error.is_some() {
                report.push(
                    Stage::SansIo,
                    target.name,
                    context("[whole]"),
                    Violation {
                        check: "expected-outcome",
                        severity: Severity::Error,
                        detail: format!(
                            "expected outputs {:?} (error: {}), got {:?} (error: {:?})",
                            expect.outputs, expect.error, reference.outputs, reference.error
                        ),
                    },
                );
                continue;
            }
        }
        let mut caught = false;
        for schedule in schedules(scenario.bytes.len(), cfg) {
            report.schedules_run += 1;
            match run_schedule(target, &scenario.bytes, &schedule) {
                Err(violation) => {
                    report.push(
                        Stage::SansIo,
                        target.name,
                        context(&format!("{schedule:?}")),
                        violation,
                    );
                    caught = true;
                }
                Ok(outcome) if outcome != reference => {
                    report.push(
                        Stage::SansIo,
                        target.name,
                        context(&format!("{schedule:?}")),
                        Violation {
                            check: "split-invariance",
                            severity: Severity::Error,
                            detail: format!(
                                "whole-stream run produced {:?} (error: {:?}) but this schedule produced {:?} (error: {:?})",
                                reference.outputs,
                                reference.error,
                                outcome.outputs,
                                outcome.error
                            ),
                        },
                    );
                    caught = true;
                }
                Ok(_) => {}
            }
            // One diagnostic per scenario keeps a broken machine from
            // flooding the report with thousands of failing schedules.
            if caught {
                break;
            }
        }
    }
}

/// Explore every production protocol core.
pub fn check_protocols(cfg: &ExplorerConfig) -> ProtoReport {
    let mut report = ProtoReport::default();
    for target in builtin_targets() {
        explore_target(&target, cfg, &mut report);
    }
    report
}

/// Outcome of exploring one deliberately broken parser variant.
#[derive(Debug, Clone)]
pub struct MutantOutcome {
    /// Mutant name.
    pub name: &'static str,
    /// The explorer rejected it (required for the corpus to pass).
    pub caught: bool,
    /// Error diagnostics recorded against it.
    pub diagnostics: usize,
}

/// Explore the mutation corpus.  Every mutant must be caught; the
/// returned report carries the diagnostics that caught them.
pub fn check_mutants(cfg: &ExplorerConfig) -> (ProtoReport, Vec<MutantOutcome>) {
    let mut report = ProtoReport::default();
    let mut outcomes = Vec::new();
    for target in mutants::mutant_targets() {
        let before = report.error_count();
        explore_target(&target, cfg, &mut report);
        let diagnostics = report.error_count() - before;
        outcomes.push(MutantOutcome { name: target.name, caught: diagnostics > 0, diagnostics });
    }
    (report, outcomes)
}

// --------------------------------------------------- model parameters

/// Frame cap used by framer models (small, so oversized-length and
/// max-size scenarios fit in exhaustively explorable streams).
const MODEL_MAX_FRAME: usize = 8;
/// Head cap used by the request-parser model.
const MODEL_MAX_HEAD: usize = 32;
/// Frame cap used by the handshake models (a minimal `SUBSCRIBE`
/// payload is 9 bytes).
const MODEL_HS_MAX_FRAME: usize = 16;

// ------------------------------------------------------- real adapters

struct FramerMachine(LengthFramer);

impl Machine for FramerMachine {
    fn push(&mut self, bytes: &[u8]) {
        self.0.push(bytes);
    }
    fn drain(&mut self) -> (Vec<String>, Option<String>) {
        let mut out = Vec::new();
        loop {
            match self.0.next_frame() {
                Ok(Some((kind, payload))) => out.push(fmt_frame(kind, &payload)),
                Ok(None) => return (out, None),
                Err(e) => return (out, Some(e.to_string())),
            }
        }
    }
    fn buffered(&self) -> usize {
        self.0.buffered()
    }
    fn bytes_needed(&self) -> usize {
        self.0.bytes_needed()
    }
}

struct RequestMachine(RequestParser);

impl Machine for RequestMachine {
    fn push(&mut self, bytes: &[u8]) {
        self.0.push(bytes);
    }
    fn drain(&mut self) -> (Vec<String>, Option<String>) {
        let mut out = Vec::new();
        loop {
            match self.0.next_request() {
                Ok(Some(req)) => out.push(fmt_request(&req)),
                Ok(None) => return (out, None),
                Err(e) => return (out, Some(e.to_string())),
            }
        }
    }
    fn buffered(&self) -> usize {
        self.0.buffered()
    }
    fn bytes_needed(&self) -> usize {
        // An HTTP head has no length prefix; the parser can never know
        // how far the terminator is, only that it needs *something*.
        1
    }
}

/// One end of a connection handshake: the connection's kind-byte
/// [`LengthFramer`] plus the production decode for its one frame.  It
/// finishes after that frame; retained bytes belong to the next stage
/// (e.g. delivery frames behind `SUB_OK`), exactly as in the blocking
/// handshakes, which read one frame and hand the framer on.
struct FirstFrameMachine {
    framer: LengthFramer,
    decode: fn(u8, &[u8]) -> Result<String, String>,
    done: bool,
}

impl Machine for FirstFrameMachine {
    fn push(&mut self, bytes: &[u8]) {
        self.framer.push(bytes);
    }
    fn drain(&mut self) -> (Vec<String>, Option<String>) {
        if self.done {
            return (Vec::new(), None);
        }
        match self.framer.next_frame() {
            Ok(None) => (Vec::new(), None),
            Ok(Some((kind, payload))) => {
                self.done = true;
                match (self.decode)(kind, &payload) {
                    Ok(message) => (vec![message], None),
                    Err(e) => (Vec::new(), Some(e)),
                }
            }
            Err(e) => (Vec::new(), Some(e.to_string())),
        }
    }
    fn buffered(&self) -> usize {
        self.framer.buffered()
    }
    fn bytes_needed(&self) -> usize {
        if self.done {
            0
        } else {
            self.framer.bytes_needed()
        }
    }
    fn finished(&self) -> bool {
        self.done
    }
}

/// A handshake target: `decode` applied to the first frame of a framer
/// capped at `max_frame`.
fn first_frame_target(
    name: &'static str,
    max_frame: usize,
    decode: fn(u8, &[u8]) -> Result<String, String>,
    scenarios: Vec<Scenario>,
) -> Target {
    Target {
        name,
        cap: 5 + max_frame,
        make: Box::new(move || {
            Box::new(FirstFrameMachine {
                framer: LengthFramer::with_kind_byte(max_frame),
                decode,
                done: false,
            })
        }),
        scenarios,
    }
}

/// The receiver meets `HELLO` inside its frame loop, so there is no
/// production first-frame function; the kind check stands in for the
/// loop's dispatch.
fn decode_hello(kind: u8, payload: &[u8]) -> Result<String, String> {
    if kind != FRAME_HELLO {
        return Err(format!("expected HELLO frame, got kind {kind}"));
    }
    Hello::decode(payload).map(|hello| fmt_hello(&hello)).map_err(|e| e.to_string())
}

// ------------------------------------------------ canonical formatting

fn fmt_frame(kind: u8, payload: &[u8]) -> String {
    format!("frame(kind={kind}, payload={payload:02x?})")
}

fn fmt_request(req: &Request) -> String {
    format!(
        "req({} {} inm={:?} close={})",
        req.method, req.path, req.if_none_match, req.close_requested
    )
}

fn fmt_subscribe(req: &SubscribeRequest) -> String {
    format!("subscribe({req:?})")
}

fn fmt_reply(reply: &HandshakeReply) -> String {
    format!("reply({reply:?})")
}

fn fmt_hello(hello: &Hello) -> String {
    // Content ids are a complete canonical summary (the id commits to
    // every byte of the descriptor).
    let ids: Vec<u64> = hello.offers.iter().map(|o| o.id.0).collect();
    format!("hello(ids={ids:?})")
}

fn fmt_negotiate_reply(reply: &NegotiateReply) -> String {
    format!("negotiate({reply:?})")
}

// ------------------------------------------------- scenario builders

fn frame4(payload: &[u8]) -> Vec<u8> {
    let mut v = (payload.len() as u32).to_be_bytes().to_vec();
    v.extend_from_slice(payload);
    v
}

fn frame5(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut v = (payload.len() as u32).to_be_bytes().to_vec();
    v.push(kind);
    v.extend_from_slice(payload);
    v
}

fn sc(label: &'static str, bytes: Vec<u8>, expect: Option<Expectation>) -> Scenario {
    Scenario { label, bytes, expect }
}

fn ok(outputs: Vec<String>) -> Option<Expectation> {
    Some(Expectation { outputs, error: false })
}

fn err_after(outputs: Vec<String>) -> Option<Expectation> {
    Some(Expectation { outputs, error: true })
}

fn plain_framer_scenarios() -> Vec<Scenario> {
    let mut oversized_tail = frame4(b"zz");
    oversized_tail[..4].copy_from_slice(&200u32.to_be_bytes());
    oversized_tail.extend_from_slice(&[0xAA; 18]);
    vec![
        sc("empty", Vec::new(), ok(vec![])),
        sc("one-frame", frame4(b"ab"), ok(vec![fmt_frame(0, b"ab")])),
        sc("empty-payload", frame4(b""), ok(vec![fmt_frame(0, b"")])),
        sc(
            "two-frames",
            [frame4(b"ab"), frame4(b"cd")].concat(),
            ok(vec![fmt_frame(0, b"ab"), fmt_frame(0, b"cd")]),
        ),
        sc("max-size-frame", frame4(b"12345678"), ok(vec![fmt_frame(0, b"12345678")])),
        sc("truncated-payload", frame4(b"abcd")[..6].to_vec(), ok(vec![])),
        sc("partial-header", vec![0, 0], ok(vec![])),
        sc("oversized-header", 9u32.to_be_bytes().to_vec(), err_after(vec![])),
        sc("huge-header", u32::MAX.to_be_bytes().to_vec(), err_after(vec![])),
        sc(
            "frame-then-oversized",
            [frame4(b"a"), 64u32.to_be_bytes().to_vec()].concat(),
            err_after(vec![fmt_frame(0, b"a")]),
        ),
        sc("oversized-with-tail", oversized_tail, err_after(vec![])),
    ]
}

fn kind_framer_scenarios() -> Vec<Scenario> {
    vec![
        sc("one-frame", frame5(7, b"ab"), ok(vec![fmt_frame(7, b"ab")])),
        sc("empty-payload-kind-255", frame5(255, b""), ok(vec![fmt_frame(255, b"")])),
        sc(
            "two-frames",
            [frame5(1, b"a"), frame5(2, b"b")].concat(),
            ok(vec![fmt_frame(1, b"a"), fmt_frame(2, b"b")]),
        ),
        sc("max-size-frame", frame5(3, b"12345678"), ok(vec![fmt_frame(3, b"12345678")])),
        sc("truncated-at-kind", frame5(9, b"x")[..4].to_vec(), ok(vec![])),
        sc("truncated-payload", frame5(9, b"abcd")[..7].to_vec(), ok(vec![])),
        sc("oversized-header", frame5(1, b"")[..5].to_vec().tap_set_len(9), err_after(vec![])),
    ]
}

fn request_parser_scenarios() -> Vec<Scenario> {
    let req = |method: &str, path: &str, inm: Option<&str>, close: bool| {
        fmt_request(&Request {
            method: method.to_string(),
            path: path.to_string(),
            if_none_match: inm.map(str::to_string),
            close_requested: close,
        })
    };
    vec![
        sc("simple-get", b"GET /a\n\n".to_vec(), ok(vec![req("GET", "/a", None, false)])),
        sc("crlf-get", b"GET /a\r\n\r\n".to_vec(), ok(vec![req("GET", "/a", None, false)])),
        sc("method-only", b"GET\n\n".to_vec(), ok(vec![req("GET", "/", None, false)])),
        sc(
            "connection-close",
            b"GET /a\nConnection: close\n\n".to_vec(),
            ok(vec![req("GET", "/a", None, true)]),
        ),
        sc(
            "if-none-match",
            b"GET /a\nIf-None-Match: \"x\"\n\n".to_vec(),
            ok(vec![req("GET", "/a", Some("\"x\""), false)]),
        ),
        sc(
            "pipelined",
            b"GET /a\n\nGET /b\n\n".to_vec(),
            ok(vec![req("GET", "/a", None, false), req("GET", "/b", None, false)]),
        ),
        sc("partial-head", b"GET /a".to_vec(), ok(vec![])),
        sc("blank-request-line", b"\nGET /a\n\n".to_vec(), err_after(vec![])),
        sc("whitespace-request-line", b" \t\n".to_vec(), err_after(vec![])),
        sc("unterminated-overflow", vec![b'a'; MODEL_MAX_HEAD + 8], err_after(vec![])),
        sc(
            "oversized-complete-head",
            [b"GET /".as_slice(), &[b'a'; MODEL_MAX_HEAD], b"\n\n"].concat(),
            err_after(vec![]),
        ),
    ]
}

fn subscribe_bytes(channel: u64) -> (Vec<u8>, String) {
    let req = SubscribeRequest { channel: FormatId(channel), projection: None, version: None };
    (req.encode(), fmt_subscribe(&req))
}

fn handshake_server_scenarios() -> Vec<Scenario> {
    let (payload, display) = subscribe_bytes(5);
    let frame = frame5(FRAME_SUBSCRIBE, &payload);
    let mut bad_flag = payload.clone();
    bad_flag[8] = 2;
    vec![
        sc("empty", Vec::new(), ok(vec![])),
        sc("subscribe", frame.clone(), ok(vec![display.clone()])),
        sc(
            // The host reads one frame and never reads the seat again:
            // the trailing byte stays buffered for the next stage.
            "subscribe-then-trailing",
            [frame.clone(), vec![0xFF]].concat(),
            ok(vec![display.clone()]),
        ),
        sc("wrong-kind", frame5(FRAME_RECORD, b"x"), err_after(vec![])),
        sc("truncated-frame", frame[..7].to_vec(), ok(vec![])),
        sc("truncated-request-payload", frame5(FRAME_SUBSCRIBE, &payload[..5]), err_after(vec![])),
        sc("bad-projection-flag", frame5(FRAME_SUBSCRIBE, &bad_flag), err_after(vec![])),
        sc(
            "oversized-header",
            frame5(FRAME_SUBSCRIBE, b"")[..5].to_vec().tap_set_len(17),
            err_after(vec![]),
        ),
    ]
}

fn handshake_client_scenarios() -> Vec<Scenario> {
    let accepted = fmt_reply(&HandshakeReply::Accepted(FormatId(7)));
    let rejected = fmt_reply(&HandshakeReply::Rejected("nope".to_string()));
    let sub_ok = frame5(FRAME_SUB_OK, &7u64.to_be_bytes());
    vec![
        sc("empty", Vec::new(), ok(vec![])),
        sc("sub-ok", sub_ok.clone(), ok(vec![accepted.clone()])),
        sc(
            "sub-ok-then-delivery-bytes",
            [sub_ok.clone(), frame5(1, b"desc")[..7].to_vec()].concat(),
            ok(vec![accepted.clone()]),
        ),
        sc("sub-err", frame5(FRAME_SUB_ERR, b"nope"), ok(vec![rejected])),
        sc("short-sub-ok", frame5(FRAME_SUB_OK, b"abc"), err_after(vec![])),
        sc("wrong-kind", frame5(FRAME_RECORD, b"x"), err_after(vec![])),
        sc("truncated", sub_ok[..6].to_vec(), ok(vec![])),
        sc(
            "oversized-header",
            frame5(FRAME_SUB_OK, b"")[..5].to_vec().tap_set_len(17),
            err_after(vec![]),
        ),
    ]
}

/// A minimal real descriptor for negotiation scenarios — deterministic
/// (explicit machine model), so the model-checker streams are stable.
fn model_hello() -> Hello {
    let reg = FormatRegistry::new(PbioMachine::X86_64);
    let desc = reg
        .register(FormatSpec::new("T", vec![IOField::auto("x", "integer", 4)]))
        .expect("model format registers");
    Hello::from_formats(&[&desc])
}

fn negotiate_responder_scenarios() -> Vec<Scenario> {
    let hello = model_hello();
    let payload = hello.encode();
    let display = fmt_hello(&hello);
    let frame = frame5(FRAME_HELLO, &payload);
    // Corrupt the offered id: decode cross-checks it against the
    // descriptor's recomputed content id.
    let mut lying_id = payload.clone();
    lying_id[5] ^= 1;
    vec![
        sc("empty", Vec::new(), ok(vec![])),
        sc("hello", frame.clone(), ok(vec![display.clone()])),
        sc(
            // Bytes behind HELLO are legal: a pipelining sender
            // pushes RECORD frames without waiting.
            "hello-then-delivery-bytes",
            [frame.clone(), frame5(FRAME_RECORD, b"x")[..6].to_vec()].concat(),
            ok(vec![display.clone()]),
        ),
        sc("wrong-kind", frame5(FRAME_RECORD, b"x"), err_after(vec![])),
        sc("truncated-frame", frame[..9].to_vec(), ok(vec![])),
        sc("lying-offer-id", frame5(FRAME_HELLO, &lying_id), err_after(vec![])),
        sc("truncated-offer", frame5(FRAME_HELLO, &payload[..7]), err_after(vec![])),
        sc(
            "oversized-header",
            frame5(FRAME_HELLO, b"")[..5].to_vec().tap_set_len(1 << 30),
            err_after(vec![]),
        ),
    ]
}

fn model_accept() -> Accept {
    Accept {
        entries: vec![AcceptEntry {
            sender: FormatId(0x1122_3344_5566_7788),
            verdict: PairVerdict::Projectable,
            receiver: FormatId(0x99AA_BBCC_DDEE_FF00),
        }],
    }
}

fn negotiate_initiator_scenarios() -> Vec<Scenario> {
    let accept = model_accept();
    let payload = accept.encode();
    let accepted = fmt_negotiate_reply(&NegotiateReply::Accepted(accept));
    let rejected = fmt_negotiate_reply(&NegotiateReply::Rejected("nope".to_string()));
    let frame = frame5(FRAME_ACCEPT, &payload);
    let mut bad_verdict = payload.clone();
    bad_verdict[10] = 9;
    vec![
        sc("empty", Vec::new(), ok(vec![])),
        sc("accept", frame.clone(), ok(vec![accepted.clone()])),
        sc(
            "accept-then-trailing-bytes",
            [frame.clone(), frame5(FRAME_RECORD, b"x")[..6].to_vec()].concat(),
            ok(vec![accepted.clone()]),
        ),
        sc("reject", frame5(FRAME_REJECT, b"nope"), ok(vec![rejected])),
        sc("wrong-kind", frame5(FRAME_RECORD, b"x"), err_after(vec![])),
        sc("truncated", frame[..9].to_vec(), ok(vec![])),
        sc("bad-verdict-byte", frame5(FRAME_ACCEPT, &bad_verdict), err_after(vec![])),
        sc("truncated-entries", frame5(FRAME_ACCEPT, &payload[..10]), err_after(vec![])),
        sc(
            "oversized-header",
            frame5(FRAME_ACCEPT, b"")[..5].to_vec().tap_set_len(1 << 30),
            err_after(vec![]),
        ),
    ]
}

/// Rewrite the length prefix of a header-only frame (test helper for
/// "lying header" scenarios).
trait TapSetLen {
    fn tap_set_len(self, len: u32) -> Vec<u8>;
}

impl TapSetLen for Vec<u8> {
    fn tap_set_len(mut self, len: u32) -> Vec<u8> {
        self[..4].copy_from_slice(&len.to_be_bytes());
        self
    }
}

/// The production protocol cores, each with its scenario corpus.
pub fn builtin_targets() -> Vec<Target> {
    vec![
        Target {
            name: "net::LengthFramer",
            cap: 4 + MODEL_MAX_FRAME,
            make: Box::new(|| Box::new(FramerMachine(LengthFramer::new(MODEL_MAX_FRAME)))),
            scenarios: plain_framer_scenarios(),
        },
        Target {
            name: "net::LengthFramer(kind)",
            cap: 5 + MODEL_MAX_FRAME,
            make: Box::new(|| {
                Box::new(FramerMachine(LengthFramer::with_kind_byte(MODEL_MAX_FRAME)))
            }),
            scenarios: kind_framer_scenarios(),
        },
        Target {
            name: "ohttp::RequestParser",
            cap: MODEL_MAX_HEAD,
            make: Box::new(|| {
                Box::new(RequestMachine(RequestParser::with_max_head(MODEL_MAX_HEAD)))
            }),
            scenarios: request_parser_scenarios(),
        },
        first_frame_target(
            "echo::subscribe_from_frame",
            MODEL_HS_MAX_FRAME,
            |kind, payload| {
                let req = subscribe_from_frame(kind, payload).map_err(|e| e.to_string())?;
                Ok(fmt_subscribe(&req))
            },
            handshake_server_scenarios(),
        ),
        first_frame_target(
            "echo::reply_from_frame",
            MODEL_HS_MAX_FRAME,
            |kind, payload| {
                let reply = reply_from_frame(kind, payload).map_err(|e| e.to_string())?;
                Ok(fmt_reply(&reply))
            },
            handshake_client_scenarios(),
        ),
        // The valid HELLO and ACCEPT carry real encoded payloads, so the
        // model caps are sized from the actual streams.
        first_frame_target(
            "xmit::Hello::decode",
            model_hello().encode().len(),
            decode_hello,
            negotiate_responder_scenarios(),
        ),
        first_frame_target(
            "xmit::reply_from_frame",
            model_accept().encode().len(),
            |kind, payload| {
                let reply = negotiate_reply_from_frame(kind, payload).map_err(|e| e.to_string())?;
                Ok(fmt_negotiate_reply(&reply))
            },
            negotiate_initiator_scenarios(),
        ),
    ]
}

/// Deliberately broken parser variants the explorer must reject — the
/// engine's own regression corpus, mirroring classic framing bugs.
pub mod mutants {
    use super::*;

    /// Big-endian length prefix of a buffered mutant frame (the caller
    /// has already checked `buf.len() >= 4`).
    fn peek_len(buf: &[u8]) -> usize {
        u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize
    }

    /// Waits for one byte more than the frame it emits (off-by-one in
    /// the completeness test): with exactly one complete frame buffered
    /// it reports `bytes_needed() == 0` yet emits nothing — a stuck
    /// state the progress invariant must flag.
    #[derive(Default)]
    struct OffByOneNeed {
        buf: Vec<u8>,
    }

    impl Machine for OffByOneNeed {
        fn push(&mut self, bytes: &[u8]) {
            self.buf.extend_from_slice(bytes);
        }
        fn drain(&mut self) -> (Vec<String>, Option<String>) {
            let mut out = Vec::new();
            loop {
                if self.buf.len() < 4 {
                    return (out, None);
                }
                let len = peek_len(&self.buf);
                if len > MODEL_MAX_FRAME {
                    return (out, Some(format!("frame of {len} bytes exceeds limit")));
                }
                if self.buf.len() < 4 + len + 1 {
                    return (out, None);
                }
                out.push(fmt_frame(0, &self.buf[4..4 + len]));
                self.buf.drain(..4 + len);
            }
        }
        fn buffered(&self) -> usize {
            self.buf.len()
        }
        fn bytes_needed(&self) -> usize {
            if self.buf.len() < 4 {
                return 4 - self.buf.len();
            }
            let len = peek_len(&self.buf);
            (4 + len).saturating_sub(self.buf.len())
        }
    }

    /// Emits one byte too few of each payload and leaves the last
    /// payload byte in the buffer, desynchronizing every subsequent
    /// frame — caught against the scenario expectations.
    #[derive(Default)]
    struct ShortRead {
        buf: Vec<u8>,
    }

    impl Machine for ShortRead {
        fn push(&mut self, bytes: &[u8]) {
            self.buf.extend_from_slice(bytes);
        }
        fn drain(&mut self) -> (Vec<String>, Option<String>) {
            let mut out = Vec::new();
            loop {
                if self.buf.len() < 4 {
                    return (out, None);
                }
                let len = peek_len(&self.buf);
                if len > MODEL_MAX_FRAME {
                    return (out, Some(format!("frame of {len} bytes exceeds limit")));
                }
                if self.buf.len() < 4 + len {
                    return (out, None);
                }
                let emitted = len.saturating_sub(1);
                out.push(fmt_frame(0, &self.buf[4..4 + emitted]));
                self.buf.drain(..4 + emitted);
            }
        }
        fn buffered(&self) -> usize {
            self.buf.len()
        }
        fn bytes_needed(&self) -> usize {
            if self.buf.len() < 4 {
                return 4 - self.buf.len();
            }
            let len = peek_len(&self.buf);
            (4 + len).saturating_sub(self.buf.len()).max(1)
        }
    }

    /// Accepts any length prefix and accumulates forever — the missing
    /// `max_frame` check.  Caught by the bounded-buffer invariant (and
    /// by the scenarios that expect an oversized-header error).
    #[derive(Default)]
    struct Unbounded {
        buf: Vec<u8>,
    }

    impl Machine for Unbounded {
        fn push(&mut self, bytes: &[u8]) {
            self.buf.extend_from_slice(bytes);
        }
        fn drain(&mut self) -> (Vec<String>, Option<String>) {
            let mut out = Vec::new();
            loop {
                if self.buf.len() < 4 {
                    return (out, None);
                }
                let len = peek_len(&self.buf);
                if self.buf.len() < 4 + len {
                    return (out, None);
                }
                out.push(fmt_frame(0, &self.buf[4..4 + len]));
                self.buf.drain(..4 + len);
            }
        }
        fn buffered(&self) -> usize {
            self.buf.len()
        }
        fn bytes_needed(&self) -> usize {
            if self.buf.len() < 4 {
                return 4 - self.buf.len();
            }
            let len = peek_len(&self.buf);
            (4 + len).saturating_sub(self.buf.len()).max(1)
        }
    }

    /// Scans for the `\n\n` head terminator only inside the chunk just
    /// pushed (the classic "works on my netcat" parser): a terminator
    /// split across reads is never seen.  Caught by split-invariance —
    /// the whole-stream run emits a head, byte-at-a-time never does.
    #[derive(Default)]
    struct ChunkLocalScan {
        buf: Vec<u8>,
        ready: Vec<String>,
    }

    impl Machine for ChunkLocalScan {
        fn push(&mut self, bytes: &[u8]) {
            let base = self.buf.len();
            self.buf.extend_from_slice(bytes);
            if let Some(idx) = bytes.windows(2).position(|w| w == b"\n\n") {
                let end = base + idx + 2;
                let head = String::from_utf8_lossy(&self.buf[..end]).into_owned();
                self.ready.push(format!("head({head:?})"));
                self.buf.drain(..end);
            }
        }
        fn drain(&mut self) -> (Vec<String>, Option<String>) {
            (std::mem::take(&mut self.ready), None)
        }
        fn buffered(&self) -> usize {
            self.buf.len()
        }
        fn bytes_needed(&self) -> usize {
            1
        }
    }

    /// Reassembles `ACCEPT` frames correctly but reads the sender's
    /// content id from the *most recently pushed chunk* at the frame's
    /// absolute offset — right only when the whole frame arrives in one
    /// read.  The whole-stream reference run emits the true id; split
    /// schedules emit a zero or misaligned id, so split-invariance must
    /// flag it.
    #[derive(Default)]
    struct ChunkLocalIdScan {
        buf: Vec<u8>,
        last_chunk: Vec<u8>,
        done: bool,
    }

    impl Machine for ChunkLocalIdScan {
        fn push(&mut self, bytes: &[u8]) {
            self.buf.extend_from_slice(bytes);
            self.last_chunk = bytes.to_vec();
        }
        fn drain(&mut self) -> (Vec<String>, Option<String>) {
            if self.done || self.buf.len() < 5 {
                return (Vec::new(), None);
            }
            let len = peek_len(&self.buf);
            if 5 + len > 5 + model_accept().encode().len() {
                return (Vec::new(), Some(format!("frame of {len} bytes exceeds limit")));
            }
            if self.buf.len() < 5 + len {
                return (Vec::new(), None);
            }
            self.done = true;
            let kind = self.buf[4];
            if kind != FRAME_ACCEPT {
                return (Vec::new(), Some(format!("unexpected frame kind {kind}")));
            }
            match Accept::decode(&self.buf[5..5 + len]) {
                Ok(mut accept) => {
                    // BUG: the id comes from the last chunk, not the
                    // reassembled frame.
                    let sender = if self.last_chunk.len() >= 15 {
                        u64::from_be_bytes(self.last_chunk[7..15].try_into().expect("8-byte slice"))
                    } else {
                        0
                    };
                    if let Some(e) = accept.entries.first_mut() {
                        e.sender = FormatId(sender);
                    }
                    (vec![fmt_negotiate_reply(&NegotiateReply::Accepted(accept))], None)
                }
                Err(e) => (Vec::new(), Some(e.to_string())),
            }
        }
        fn buffered(&self) -> usize {
            self.buf.len()
        }
        fn bytes_needed(&self) -> usize {
            if self.done {
                return 0;
            }
            if self.buf.len() < 5 {
                return 5 - self.buf.len();
            }
            (5 + peek_len(&self.buf)).saturating_sub(self.buf.len()).max(1)
        }
        fn finished(&self) -> bool {
            self.done
        }
    }

    /// The mutation corpus: every target here must produce at least one
    /// error diagnostic under [`check_mutants`].
    pub fn mutant_targets() -> Vec<Target> {
        vec![
            Target {
                name: "mutant::off-by-one-need",
                cap: 4 + MODEL_MAX_FRAME,
                make: Box::new(|| Box::<OffByOneNeed>::default()),
                scenarios: plain_framer_scenarios(),
            },
            Target {
                name: "mutant::short-read",
                cap: 4 + MODEL_MAX_FRAME,
                make: Box::new(|| Box::<ShortRead>::default()),
                scenarios: plain_framer_scenarios(),
            },
            Target {
                name: "mutant::unbounded-buffer",
                cap: 4 + MODEL_MAX_FRAME,
                make: Box::new(|| Box::<Unbounded>::default()),
                scenarios: plain_framer_scenarios(),
            },
            Target {
                name: "mutant::chunk-local-scan",
                cap: MODEL_MAX_HEAD,
                make: Box::new(|| Box::<ChunkLocalScan>::default()),
                scenarios: vec![Scenario {
                    label: "simple-get",
                    bytes: b"GET /a\n\n".to_vec(),
                    expect: None,
                }],
            },
            Target {
                name: "mutant::chunk-local-id-scan",
                cap: 5 + model_accept().encode().len(),
                make: Box::new(|| Box::<ChunkLocalIdScan>::default()),
                scenarios: vec![sc(
                    "accept",
                    frame5(FRAME_ACCEPT, &model_accept().encode()),
                    ok(vec![fmt_negotiate_reply(&NegotiateReply::Accepted(model_accept()))]),
                )],
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_exhaustive_for_short_streams() {
        let cfg = ExplorerConfig::default();
        let all = schedules(4, &cfg);
        assert_eq!(all.len(), 8, "2^(4-1) chunkings");
        for s in &all {
            assert_eq!(s.iter().sum::<usize>(), 4);
        }
        assert!(all.contains(&vec![4]));
        assert!(all.contains(&vec![1, 1, 1, 1]));
        assert!(all.contains(&vec![2, 2]));
    }

    #[test]
    fn schedules_reduce_for_long_streams() {
        let cfg = ExplorerConfig::default();
        let all = schedules(20, &cfg);
        assert!(all.len() < 1 << 19);
        assert!(all.contains(&vec![20]));
        assert!(all.contains(&vec![1; 20]));
        assert!(all.contains(&vec![7, 13]));
        assert!(all.contains(&vec![3, 9, 8]));
        for s in &all {
            assert_eq!(s.iter().sum::<usize>(), 20);
        }
    }

    #[test]
    fn production_protocol_cores_pass_exhaustive_exploration() {
        let report = check_protocols(&ExplorerConfig::default());
        assert!(
            report.passed(),
            "production cores must explore clean:\n{}",
            report.diagnostics.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
        );
        assert_eq!(report.machines_checked, 7);
        assert!(report.schedules_run > 1000, "ran {} schedules", report.schedules_run);
    }

    #[test]
    fn every_mutant_is_caught() {
        let (report, outcomes) = check_mutants(&ExplorerConfig::default());
        assert_eq!(outcomes.len(), 5);
        for outcome in &outcomes {
            assert!(outcome.caught, "mutant {} escaped the explorer", outcome.name);
        }
        assert!(!report.passed());
    }

    #[test]
    fn mutants_are_caught_by_the_expected_invariant() {
        let (report, _) = check_mutants(&ExplorerConfig::default());
        let checks_for = |name: &str| -> Vec<&'static str> {
            report
                .diagnostics
                .iter()
                .filter(|d| d.subject == name)
                .map(|d| d.violation.check)
                .collect()
        };
        assert!(
            checks_for("mutant::off-by-one-need").contains(&"progress"),
            "off-by-one completeness test must surface as a stuck state"
        );
        assert!(
            checks_for("mutant::unbounded-buffer").contains(&"bounded-buffer"),
            "missing frame cap must surface as unbounded retention"
        );
        assert!(
            checks_for("mutant::chunk-local-scan").contains(&"split-invariance"),
            "chunk-local terminator scan must surface as split sensitivity"
        );
        assert!(
            checks_for("mutant::chunk-local-id-scan").contains(&"split-invariance"),
            "chunk-local sender-id scan must surface as split sensitivity"
        );
        assert!(!checks_for("mutant::short-read").is_empty());
    }
}
