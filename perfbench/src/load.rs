//! Load generation and the label oracle.
//!
//! The open loop uses two threads: a generator that sends on a seeded
//! Poisson schedule and a collector that waits on the tickets in send
//! order. Latency runs from a request's due time to labels in hand, so
//! a stall also charges the requests queued behind it. The closed loop
//! keeps a fixed window of requests in flight from one thread.

use crate::gen::SplitMix64;
use crate::trace::Recorder;
use crate::workload::{RequestStream, CLIENTS, CLOSED_WINDOW};
use serve::{ClientId, ServeError, ServeHandle, ServingEngine, Ticket};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use tee::ClassLabel;

/// Which model the engine serves, as the deployer publishes it.
///
/// The word packs `changes << 8 | model << 1 | busy`: `busy` is set for
/// the whole of a `deploy` call and `changes` counts every start and
/// end of one. A request whose send and answer both saw the same word
/// with `busy` clear was answered entirely while that model was the
/// only one installed, so its labels must be that model's.
#[derive(Debug, Default)]
pub struct ModelState(AtomicU64);

impl ModelState {
    pub fn load(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    fn model(word: u64) -> usize {
        ((word >> 1) & 0x7f) as usize
    }

    /// Marks a deploy as started; the deployer is the only writer.
    fn begin(&self) {
        let word = self.load();
        self.0
            .store(((word >> 8) + 1) << 8 | (word & 0xfe) | 1, Ordering::SeqCst);
    }

    /// Marks the deploy as returned, with the model now installed.
    fn end(&self, model: usize) {
        let word = self.load();
        self.0.store(
            ((word >> 8) + 1) << 8 | (model as u64) << 1,
            Ordering::SeqCst,
        );
    }
}

/// Checks answered labels against each model's reference labels.
pub struct Oracle<'a> {
    pub references: Vec<&'a [ClassLabel]>,
    pub state: &'a ModelState,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Right,
    /// Right for a model that was not the one installed.
    Stale,
    Wrong,
}

impl Oracle<'_> {
    pub fn check(
        &self,
        nodes: &[usize],
        labels: &[ClassLabel],
        sent: u64,
        answered: u64,
    ) -> (Verdict, bool) {
        if labels.len() != nodes.len() {
            return (Verdict::Wrong, false);
        }
        let is_any =
            |node: usize, label: ClassLabel| self.references.iter().any(|r| r[node] == label);
        if !nodes.iter().zip(labels).all(|(&n, &l)| is_any(n, l)) {
            return (Verdict::Wrong, false);
        }
        let strict = sent == answered && sent & 1 == 0;
        if !strict {
            return (Verdict::Right, false);
        }
        let current = self.references[ModelState::model(sent)];
        if nodes.iter().zip(labels).all(|(&n, &l)| current[n] == l) {
            (Verdict::Right, true)
        } else {
            (Verdict::Stale, true)
        }
    }
}

/// What one phase sent and got back.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    pub wrong: u64,
    pub stale: u64,
    /// Answers checked against the installed model alone.
    pub strict: u64,
    /// Due-to-answer latency per open-loop request; `f64::INFINITY` for
    /// a failed one. Other phases keep none, so the benchmark's own
    /// memory does not grow with throughput.
    pub latency_ms: Vec<f64>,
    /// How late the generator sent each request.
    pub late_ms: Vec<f64>,
    pub first_error: Option<String>,
}

impl Tally {
    pub fn settle(
        &mut self,
        oracle: &Oracle,
        nodes: &[usize],
        result: Result<Vec<ClassLabel>, ServeError>,
        sent_word: u64,
        latency_ms: Option<f64>,
    ) {
        match result {
            Ok(labels) => {
                let (verdict, strict) =
                    oracle.check(nodes, &labels, sent_word, oracle.state.load());
                self.strict += u64::from(strict);
                match verdict {
                    Verdict::Right => self.ok += 1,
                    Verdict::Stale => self.stale += 1,
                    Verdict::Wrong => self.wrong += 1,
                }
                self.latency_ms.extend(latency_ms);
            }
            Err(e) => {
                self.failed += 1;
                self.latency_ms.extend(latency_ms.map(|_| f64::INFINITY));
                self.first_error.get_or_insert_with(|| e.to_string());
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.stale += other.stale;
        self.strict += other.strict;
        self.latency_ms.extend(other.latency_ms);
        self.late_ms.extend(other.late_ms);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    pub fn summary(&self, phase: &str) -> String {
        let late = crate::quantiles(&self.late_ms, &[0.5, 0.99, 1.0]);
        format!(
            "phase {phase}: sent {} succeeded {} failed {} wrong {} stale {} strict-checked {} | generator late p50 {:.3} ms p99 {:.3} ms max {:.3} ms{}",
            self.sent,
            self.ok,
            self.failed,
            self.wrong,
            self.stale,
            self.strict,
            late[0],
            late[1],
            late[2],
            self.first_error
                .as_ref()
                .map(|e| format!(" | first error: {e}"))
                .unwrap_or_default()
        )
    }
}

fn client(seq: u64) -> ClientId {
    ClientId(1 + seq % CLIENTS)
}

struct Sent {
    seq: u64,
    span: u64,
    nodes: Vec<usize>,
    due: Instant,
    returned: Instant,
    word: u64,
    ticket: Result<Ticket, ServeError>,
}

/// Submits one request, recording the `serve.submit` span under a
/// reserved request span.
fn submit(
    handle: &ServeHandle,
    rec: &mut Recorder,
    seq: u64,
    nodes: Vec<usize>,
    due: Instant,
    state: &ModelState,
) -> Sent {
    let span = rec.reserve();
    let word = state.load();
    let start = Instant::now();
    let ticket = handle.submit_as(client(seq), nodes.clone());
    let returned = Instant::now();
    rec.record("serve.submit", seq, span, start, returned);
    Sent {
        seq,
        span,
        nodes,
        due,
        returned,
        word,
        ticket,
    }
}

/// Request span names, one per phase.
pub const OPEN: &str = "open.request";
const CLOSED: &str = "closed.request";

/// Waits for one request, recording `serve.wait` and the request span,
/// which is named after the phase. Only open-loop latencies are kept.
fn resolve(
    sent: Sent,
    phase: &'static str,
    rec: &mut Recorder,
    tally: &mut Tally,
    oracle: &Oracle,
) -> Instant {
    let (result, done) = match sent.ticket {
        Ok(ticket) => {
            let result = ticket.wait();
            (result, Instant::now())
        }
        Err(e) => (Err(e), sent.returned),
    };
    rec.record("serve.wait", sent.seq, sent.span, sent.returned, done);
    rec.record_as(sent.span, phase, sent.seq, sent.due, done);
    let latency = (phase == OPEN).then(|| done.duration_since(sent.due).as_secs_f64() * 1e3);
    tally.settle(oracle, &sent.nodes, result, sent.word, latency);
    done
}

/// Sends `schedule` (offsets in seconds, node lists) open loop and
/// collects every answer. The generator's spans join `rec`.
pub fn open_loop(
    handle: &ServeHandle,
    schedule: Vec<(f64, Vec<usize>)>,
    seq0: u64,
    oracle: &Oracle,
    rec: &mut Recorder,
) -> Tally {
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut tally = Tally::default();
    let start = Instant::now();
    let generator_rec = rec.fork();
    let state = oracle.state;
    std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut rec = generator_rec;
            let mut late = Vec::with_capacity(schedule.len());
            for (seq, (at, nodes)) in schedule.into_iter().enumerate() {
                let due = start + Duration::from_secs_f64(at);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                late.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
                let sent = submit(handle, &mut rec, seq0 + seq as u64, nodes, due, state);
                if tx.send(sent).is_err() {
                    break;
                }
            }
            (rec, late)
        });
        for sent in rx {
            tally.sent += 1;
            resolve(sent, OPEN, rec, &mut tally, oracle);
        }
        let (generator_rec, late) = generator
            .join()
            .expect("the generator thread does not panic");
        rec.absorb(generator_rec);
        tally.late_ms = late;
    });
    tally
}

/// The closed loop traces one request in this many: it answers up to
/// hundreds of thousands of requests a second, and the spans of every
/// one would cost more memory than the engine itself.
const CLOSED_TRACE_EVERY: u64 = 64;

fn sampled<'a>(seq: u64, rec: &'a mut Recorder, untraced: &'a mut Recorder) -> &'a mut Recorder {
    if seq.is_multiple_of(CLOSED_TRACE_EVERY) {
        rec
    } else {
        untraced
    }
}

/// Keeps [`CLOSED_WINDOW`] requests in flight for `duration`. Returns
/// the tally and the requests answered correctly within `duration`.
pub fn closed_loop(
    handle: &ServeHandle,
    stream: &mut RequestStream,
    rng: &mut SplitMix64,
    duration: Duration,
    seq0: u64,
    oracle: &Oracle,
    rec: &mut Recorder,
) -> (Tally, u64) {
    let mut tally = Tally::default();
    let mut untraced = Recorder::new(Instant::now(), false);
    let mut window = VecDeque::with_capacity(CLOSED_WINDOW);
    let mut seq = seq0;
    let start = Instant::now();
    let deadline = start + duration;
    let mut answered = 0;
    loop {
        while window.len() < CLOSED_WINDOW {
            let now = Instant::now();
            window.push_back(submit(
                handle,
                sampled(seq, rec, &mut untraced),
                seq,
                stream.next(rng),
                now,
                oracle.state,
            ));
            tally.sent += 1;
            seq += 1;
        }
        let oldest = window.pop_front().expect("the window is full");
        let seq_of = oldest.seq;
        let ok_before = tally.ok;
        let done = resolve(
            oldest,
            CLOSED,
            sampled(seq_of, rec, &mut untraced),
            &mut tally,
            oracle,
        );
        if done >= deadline {
            break;
        }
        answered += tally.ok - ok_before;
    }
    for sent in window {
        let seq = sent.seq;
        resolve(
            sent,
            CLOSED,
            sampled(seq, rec, &mut untraced),
            &mut tally,
            oracle,
        );
    }
    (tally, answered)
}

/// Alternates deploys of `snapshots` every `period` until `done` is set;
/// returns each deploy's wall time in milliseconds and the failures.
pub fn swap_loop(
    engine: &ServingEngine,
    snapshots: &[&gnnvault::VaultSnapshot],
    state: &ModelState,
    period: Duration,
    done: &AtomicBool,
    rec: &mut Recorder,
) -> (Vec<f64>, Vec<String>) {
    let mut times = Vec::new();
    let mut errors = Vec::new();
    let mut next = Instant::now() + period;
    let mut current = 0;
    for seq in 1.. {
        while let Some(wait) = next.checked_duration_since(Instant::now()) {
            if done.load(Ordering::SeqCst) {
                return (times, errors);
            }
            std::thread::sleep(wait.min(Duration::from_millis(10)));
        }
        if done.load(Ordering::SeqCst) {
            break;
        }
        let target = seq % snapshots.len();
        state.begin();
        let start = Instant::now();
        let result = engine.deploy(snapshots[target], gnnvault::pipeline::DEPLOY_SEAL_KEY);
        let end = Instant::now();
        match result {
            Ok(_) => current = target,
            Err(e) => errors.push(e.to_string()),
        }
        state.end(current);
        rec.record("deploy", seq as u64, 0, start, end);
        times.push(end.duration_since(start).as_secs_f64() * 1e3);
        next += period;
    }
    (times, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_oracle_separates_stale_from_wrong_labels() {
        let a = [ClassLabel(0), ClassLabel(1)];
        let b = [ClassLabel(0), ClassLabel(2)];
        let state = ModelState::default();
        let oracle = Oracle {
            references: vec![&a, &b],
            state: &state,
        };
        let word = state.load();
        assert_eq!(
            oracle.check(&[1], &[ClassLabel(1)], word, word),
            (Verdict::Right, true)
        );
        assert_eq!(
            oracle.check(&[1], &[ClassLabel(2)], word, word),
            (Verdict::Stale, true)
        );
        assert_eq!(
            oracle.check(&[1], &[ClassLabel(3)], word, word),
            (Verdict::Wrong, false)
        );
        assert_eq!(
            oracle.check(&[0, 1], &[ClassLabel(0)], word, word),
            (Verdict::Wrong, false)
        );
        // A deploy of model B in flight: either model's label passes.
        state.begin();
        let busy = state.load();
        assert_eq!(
            oracle.check(&[1], &[ClassLabel(2)], word, busy),
            (Verdict::Right, false)
        );
        state.end(1);
        let after = state.load();
        assert_eq!(
            oracle.check(&[1], &[ClassLabel(2)], after, after),
            (Verdict::Right, true)
        );
        assert_eq!(
            oracle.check(&[1], &[ClassLabel(1)], after, after),
            (Verdict::Stale, true)
        );
    }
}
