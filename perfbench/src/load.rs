//! The open-loop load generator: a seeded SET/GET/DEL/STATS mix sent on a
//! fixed schedule through the VM's simulated network, every reply checked
//! against a host-side model of the store.
//!
//! Each request is timed from when it was *due*, not from when it was
//! sent, so a stall (a GC slice, an update pause, the host) is charged to
//! every request that fell due during it. Replies are polled in FIFO
//! order: the kvstore serves one connection at a time in accept order,
//! so only the oldest in-flight request can be the next one answered and
//! a poll costs O(1) however far the server falls behind.

use std::collections::VecDeque;

use jvolve_fuzz::rng::Rng;
use jvolve_vm::Vm;

/// Keys the mix draws from (the store holds 64).
pub const KEYS: usize = 48;

/// One request of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `SET k<key> v<val>`.
    Set { key: usize, val: usize },
    /// `GET k<key>`.
    Get { key: usize },
    /// `DEL k<key>`.
    Del { key: usize },
    /// `STATS`.
    Stats,
}

impl Op {
    /// Draws the next request: 40% SET, 45% GET, 10% DEL, 5% STATS.
    pub fn draw(rng: &mut Rng) -> Op {
        let key = rng.below(KEYS);
        match rng.below(100) {
            0..=39 => Op::Set {
                key,
                val: rng.below(1 << 20),
            },
            40..=84 => Op::Get { key },
            85..=94 => Op::Del { key },
            _ => Op::Stats,
        }
    }

    /// The request line sent to the guest.
    pub fn line(self) -> String {
        match self {
            Op::Set { key, val } => format!("SET k{key} v{val}"),
            Op::Get { key } => format!("GET k{key}"),
            Op::Del { key } => format!("DEL k{key}"),
            Op::Stats => "STATS".to_string(),
        }
    }
}

/// The reply a request must get.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Exactly this line.
    Exact(String),
    /// A line starting with this prefix (STATS counters are not modelled).
    Prefix(&'static str),
}

impl Expect {
    /// Whether `reply` satisfies the expectation.
    pub fn accepts(&self, reply: &str) -> bool {
        match self {
            Expect::Exact(line) => reply == line,
            Expect::Prefix(prefix) => reply.starts_with(prefix),
        }
    }
}

/// Host-side model of the store's contents.
#[derive(Clone, Debug)]
pub struct Model {
    vals: Vec<Option<usize>>,
}

impl Default for Model {
    fn default() -> Self {
        Model {
            vals: vec![None; KEYS],
        }
    }
}

impl Model {
    /// Applies `op` in send order and returns the reply it must get. The
    /// server handles connections in accept order, which is send order.
    pub fn apply(&mut self, op: Op) -> Expect {
        match op {
            Op::Set { key, val } => {
                self.vals[key] = Some(val);
                Expect::Exact("OK stored".to_string())
            }
            Op::Get { key } => self.read(key),
            Op::Del { key } => match self.vals[key].take() {
                Some(_) => Expect::Exact("OK deleted".to_string()),
                None => Expect::Exact("NIL".to_string()),
            },
            Op::Stats => Expect::Prefix("OK sets="),
        }
    }

    /// The reply a `GET` of `key` must get.
    pub fn read(&self, key: usize) -> Expect {
        match self.vals[key] {
            Some(val) => Expect::Exact(format!("VAL v{val}")),
            None => Expect::Exact("NIL".to_string()),
        }
    }
}

/// A fixed-rate send schedule on a nanosecond clock.
#[derive(Clone, Debug)]
pub struct Schedule {
    next_due: u64,
    interval: u64,
}

impl Schedule {
    /// Requests every `interval` ns, the first due at `start`.
    pub fn new(start: u64, interval: u64) -> Schedule {
        Schedule {
            next_due: start,
            interval,
        }
    }

    /// The due time of the next request if it is due by `now`.
    pub fn pop_due(&mut self, now: u64) -> Option<u64> {
        (self.next_due <= now).then(|| {
            let due = self.next_due;
            self.next_due += self.interval;
            due
        })
    }
}

/// A request waiting for its reply.
struct InFlight {
    conn: usize,
    due: u64,
    expect: Expect,
}

/// One answered request: due time and due-time latency, in ns.
#[derive(Clone, Copy, Debug)]
pub struct Done {
    /// When the request was due.
    pub due: u64,
    /// Due time to verified reply.
    pub latency: u64,
}

/// What the generator counted.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub sent: u64,
    /// Replies that matched the model.
    pub correct: u64,
    /// Replies that did not.
    pub incorrect: u64,
    /// Requests never answered (timed out, or left over when a VM was
    /// torn down).
    pub unanswered: u64,
    /// Requests that could not be sent (no listener).
    pub dropped: u64,
    /// First few mismatches, for the report.
    pub mismatches: Vec<String>,
}

impl Tally {
    /// Requests that did not get a verified reply.
    pub fn failed(&self) -> u64 {
        self.incorrect + self.unanswered + self.dropped
    }

    fn note(&mut self, what: String) {
        if self.mismatches.len() < 5 {
            self.mismatches.push(what);
        }
    }
}

/// The open-loop client: one per served store (the steady VM, or the
/// stream's VM of the current chain).
pub struct Client {
    port: u16,
    rng: Rng,
    model: Model,
    schedule: Schedule,
    queue: VecDeque<InFlight>,
    /// A request older than this (ns past due) is given up on.
    timeout: u64,
    /// Sending is paused (end of a window or chain: drain what is in flight).
    pub closed: bool,
    /// Answered requests, in completion order.
    pub done: Vec<Done>,
    /// Send lateness against the schedule, ns, one per request sent.
    pub late: Vec<u64>,
    /// Counters.
    pub tally: Tally,
}

impl Client {
    /// A client for `port` sending every `interval` ns from `start`.
    pub fn new(port: u16, seed: u64, start: u64, interval: u64, timeout: u64) -> Client {
        Client {
            port,
            rng: Rng::new(seed),
            model: Model::default(),
            schedule: Schedule::new(start, interval),
            queue: VecDeque::new(),
            timeout,
            closed: false,
            done: Vec::new(),
            late: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// Restarts the schedule at `start` (sending resumes).
    pub fn resume(&mut self, start: u64) {
        self.schedule = Schedule::new(start, self.schedule.interval);
        self.closed = false;
    }

    /// Forgets the store's contents: the next requests go to a freshly
    /// booted VM.
    pub fn reset_store(&mut self) {
        self.model = Model::default();
    }

    /// Requests sent and not yet answered.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Sends every request due by `now`.
    pub fn send_due(&mut self, vm: &mut Vm, now: u64) {
        if self.closed {
            return;
        }
        while let Some(due) = self.schedule.pop_due(now) {
            let op = Op::draw(&mut self.rng);
            let expect = self.model.apply(op);
            self.tally.sent += 1;
            self.late.push(now - due);
            let Some(conn) = vm.net_mut().client_connect(self.port) else {
                self.tally.dropped += 1;
                continue;
            };
            vm.net_mut().client_send(conn, op.line());
            self.queue.push_back(InFlight { conn, due, expect });
        }
    }

    /// Collects every reply that has arrived, oldest request first.
    /// Returns how many were collected.
    pub fn poll(&mut self, vm: &mut Vm, now: u64) -> usize {
        let mut got = 0;
        while let Some(front) = self.queue.front() {
            match vm.net_mut().client_recv(front.conn) {
                Some(reply) => {
                    let req = self.queue.pop_front().expect("front exists");
                    vm.net_mut().client_close(req.conn);
                    if req.expect.accepts(&reply) {
                        self.tally.correct += 1;
                    } else {
                        self.tally.incorrect += 1;
                        self.tally
                            .note(format!("expected {:?}, got {reply:?}", req.expect));
                    }
                    self.done.push(Done {
                        due: req.due,
                        latency: now.saturating_sub(req.due),
                    });
                    got += 1;
                }
                None if now.saturating_sub(front.due) > self.timeout => {
                    let req = self.queue.pop_front().expect("front exists");
                    vm.net_mut().client_close(req.conn);
                    self.tally.unanswered += 1;
                }
                None => break,
            }
        }
        got
    }

    /// Reads back every key after a window or chain, closed-loop, and
    /// checks each against the model. Returns (checked, wrong).
    pub fn read_back(&mut self, vm: &mut Vm, budget: usize) -> (u64, u64) {
        let mut wrong = 0;
        for key in 0..KEYS {
            let expect = self.model.read(key);
            match jvolve_apps::workload::one_shot(vm, self.port, &format!("GET k{key}"), budget) {
                Some((reply, _)) if expect.accepts(&reply) => {}
                Some((reply, _)) => {
                    wrong += 1;
                    self.tally.note(format!(
                        "read-back k{key}: expected {expect:?}, got {reply:?}"
                    ));
                }
                None => {
                    wrong += 1;
                    self.tally.note(format!("read-back k{key}: no reply"));
                }
            }
        }
        (KEYS as u64, wrong)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_predicts_exact_replies() {
        let mut m = Model::default();
        assert_eq!(m.apply(Op::Get { key: 3 }), Expect::Exact("NIL".into()));
        assert_eq!(
            m.apply(Op::Set { key: 3, val: 9 }),
            Expect::Exact("OK stored".into())
        );
        assert_eq!(m.apply(Op::Get { key: 3 }), Expect::Exact("VAL v9".into()));
        assert_eq!(
            m.apply(Op::Del { key: 3 }),
            Expect::Exact("OK deleted".into())
        );
        assert_eq!(m.apply(Op::Del { key: 3 }), Expect::Exact("NIL".into()));
        assert!(m.apply(Op::Stats).accepts("OK sets=1 gets=2"));
        assert!(!Expect::Exact("VAL v9".into()).accepts("VAL v90"));
    }

    #[test]
    fn the_mix_is_seeded_and_bounded() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..500).map(|_| Op::draw(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let ops = draw(7);
        for op in &ops {
            if let Op::Set { key, .. } | Op::Get { key } | Op::Del { key } = op {
                assert!(*key < KEYS);
            }
        }
        assert!(ops.iter().any(|op| matches!(op, Op::Stats)));
        assert!(ops.iter().any(|op| matches!(op, Op::Del { .. })));
    }

    /// A stall charges its length to every request that fell due during
    /// it: nothing is sent while the generator is stuck, and each request
    /// sent afterwards is timed from its own due time.
    #[test]
    fn due_time_latency_charges_a_stall_to_every_request_due_during_it() {
        let classes = jvolve_lang::compile(&jvolve_apps::kvstore::source(20)).unwrap();
        let mut vm = jvolve_apps::harness::boot_classes(
            &jvolve_apps::Kvstore,
            &classes,
            jvolve_apps::harness::app_vm_config(),
        );
        let interval = 50_000;
        let mut client = Client::new(jvolve_apps::kvstore::PORT, 1, 0, interval, u64::MAX);
        // The generator is stuck from t = 0 until t = 1 ms, then catches
        // up: 21 requests (due at 0, 50 µs, ..., 1 ms) go out at once.
        let stall_end = 1_000_000;
        client.send_due(&mut vm, stall_end);
        assert_eq!(client.in_flight(), 21);
        assert_eq!(client.late[1], stall_end - interval);
        let mut now = stall_end;
        while client.in_flight() > 0 {
            vm.step_slice();
            now += 100;
            client.poll(&mut vm, now);
        }
        assert_eq!(client.done.len(), 21);
        for done in &client.done {
            assert!(
                done.latency >= stall_end - done.due,
                "request due at {} ns was charged only {} ns",
                done.due,
                done.latency
            );
        }
        assert_eq!(client.done[1].due, interval);
        assert_eq!(client.tally.correct, 21, "{:?}", client.tally.mismatches);
        assert_eq!(client.read_back(&mut vm, 20_000), (KEYS as u64, 0));
    }
}
