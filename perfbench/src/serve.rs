//! The TCP serving stack (a `NetServer` in front of a 2-replica
//! `ReplicaSet`) and the closed-loop load generator that drives it.

use crate::stats::{better_half, Outcome, Tally};
use nshd_net::{NetClient, NetServer, NetServerConfig, RequestBody, WireInput};
use nshd_obs::ServingMetrics;
use nshd_runtime::{BatchEngine, ClusterConfig, ReplicaSet, RuntimeConfig};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Replicas behind the front end.
pub const REPLICAS: usize = 2;
/// Requests the load generator keeps in flight on its one connection.
pub const IN_FLIGHT: usize = 8;

/// The per-replica runtime every serve workload uses.
pub fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        runtime: RuntimeConfig { workers: 1, max_batch: 16, max_wait: Duration::from_micros(500) },
        ..ClusterConfig::default()
    }
}

/// A running front end and the replica set behind it.
pub struct Stack<E: BatchEngine<Output = usize>> {
    /// The replica set (shared with the server).
    pub set: Arc<ReplicaSet<E>>,
    server: NetServer<E>,
}

impl<E> Stack<E>
where
    E: BatchEngine<Output = usize> + Clone,
    E::Input: WireInput + Clone,
{
    /// Starts `REPLICAS` independent copies of `engine` behind a
    /// loopback server.
    ///
    /// # Panics
    ///
    /// Panics when the cluster or server cannot start (a setup failure,
    /// not a measured outcome).
    pub fn start(engine: &E) -> Stack<E> {
        let replicas = (0..REPLICAS).map(|_| Arc::new(engine.clone())).collect();
        let set = match ReplicaSet::new(replicas, cluster_config()) {
            Ok(set) => Arc::new(set),
            Err(e) => panic!("replica set failed to start: {e}"),
        };
        let server = match NetServer::start(Arc::clone(&set), NetServerConfig::default()) {
            Ok(server) => server,
            Err(e) => panic!("server failed to start: {e}"),
        };
        Stack { set, server }
    }

    /// The loopback address clients connect to.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    /// The front end's live accounting.
    pub fn front_metrics(&self) -> ServingMetrics {
        self.server.metrics()
    }

    /// Drains the server and the cluster, joining every thread.
    pub fn stop(self) {
        let _ = self.server.shutdown();
        match Arc::try_unwrap(self.set) {
            Ok(set) => drop(set.shutdown()),
            Err(_) => panic!("server drain must release the replica set"),
        }
    }
}

/// One request payload plus the answer the in-process oracle gives for
/// its decoded input, and the label of the sample it came from.
#[derive(Clone)]
pub struct Case {
    /// Wire body.
    pub body: RequestBody,
    /// Oracle prediction for the decoded input.
    pub expected: u32,
    /// Ground-truth class of the source sample.
    pub label: u32,
}

/// What one closed-loop run observed.
#[derive(Debug, Default)]
pub struct Traffic {
    /// Every reply and failure, warm-up and drain included.
    pub tally: Tally,
    /// Client send→reply times (µs) of requests sent and answered
    /// inside the measured window.
    pub rtt_us: Vec<f64>,
    /// Server-side times (µs, from the reply frame) of the same
    /// requests.
    pub server_us: Vec<f64>,
    /// The window slice each of those requests completed in.
    pub rtt_slice: Vec<usize>,
    /// Correct replies completed inside the window.
    pub window_correct: u64,
    /// Correct replies completed in each `SLICE` of the window.
    pub slices: Vec<u64>,
    /// Seconds each slice lasts (the last one may be short).
    pub slice_s: Vec<f64>,
    /// Of those, replies whose prediction equals the sample's label.
    pub window_on_label: u64,
}

impl Traffic {
    /// The better half of the window's slices by correct replies per
    /// second; see [`better_half`].
    pub fn better_slices(&self) -> Vec<usize> {
        let rates: Vec<f64> =
            self.slices.iter().zip(&self.slice_s).map(|(&n, &s)| n as f64 / s).collect();
        better_half(&rates)
    }

    /// Correct replies per second over the better slices.
    pub fn throughput(&self) -> f64 {
        let keep = self.better_slices();
        let replies: u64 = keep.iter().map(|&i| self.slices[i]).sum();
        let seconds: f64 = keep.iter().map(|&i| self.slice_s[i]).sum();
        if seconds > 0.0 {
            replies as f64 / seconds
        } else {
            0.0
        }
    }

    /// Round-trip times (µs) of the requests completed in the better
    /// slices.
    pub fn better_rtt_us(&self) -> Vec<f64> {
        let keep = self.better_slices();
        self.rtt_us
            .iter()
            .zip(&self.rtt_slice)
            .filter(|(_, slice)| keep.contains(slice))
            .map(|(&rtt, _)| rtt)
            .collect()
    }
}

/// Length of one slice of the measured window. A cost the program pays
/// at a shorter period (a flush, a drain, a lock convoy) lands in every
/// slice, so dropping the slow slices cannot hide it.
pub const SLICE: Duration = Duration::from_millis(2_500);

/// Drives `cases` round-robin over one connection, keeping
/// [`IN_FLIGHT`] requests outstanding. Replies in the first `warmup` are
/// checked but not measured; the measured window is the `measure` after
/// it. `mark` runs once when the window opens and once when it closes,
/// so callers can snapshot server-side counters around it, and it runs
/// twice on every path out, early ones included. A transport fault
/// counts once and ends the run.
pub fn drive(
    addr: std::net::SocketAddr,
    cases: &[Case],
    warmup: Duration,
    measure: Duration,
    mark: &mut dyn FnMut(),
) -> Traffic {
    let slices = measure.as_nanos().div_ceil(SLICE.as_nanos()).max(1) as usize;
    let slice_s =
        (0..slices as u32).map(|i| (measure - SLICE * i).min(SLICE).as_secs_f64()).collect();
    let mut traffic = Traffic { slices: vec![0; slices], slice_s, ..Traffic::default() };
    let io_deadline = Duration::from_secs(30);
    let mut marks = 0;
    // Every early exit breaks out of this block, so the marks stay paired.
    'run: {
        let Ok(mut client) = NetClient::connect_with_deadlines(addr, io_deadline, io_deadline)
        else {
            traffic.tally.note(Outcome::Transport);
            break 'run;
        };
        let start = Instant::now();
        let open = start + warmup;
        let close = open + measure;
        let mut pending: BTreeMap<u64, (usize, Instant)> = BTreeMap::new();
        let mut next = 0usize;
        let mut send = |client: &mut NetClient, pending: &mut BTreeMap<u64, (usize, Instant)>| {
            let index = next % cases.len();
            next += 1;
            let sent = Instant::now();
            client.send(cases[index].body.clone()).map(|id| {
                pending.insert(id, (index, sent));
            })
        };
        for _ in 0..IN_FLIGHT {
            if send(&mut client, &mut pending).is_err() {
                traffic.tally.note(Outcome::Transport);
                break 'run;
            }
        }
        while !pending.is_empty() {
            let Ok((id, answer)) = client.recv() else {
                traffic.tally.note(Outcome::Transport);
                break 'run;
            };
            let now = Instant::now();
            if marks == 0 && now >= open {
                mark();
                marks = 1;
            }
            if marks == 1 && now >= close {
                mark();
                marks = 2;
            }
            let Some((index, sent)) = pending.remove(&id) else {
                // A reply to a request never sent: the stream is unusable.
                traffic.tally.note(Outcome::Transport);
                break 'run;
            };
            let case = &cases[index];
            let outcome = match &answer {
                Ok(reply) if reply.prediction == case.expected => Outcome::Correct,
                Ok(_) => Outcome::Wrong,
                Err(_) => Outcome::ErrorFrame,
            };
            traffic.tally.note(outcome);
            if let Ok(reply) = &answer {
                let in_window = now >= open && now < close;
                if in_window && outcome == Outcome::Correct {
                    traffic.window_correct += 1;
                    let slice = (now.duration_since(open).as_nanos() / SLICE.as_nanos()) as usize;
                    if slice < traffic.slices.len() {
                        traffic.slices[slice] += 1;
                    }
                    if reply.prediction == case.label {
                        traffic.window_on_label += 1;
                    }
                    if sent >= open {
                        traffic.rtt_us.push(now.duration_since(sent).as_secs_f64() * 1e6);
                        traffic.server_us.push(reply.server_us as f64);
                        traffic.rtt_slice.push(slice);
                    }
                }
            }
            if now < close && send(&mut client, &mut pending).is_err() {
                traffic.tally.note(Outcome::Transport);
                break 'run;
            }
        }
    }
    for _ in marks..2 {
        mark();
    }
    traffic
}
