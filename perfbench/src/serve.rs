//! `serve_open` and `serve_aging`: an open-loop generator against MLP-1
//! served over loopback TCP by `resipe-serve`.
//!
//! One connection carries pipelined v2 `Infer` frames. One thread sends
//! on a seeded Poisson schedule; one thread reads replies and matches
//! them by id. Latency runs from the time a request was due to the time
//! its reply was fully read, so a stalled generator or server charges
//! every request queued behind the stall.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use resipe::inference::{CompileOptions, HardwareNetwork, RunOptions};
use resipe::repair::RepairPolicy;
use resipe::scrub::ScrubConfig;
use resipe::telemetry::{Telemetry, TelemetrySnapshot};
use resipe_analog::units::Seconds;
use resipe_nn::data::Dataset;
use resipe_nn::models;
use resipe_nn::tensor::Tensor;
use resipe_nn::train::{Sgd, TrainConfig};
use resipe_reram::aging::{AgingClock, AgingConfig};
use resipe_reram::faults::RetentionDrift;
use resipe_serve::protocol::{decode_tensor, encode_request, FrameAccum, MAGIC, PROTOCOL_V2};
use resipe_serve::{ModelSpec, Request, Server, ServerConfig, ServerStats, Verb};

use crate::common::{
    median, peak_rss_mib, percentile, repeated_setup, Chunks, Sheet, SpanId, Tracer,
};
use crate::inputs::{
    aging_seed, pick_stream, poisson_schedule, scrub_seed, serve_inputs, Schedule, ServeInputs,
};
use crate::layers::{compile_metrics, kernel_metrics, sim_metrics};
use crate::{Args, Outcome, SETUP_REPS};

const MODEL: &str = "mlp1";
const N_TRAIN: usize = 1000;
const EPOCHS: usize = 8;
const POOL: usize = 512;
const WARMUP_REQUESTS: usize = 256;
/// How long after a step's last due time its replies may still arrive
/// before they count as missing.
const DRAIN: Duration = Duration::from_secs(2);
/// Latency limit of `max_rps`, on the step's p99.
const P99_LIMIT_MS: f64 = 10.0;
/// Queue-depth growth over a step beyond which its backlog counts as
/// growing (one full batch).
const BACKLOG_SLACK: u64 = 32;
/// Requests the capacity step keeps in flight: two full batches, well
/// under the default 256-request queue, so nothing is refused.
const IN_FLIGHT: usize = 64;
/// Rounds of the fixed-rate steps: every round runs each rate once, and
/// a rate's p50 is the median over rounds, so a stall of a shared host
/// that spans one round moves one value, not the result.
const ROUNDS: usize = 5;
/// `serve_aging`: the served network ages once per this many sent
/// requests.
const AGE_EVERY: u64 = 1000;
/// Served accuracy may trail the pristine network's accuracy on the
/// same pool by at most this much; more means repairs lag behind aging
/// (serve_aging) or outputs are wrong (serve_open).
const ACCURACY_SLACK: f64 = 0.05;

/// A fixed-rate step: name, offered rate (req/s), and its share of
/// `--seconds` summed over all rounds.
const OPEN_STEPS: [(&str, f64, f64); 3] = [
    ("low", 1000.0, 0.2),
    ("mid", 4000.0, 0.2),
    ("high", 6000.0, 0.15),
];
const AGING_STEPS: [(&str, f64, f64); 1] = [("mid", 4000.0, 1.0)];
/// Share of `--seconds` for the closed-loop capacity step.
const CAPACITY_SHARE: f64 = 0.15;
/// The `max_rps` ladder (req/s, 5 % apart), climbed after the capacity
/// step in the last 30 % of the window until a rung misses a limit
/// twice in a row: one retry absorbs a single stall of a shared host,
/// while a real overload fails both tries.
const LADDER: [f64; 16] = [
    13000.0, 13650.0, 14330.0, 15050.0, 15800.0, 16590.0, 17420.0, 18290.0, 19210.0, 20170.0,
    21180.0, 22240.0, 23350.0, 24510.0, 25740.0, 27030.0,
];
const LADDER_SHARE: f64 = 0.3;

struct Ready {
    inputs: ServeInputs,
    server: Server,
    stream: TcpStream,
    /// One encoded request frame per pool sample (id 0).
    frames: Vec<Vec<u8>>,
    /// Byte offset of the request id inside every frame.
    id_at: usize,
    /// A frozen copy of the served network, compiled before serving.
    oracle: HardwareNetwork,
    datagen_s: f64,
    train_s: f64,
    compiled: TelemetrySnapshot,
}

impl Ready {
    /// Writes the frame of pool sample `s` under request id `id`.
    fn send(&self, w: &mut TcpStream, buf: &mut Vec<u8>, s: usize, id: u64) -> Result<(), String> {
        buf.clear();
        buf.extend_from_slice(&self.frames[s]);
        buf[self.id_at..self.id_at + 8].copy_from_slice(&id.to_le_bytes());
        w.write_all(buf).map_err(|e| format!("send {id}: {e}"))
    }
}

fn sample(pool: &Dataset, i: usize) -> Result<Tensor, String> {
    let (x, _) = pool.batch(&[i]).map_err(|e| e.to_string())?;
    x.reshape(pool.sample_shape()).map_err(|e| e.to_string())
}

/// `[u32 len][payload]` of a v2 Infer request.
fn frame(id: u64, x: &Tensor) -> Result<Vec<u8>, String> {
    let payload = encode_request(&Request::v2(Verb::Infer, id, 0, MODEL, Some(x.clone())))
        .map_err(|e| e.to_string())?;
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Where the 8 id bytes sit in an encoded frame: the only bytes that
/// differ between id 0 and id `u64::MAX`.
fn id_offset(x: &Tensor) -> Result<usize, String> {
    let (a, b) = (frame(0, x)?, frame(u64::MAX, x)?);
    let at = a
        .iter()
        .zip(&b)
        .position(|(p, q)| p != q)
        .ok_or("request id not found in frame")?;
    let differing = a.iter().zip(&b).filter(|(p, q)| p != q).count();
    if differing != 8 {
        return Err(format!("request id spans {differing} bytes, expected 8"));
    }
    Ok(at)
}

fn scrub_config(seed: u64) -> ScrubConfig {
    // A BIST threshold sharp enough to see retention drift.
    let mut policy = RepairPolicy::full();
    policy.bist.cell_threshold = 0.05;
    ScrubConfig::new()
        .with_policy(policy)
        .with_interval(Duration::from_millis(50))
        .with_seed(scrub_seed(seed))
}

/// One reply as the reader saw it.
#[derive(Clone)]
struct Reply {
    at: Instant,
    status: u8,
    body: Vec<u8>,
}

/// Reads reply frames off the connection. It outlives single steps, so
/// a frame split across a step boundary is never lost.
struct ReplyReader {
    stream: TcpStream,
    accum: FrameAccum,
    buf: Vec<u8>,
}

impl ReplyReader {
    fn new(stream: &TcpStream) -> Result<ReplyReader, String> {
        let stream = stream.try_clone().map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_millis(20)))
            .map_err(|e| e.to_string())?;
        Ok(ReplyReader {
            stream,
            accum: FrameAccum::new(),
            buf: vec![0u8; 256 * 1024],
        })
    }

    /// Waits at most the read timeout for bytes; returns every reply the
    /// bytes completed as `(id, reply)`, stamped with the read time.
    fn poll(&mut self) -> Result<Vec<(u64, Reply)>, String> {
        let len = match self.stream.read(&mut self.buf) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(len) => len,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(Vec::new())
            }
            Err(e) => return Err(e.to_string()),
        };
        let at = Instant::now();
        let mut out = Vec::new();
        let mut rest = &self.buf[..len];
        while !rest.is_empty() {
            let (used, done) = self.accum.feed(rest).map_err(|e| e.to_string())?;
            rest = &rest[used..];
            let Some(payload) = done else { continue };
            // A v2 response payload: `[MAGIC][2][status][u64 id][body]`.
            if payload.len() < 11 || payload[0] != MAGIC || payload[1] != PROTOCOL_V2 {
                return Err("reply is not a v2 frame".into());
            }
            let id = u64::from_le_bytes(payload[3..11].try_into().expect("8 bytes"));
            out.push((
                id,
                Reply {
                    at,
                    status: payload[2],
                    body: payload[11..].to_vec(),
                },
            ));
        }
        Ok(out)
    }
}

fn setup(args: &Args, tracer: &Tracer, aging: bool) -> Result<Ready, String> {
    let t = Instant::now();
    let inputs = tracer.time("nn.datagen", None, || {
        serve_inputs(args.seed, N_TRAIN, POOL)
    })?;
    let datagen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut net = models::mlp1(inputs.model_seed).map_err(|e| e.to_string())?;
    tracer
        .time("nn.train", None, || {
            Sgd::new(
                TrainConfig::new(EPOCHS)
                    .with_learning_rate(0.1)
                    .with_shuffle_seed(inputs.shuffle_seed),
            )
            .fit(&mut net, &inputs.train)
        })
        .map_err(|e| e.to_string())?;
    let train_s = t.elapsed().as_secs_f64();

    let (calibration, _) = inputs
        .train
        .batch(&(0..32).collect::<Vec<_>>())
        .map_err(|e| e.to_string())?;
    let telemetry = if args.trace {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let hw = tracer
        .time("compile", None, || {
            HardwareNetwork::compile_with_telemetry(
                &net,
                &calibration,
                &CompileOptions::paper(),
                telemetry,
            )
        })
        .map_err(|e| e.to_string())?;
    let compiled = hw.telemetry().snapshot();
    let mut oracle = hw.clone();
    oracle.set_telemetry(Telemetry::disabled());

    let mut spec = ModelSpec::compiled(hw, inputs.pool.sample_shape());
    if aging {
        spec = spec.with_scrub(scrub_config(args.seed));
    }
    let bind = tracer.open("serve.bind", None);
    let server = Server::builder()
        .config(ServerConfig::default())
        .register_model(MODEL, spec)
        .bind("127.0.0.1:0")
        .map_err(|e| e.to_string())?;
    let stream = TcpStream::connect(server.local_addr()).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    tracer.close(bind);

    let samples: Vec<Tensor> = (0..inputs.pool.len())
        .map(|i| sample(&inputs.pool, i))
        .collect::<Result<_, _>>()?;
    let frames: Vec<Vec<u8>> = samples
        .iter()
        .map(|x| frame(0, x))
        .collect::<Result<_, _>>()?;
    let id_at = id_offset(&samples[0])?;

    let ready = Ready {
        inputs,
        server,
        stream,
        frames,
        id_at,
        oracle,
        datagen_s,
        train_s,
        compiled,
    };
    // Warm-up: a closed loop over the pool, so the plan, the scratch
    // arenas and the connection are all live before timing. Warm-up ids
    // count down from the top, clear of the measured ids.
    let warm = tracer.open("warmup", None);
    let mut writer = ready.stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = ReplyReader::new(&ready.stream)?;
    let mut buf = Vec::new();
    for k in 0..WARMUP_REQUESTS {
        ready.send(&mut writer, &mut buf, k % POOL, u64::MAX - k as u64)?;
        let deadline = Instant::now() + DRAIN;
        let replies = loop {
            let got = reader.poll()?;
            if !got.is_empty() {
                break got;
            }
            if Instant::now() > deadline {
                return Err(format!("warm-up request {k} got no reply"));
            }
        };
        if let Some((_, r)) = replies.iter().find(|(_, r)| r.status != 0) {
            return Err(format!("warm-up request {k} answered status {}", r.status));
        }
    }
    tracer.close(warm);
    Ok(ready)
}

/// What one step measured. `due_s` of a closed-loop step holds each
/// request's actual send time, so its latency is send-to-reply.
struct Step {
    name: &'static str,
    /// Offered rate; for the capacity step, the achieved one.
    rate: f64,
    sched: Schedule,
    first_id: u64,
    started: Instant,
    replies: Vec<Option<Reply>>,
    late_ms: Vec<f64>,
    send_us: Vec<f64>,
    q_start: u64,
    q_end: u64,
    age_ms: Vec<f64>,
    /// Whether its requests are in `attempted`: every step but a ladder
    /// rung that missed a limit (which only ends the climb).
    counted: bool,
}

impl Step {
    fn due(&self, k: usize) -> Instant {
        self.started + Duration::from_secs_f64(self.sched.due_s[k])
    }

    /// Latency per request in ms; a failed or missing reply is +inf, so
    /// it misses every limit.
    fn latencies(&self) -> Vec<f64> {
        self.replies
            .iter()
            .enumerate()
            .map(|(k, r)| match r {
                Some(r) if r.status == 0 => (r.at - self.due(k)).as_secs_f64() * 1e3,
                _ => f64::INFINITY,
            })
            .collect()
    }

    fn failures(&self) -> usize {
        self.replies
            .iter()
            .filter(|r| !matches!(r, Some(r) if r.status == 0))
            .count()
    }

    /// Replies completed per second between the step's start and its
    /// last reply.
    fn achieved_rps(&self) -> f64 {
        let ok = self.replies.len() - self.failures();
        let last = self
            .replies
            .iter()
            .flatten()
            .map(|r| r.at)
            .max()
            .unwrap_or(self.started);
        ok as f64 / (last - self.started).as_secs_f64().max(1e-9)
    }

    fn meets_limits(&self) -> bool {
        let p99 = percentile(&self.latencies(), 0.99).unwrap_or(f64::INFINITY);
        p99 <= P99_LIMIT_MS && self.meets_limits_but_tail()
    }

    /// No failed request and no growing backlog.
    fn meets_limits_but_tail(&self) -> bool {
        self.failures() == 0 && self.q_end <= self.q_start + BACKLOG_SLACK
    }

    /// One line per step on stderr: rate, outcome and tail.
    fn log(&self) {
        let missing = self.replies.iter().filter(|r| r.is_none()).count();
        let lat = self.latencies();
        eprintln!(
            "step {:<8} {:>7.0} req/s: {} sent, {} refused, {} missing, p50 {:.3} ms, \
             p99 {:.3} ms, queue {} -> {}, late max {:.3} ms",
            self.name,
            self.rate,
            lat.len(),
            self.failures() - missing,
            missing,
            median(&lat),
            percentile(&lat, 0.99).unwrap_or(f64::NAN),
            self.q_start,
            self.q_end,
            self.late_ms.iter().copied().fold(0.0, f64::max),
        );
    }
}

/// Sleeps until `at`. The sender never spins: on a two-core host a
/// spinning generator would take a core from the server it measures.
/// Requests whose due time passed during a sleep go out back to back,
/// and their lateness is reported.
fn wait_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// Everything the sender needs to age the served network mid-step.
struct Aging {
    network: Arc<HardwareNetwork>,
    clock: AgingClock,
    sent: u64,
}

/// The connection's two halves and the request-id counter, carried
/// from step to step.
struct Conn {
    writer: TcpStream,
    reader: ReplyReader,
    next_id: u64,
    step_index: u64,
}

/// What the sender thread of an open-loop step recorded.
struct Sent {
    late_ms: Vec<f64>,
    send_us: Vec<f64>,
    q_end: u64,
    age_ms: Vec<f64>,
}

/// One open-loop step at `rate` for `duration_s` seconds.
#[allow(clippy::too_many_arguments)]
fn open_step(
    r: &Ready,
    conn: &mut Conn,
    name: &'static str,
    rate: f64,
    duration_s: f64,
    aging: &mut Option<Aging>,
    args: &Args,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<Step, String> {
    let sched = poisson_schedule(args.seed, conn.step_index, rate, duration_s, POOL);
    let n = sched.due_s.len();
    let first_id = conn.next_id;
    let q_start = r.server.stats().queue_depth;
    let started = Instant::now() + Duration::from_millis(2);
    let drain_until = started + Duration::from_secs_f64(duration_s) + DRAIN;
    let step_span = tracer.open("loadgen.step", parent);
    let (writer, reader) = (&mut conn.writer, &mut conn.reader);

    let (sent, received) = std::thread::scope(|s| {
        let sched = &sched;
        let sender = s.spawn(move || -> Result<Sent, String> {
            let mut late_ms = Vec::with_capacity(n);
            let mut send_us = Vec::with_capacity(n);
            let mut age_ms = Vec::new();
            let mut buf = Vec::new();
            for k in 0..n {
                let due = started + Duration::from_secs_f64(sched.due_s[k]);
                wait_until(due);
                let id = first_id + k as u64;
                let t0 = Instant::now();
                r.send(writer, &mut buf, sched.sample[k], id)?;
                let t1 = Instant::now();
                tracer.record("loadgen.send", t0, t1, step_span, Some(id));
                late_ms.push((t0 - due).as_secs_f64() * 1e3);
                send_us.push((t1 - t0).as_secs_f64() * 1e6);
                if let Some(a) = aging.as_mut() {
                    a.sent += 1;
                    if a.sent % AGE_EVERY == 0 {
                        if let Some(step) = a.clock.advance(AGE_EVERY) {
                            let t0 = Instant::now();
                            a.network.age(&step).map_err(|e| e.to_string())?;
                            let t1 = Instant::now();
                            tracer.record("aging.age", t0, t1, step_span, None);
                            age_ms.push((t1 - t0).as_secs_f64() * 1e3);
                        }
                    }
                }
            }
            let q_end = r.server.stats().queue_depth;
            Ok(Sent {
                late_ms,
                send_us,
                q_end,
                age_ms,
            })
        });
        let receiver = s.spawn(move || -> Result<Vec<Option<Reply>>, String> {
            let mut replies: Vec<Option<Reply>> = vec![None; n];
            let mut got = 0usize;
            while got < n && Instant::now() < drain_until {
                for (id, reply) in reader.poll()? {
                    // Replies to earlier steps that came after their drain
                    // window are already counted as missing there.
                    let Some(k) = id.checked_sub(first_id).filter(|&k| k < n as u64) else {
                        continue;
                    };
                    let k = k as usize;
                    let due = started + Duration::from_secs_f64(sched.due_s[k]);
                    tracer.record("serve.request", due, reply.at, step_span, Some(id));
                    if replies[k].replace(reply).is_some() {
                        return Err(format!("duplicate reply for request {id}"));
                    }
                    got += 1;
                }
            }
            Ok(replies)
        });
        (
            sender.join().expect("sender thread panicked"),
            receiver.join().expect("receiver thread panicked"),
        )
    });
    tracer.close(step_span);
    let Sent {
        late_ms,
        send_us,
        q_end,
        age_ms,
    } = sent?;
    conn.next_id += n as u64;
    conn.step_index += 1;
    Ok(Step {
        name,
        rate,
        sched,
        first_id,
        started,
        replies: received?,
        late_ms,
        send_us,
        q_start,
        q_end,
        age_ms,
        counted: true,
    })
}

/// The closed-loop capacity step: `IN_FLIGHT` requests outstanding on
/// the connection for `duration_s` seconds, a new one sent as each
/// reply arrives. Its rate is the server's throughput when it never
/// waits for work.
fn capacity_step(
    r: &Ready,
    conn: &mut Conn,
    duration_s: f64,
    args: &Args,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<Step, String> {
    let mut picks = pick_stream(args.seed, conn.step_index);
    let first_id = conn.next_id;
    let q_start = r.server.stats().queue_depth;
    let step_span = tracer.open("loadgen.capacity", parent);
    let started = Instant::now();
    let stop_sending = started + Duration::from_secs_f64(duration_s);
    let drain_until = stop_sending + DRAIN;
    let mut sched = Schedule {
        due_s: Vec::new(),
        sample: Vec::new(),
    };
    let mut replies: Vec<Option<Reply>> = Vec::new();
    let mut send_us = Vec::new();
    let mut buf = Vec::new();
    let writer = &mut conn.writer;
    let mut send_one = |sched: &mut Schedule, replies: &mut Vec<Option<Reply>>| {
        let s = picks.below(POOL);
        let id = first_id + replies.len() as u64;
        let t0 = Instant::now();
        r.send(writer, &mut buf, s, id)?;
        let t1 = Instant::now();
        tracer.record("loadgen.send", t0, t1, step_span, Some(id));
        send_us.push((t1 - t0).as_secs_f64() * 1e6);
        sched.due_s.push((t0 - started).as_secs_f64());
        sched.sample.push(s);
        replies.push(None);
        Ok::<(), String>(())
    };
    for _ in 0..IN_FLIGHT {
        send_one(&mut sched, &mut replies)?;
    }
    let mut got = 0usize;
    let mut q_end = None;
    while got < replies.len() && Instant::now() < drain_until {
        for (id, reply) in conn.reader.poll()? {
            let Some(k) = id
                .checked_sub(first_id)
                .filter(|&k| k < replies.len() as u64)
            else {
                continue;
            };
            let k = k as usize;
            let due = started + Duration::from_secs_f64(sched.due_s[k]);
            tracer.record("serve.request", due, reply.at, step_span, Some(id));
            if replies[k].replace(reply).is_some() {
                return Err(format!("duplicate reply for request {id}"));
            }
            got += 1;
            if Instant::now() < stop_sending {
                send_one(&mut sched, &mut replies)?;
            } else if q_end.is_none() {
                q_end = Some(r.server.stats().queue_depth);
            }
        }
    }
    tracer.close(step_span);
    conn.next_id += replies.len() as u64;
    conn.step_index += 1;
    let mut step = Step {
        name: "capacity",
        rate: 0.0,
        sched,
        first_id,
        started,
        replies,
        late_ms: Vec::new(),
        send_us,
        q_start,
        q_end: q_end.unwrap_or(q_start),
        age_ms: Vec::new(),
        counted: true,
    };
    step.rate = step.achieved_rps();
    Ok(step)
}

pub fn run(args: &Args, tracer: &Tracer, aging: bool) -> Result<Outcome, String> {
    let mut datagen = Vec::new();
    let mut train = Vec::new();
    let (ready, setup_times) = repeated_setup(SETUP_REPS, tracer, || {
        let r = setup(args, tracer, aging)?;
        datagen.push(r.datagen_s);
        train.push(r.train_s);
        Ok(r)
    })?;
    let mut sheet = Sheet::default();
    sheet.set("setup_s", median(&setup_times), "s");
    sheet.set("nn.datagen_s", median(&datagen), "s");
    sheet.set("nn.train_s", median(&train), "s");
    compile_metrics(&mut sheet, &ready.compiled);

    let network = ready
        .server
        .network()
        .ok_or("the server does not expose its network")?;
    let mut aging_state = if aging {
        let drift = RetentionDrift::new(Seconds(1e6)).map_err(|e| e.to_string())?;
        let config = AgingConfig::new(Seconds(100.0), drift)
            .map_err(|e| e.to_string())?
            .with_seed(aging_seed(args.seed));
        Some(Aging {
            network: Arc::clone(&network),
            clock: AgingClock::new(config),
            sent: 0,
        })
    } else {
        None
    };
    let mut conn = Conn {
        writer: ready.stream.try_clone().map_err(|e| e.to_string())?,
        reader: ReplyReader::new(&ready.stream)?,
        next_id: 0,
        step_index: 0,
    };
    sheet.set("peak_rss_mb", peak_rss_mib(), "MiB");
    let stats_before = ready.server.stats();
    let tel_before = network.telemetry().snapshot();

    // ---- Timed window: rounds of the fixed-rate steps, then (in
    // serve_open) the capacity step and the ladder.
    let window = tracer.open("window", None);
    let fixed: &[(&str, f64, f64)] = if aging { &AGING_STEPS } else { &OPEN_STEPS };
    let mut steps: Vec<Step> = Vec::new();
    let mut first_step_server: Option<ServerStats> = None;
    let mut chunks = Chunks::start();
    for _round in 0..ROUNDS {
        let before = steps.len();
        for &(name, rate, share) in fixed {
            let step = open_step(
                &ready,
                &mut conn,
                name,
                rate,
                share * args.seconds / ROUNDS as f64,
                &mut aging_state,
                args,
                tracer,
                window,
            )?;
            step.log();
            steps.push(step);
            if first_step_server.is_none() {
                first_step_server = Some(ready.server.stats());
            }
        }
        chunks.mark(steps[before..].iter().map(|s| s.replies.len()).sum());
    }
    // The saturating steps come last, so the bounded metrics above are
    // measured before the host has seen both cores busy.
    if !aging {
        let step = capacity_step(
            &ready,
            &mut conn,
            CAPACITY_SHARE * args.seconds,
            args,
            tracer,
            window,
        )?;
        step.log();
        steps.push(step);
        let each = LADDER_SHARE * args.seconds / LADDER.len() as f64;
        'climb: for &rate in &LADDER {
            for _try in 0..2 {
                let mut step = open_step(
                    &ready,
                    &mut conn,
                    "ladder",
                    rate,
                    each,
                    &mut aging_state,
                    args,
                    tracer,
                    window,
                )?;
                step.log();
                step.counted = step.meets_limits();
                let passed = step.counted;
                steps.push(step);
                if passed {
                    continue 'climb;
                }
            }
            break;
        }
    }
    tracer.close(window);
    let stats_after = ready.server.stats();
    let tel_after = network.telemetry().snapshot();

    // ---- Correctness, after the window: every Ok reply byte-identical
    // to the frozen local oracle (serve_open), top-1 accuracy (both).
    let labels = ready.inputs.pool.labels();
    let mut oracle_bits: Vec<Option<Vec<u32>>> = vec![None; POOL];
    let (mut answered, mut top1) = (0usize, 0usize);
    let (mut mismatches, mut counted_mismatches) = (0usize, 0usize);
    for step in &steps {
        for (k, reply) in step.replies.iter().enumerate() {
            let Some(reply) = reply.as_ref().filter(|r| r.status == 0) else {
                continue;
            };
            let out = decode_tensor(&reply.body).map_err(|e| e.to_string())?;
            let s = step.sched.sample[k];
            answered += 1;
            if out.argmax_rows().first() == Some(&labels[s]) {
                top1 += 1;
            }
            if aging {
                // Repairs change output bits; serve_aging is gated on
                // accuracy only.
                continue;
            }
            if oracle_bits[s].is_none() {
                let x = sample(&ready.inputs.pool, s)?;
                let mut shape = vec![1];
                shape.extend_from_slice(ready.inputs.pool.sample_shape());
                let batch = x.reshape(&shape).map_err(|e| e.to_string())?;
                let expected = ready
                    .oracle
                    .run(&batch, &RunOptions::per_sample())
                    .map_err(|e| e.to_string())?
                    .outputs;
                oracle_bits[s] = Some(expected.data().iter().map(|v| v.to_bits()).collect());
            }
            let expected = oracle_bits[s].as_ref().expect("filled above");
            let same = out.len() == expected.len()
                && out
                    .data()
                    .iter()
                    .zip(expected)
                    .all(|(a, b)| a.to_bits() == *b);
            if !same {
                mismatches += 1;
                counted_mismatches += usize::from(step.counted);
                if mismatches <= 3 {
                    eprintln!(
                        "{}: reply {} differs from the local oracle",
                        args.workload,
                        step.first_id + k as u64
                    );
                }
            }
        }
    }
    let accuracy = top1 as f64 / answered.max(1) as f64;
    let counted: Vec<&Step> = steps.iter().filter(|s| s.counted).collect();
    let attempted: usize = counted.iter().map(|s| s.replies.len()).sum();
    let failed = counted.iter().map(|s| s.failures()).sum::<usize>() + counted_mismatches;

    // ---- End-to-end metrics. Per rate: p50 as the median over rounds,
    // p99 over every request of all rounds.
    let named = |name: &str| -> Vec<&Step> { steps.iter().filter(|s| s.name == name).collect() };
    let round_median = |name: &str, f: &dyn Fn(&Step) -> f64| -> f64 {
        median(&named(name).into_iter().map(f).collect::<Vec<_>>())
    };
    let mut max_rps = f64::NAN;
    for &(name, rate, _) in fixed {
        let pooled: Vec<f64> = named(name).iter().flat_map(|s| s.latencies()).collect();
        let p99 = percentile(&pooled, 0.99).unwrap_or(f64::NAN);
        sheet.set(
            format!("p50_ms.{name}"),
            round_median(name, &|s| median(&s.latencies())),
            "ms",
        );
        sheet.set(format!("p99_ms.{name}"), p99, "ms");
        sheet.set(format!("requests.{name}"), pooled.len() as f64, "count");
        if p99 <= P99_LIMIT_MS && named(name).iter().all(|s| s.meets_limits_but_tail()) {
            max_rps = max_rps.max(rate);
        }
    }
    sheet.set(
        "p50_ms",
        round_median("mid", &|s| median(&s.latencies())),
        "ms",
    );
    // Serving is not scaled by the host probe: its CPU time per request
    // is mostly wake-ups and system calls, and in six-run sets scaling
    // by the probe widened the spread as often as it narrowed it.
    sheet.set("cpu_ms_per_op", chunks.cpu_ms_per_op(), "ms");
    sheet.set("host_probe_ms", chunks.probe_ms(), "ms");
    sheet.set("accuracy", accuracy, "fraction");
    let mid_rps = round_median("mid", &|s| s.achieved_rps());
    if aging {
        sheet.set("rate_per_s", mid_rps, "1/s");
    } else {
        sheet.set(
            "rate_per_s",
            round_median("high", &|s| s.achieved_rps()),
            "1/s",
        );
        sheet.set(
            "capacity_rps",
            round_median("capacity", &|s| s.rate),
            "req/s",
        );
        for step in named("ladder").into_iter().filter(|s| s.meets_limits()) {
            max_rps = max_rps.max(step.rate);
        }
        sheet.set("max_rps", max_rps, "req/s");
        sheet.set("ladder_steps", named("ladder").len() as f64, "count");
    }

    // ---- Per-layer: generator.
    let all_late: Vec<f64> = steps
        .iter()
        .flat_map(|s| s.late_ms.iter().copied())
        .collect();
    let all_send: Vec<f64> = steps
        .iter()
        .flat_map(|s| s.send_us.iter().copied())
        .collect();
    sheet.set("loadgen.send_us", median(&all_send), "us");
    sheet.set("loadgen.achieved_rps", mid_rps, "req/s");
    sheet.set(
        "loadgen.late_p99_ms",
        percentile(&all_late, 0.99).unwrap_or(f64::NAN),
        "ms",
    );
    sheet.set(
        "loadgen.late_max_ms",
        all_late.iter().copied().fold(0.0, f64::max),
        "ms",
    );

    // ---- Per-layer: server counters over the window.
    let (a, b) = (&stats_after, &stats_before);
    let batches = a.batches - b.batches;
    let batched = a.batched_samples - b.batched_samples;
    sheet.set("serve.batches", batches as f64, "count");
    sheet.set(
        "serve.mean_batch",
        if batches == 0 {
            0.0
        } else {
            batched as f64 / batches as f64
        },
        "samples",
    );
    sheet.set("serve.largest_batch", a.largest_batch as f64, "samples");
    let q_max = steps
        .iter()
        .flat_map(|s| [s.q_start, s.q_end])
        .max()
        .unwrap_or(0);
    sheet.set("serve.queue_depth_max", q_max as f64, "requests");
    sheet.set(
        "serve.rejected_busy",
        (a.rejected_busy - b.rejected_busy) as f64,
        "count",
    );
    sheet.set("serve.expired", (a.expired - b.expired) as f64, "count");
    sheet.set(
        "serve.engine_errors",
        (a.engine_errors - b.engine_errors) as f64,
        "count",
    );
    sheet.set(
        "serve.conns_evicted_slow",
        (a.conns_evicted_slow - b.conns_evicted_slow) as f64,
        "count",
    );
    // The server's own admit-to-done histogram (log2 buckets, ±50 %),
    // read after the first step so it covers that step plus warm-up.
    let first = first_step_server.as_ref().expect("at least one step");
    let admit_p50 = first.latency.p50_nanos as f64 * 1e-6;
    sheet.set("serve.admit_to_done_p50_ms", admit_p50, "ms");
    sheet.set(
        "serve.admit_to_done_p99_ms",
        first.latency.p99_nanos as f64 * 1e-6,
        "ms",
    );
    sheet.set(
        "serve.outside_server_ms",
        median(&steps[0].latencies()) - admit_p50,
        "ms",
    );
    let forward = |s: &TelemetrySnapshot| s.span("forward").map_or((0, 0), |f| (f.nanos, f.count));
    let (fa, fb) = (forward(&tel_after), forward(&tel_before));
    sheet.set("serve.kernel_busy_s", (fa.0 - fb.0) as f64 * 1e-9, "s");

    // ---- Per-layer: inference and kernel, through the served network.
    // The benchmark never calls `run` itself here, so it times no call.
    sheet.set("inference.run_p50_ms", 0.0, "ms");
    sheet.set("inference.calls", (fa.1 - fb.1) as f64, "count");
    sheet.set("inference.samples", batched as f64, "count");
    sheet.set("inference.plan_swaps", network.plan_swaps() as f64, "count");
    sheet.set("inference.epoch", network.epoch() as f64, "count");
    kernel_metrics(&mut sheet, &tel_before, &tel_after, batched);
    let (first_batch, _) = ready
        .inputs
        .pool
        .batch(&(0..32).collect::<Vec<_>>())
        .map_err(|e| e.to_string())?;
    sim_metrics(&mut sheet, &ready.oracle, &first_batch)?;

    // ---- Per-layer: aging and scrubbing.
    if aging {
        let age_ms: Vec<f64> = steps
            .iter()
            .flat_map(|s| s.age_ms.iter().copied())
            .collect();
        sheet.set("aging.age_ms", median(&age_ms), "ms");
        sheet.set("aging.steps", age_ms.len() as f64, "count");
        let passes = a.scrub_passes - b.scrub_passes;
        let repairs = a.scrub_repairs - b.scrub_repairs;
        sheet.set("scrub.passes", passes as f64, "count");
        sheet.set(
            "scrub.tiles",
            (a.scrub_tiles - b.scrub_tiles) as f64,
            "count",
        );
        sheet.set("scrub.repairs", repairs as f64, "count");
        sheet.set(
            "scrub.repairs_per_pass",
            if passes == 0 {
                0.0
            } else {
                repairs as f64 / passes as f64
            },
            "repairs/pass",
        );
        sheet.set(
            "scrub.plan_swaps",
            (a.plan_swaps - b.plan_swaps) as f64,
            "count",
        );
    }

    // The frozen pre-serving clone's accuracy on the pool.
    let pristine = f64::from(
        ready
            .oracle
            .accuracy(&ready.inputs.pool)
            .map_err(|e| e.to_string())?,
    );
    sheet.set("accuracy.pristine", pristine, "fraction");
    let accuracy_ok = accuracy >= pristine - ACCURACY_SLACK;
    if !accuracy_ok {
        eprintln!(
            "{}: accuracy {accuracy:.4} trails the pristine {pristine:.4} by more than {ACCURACY_SLACK}",
            args.workload
        );
    }
    Ok(Outcome {
        correct: mismatches == 0 && accuracy_ok,
        attempted: attempted as u64,
        failed: failed as u64,
        sheet,
        idle: if aging {
            &["analog."]
        } else {
            &["aging.", "scrub.", "analog."]
        },
    })
}
