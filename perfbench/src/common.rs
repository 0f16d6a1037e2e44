//! Shared benchmark plumbing: the seeded generator, percentile helpers,
//! the host memory probe, the metric sheet, and the in-memory span
//! recorder behind `--trace 1`.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// SplitMix64: a small, fully specified generator, so one `--seed`
/// yields the same inputs on every host and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// The `index`-th decorrelated stream of `seed`: every generator of a
/// workload (datasets, batch draws, schedules, aging) takes its own.
pub fn substream(seed: u64, index: u64) -> u64 {
    Rng::new(seed ^ index.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

/// Nearest-rank percentile of an unsorted sample (`q` in `[0, 1]`).
/// Returns `None` for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5).unwrap_or(f64::NAN)
}

/// Host memory high-water mark (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// CPU time (user + system) all threads of this process have used, in
/// seconds, from `/proc/self/stat` (fields 14 and 15, in the fixed
/// 100 Hz ticks Linux reports there).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after
    // its closing parenthesis, starting at field 3.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(user), Some(system)) => (user + system) / 100.0,
        _ => f64::NAN,
    }
}

/// What [`host_probe_ms`] takes on the reference host. Scaled figures
/// read as if every chunk had run at the reference speed.
pub const REF_PROBE_MS: f64 = 0.35;

/// Host-speed probe, in ms: the geometric mean of two fixed loops that
/// share no code or data with the program. One is integer and
/// latency-bound (300 000 SplitMix64 steps, best of three timings); the
/// other is floating-point and cache-bound (40 power-iteration steps of
/// a 96×96 `f64` matrix, 72 KiB, mean of three timings). On a shared
/// host the speed of one vCPU drifts by 30 % or more over tens of
/// seconds; the probe drifts with it.
pub fn host_probe_ms() -> f64 {
    let chain_ms = (0..3)
        .map(|_| {
            let started = Instant::now();
            let mut rng = Rng::new(7);
            let mut acc = 0u64;
            for _ in 0..300_000 {
                acc ^= rng.next_u64();
            }
            std::hint::black_box(acc);
            started.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min);
    const N: usize = 96;
    let m: Vec<f64> = (0..N * N).map(|i| (i % 13) as f64 * 0.1).collect();
    let matvec_ms = (0..3)
        .map(|_| {
            let started = Instant::now();
            let mut x = vec![1.0f64; N];
            for _ in 0..40 {
                let y: Vec<f64> = m
                    .chunks_exact(N)
                    .map(|row| row.iter().zip(&x).map(|(a, b)| a * b).sum::<f64>())
                    .collect();
                let norm = y.iter().map(|v| v.abs()).sum::<f64>().max(1e-9);
                x = y.iter().map(|v| v / norm).collect();
            }
            std::hint::black_box(x);
            started.elapsed().as_secs_f64() * 1e3
        })
        .sum::<f64>()
        / 3.0;
    (chain_ms * matvec_ms).sqrt()
}

/// CPU and wall time of a timed window, cut into chunks of whole
/// operations, with a host-speed probe at every chunk boundary. Each
/// figure is a median over the chunks, so a slow spell that spans a few
/// chunks moves a few values, not the result. The scaled figures divide
/// each chunk by the host speed the probes around it measured, which
/// also takes out drift that spans the whole window.
pub struct Chunks {
    /// Per chunk: CPU ms per operation, operations per wall second.
    raw: Vec<(f64, f64)>,
    /// One probe per chunk boundary, so one more than `raw`.
    probes: Vec<f64>,
    cpu_s: f64,
    at: Instant,
}

impl Chunks {
    /// Probes the host and starts the first chunk.
    pub fn start() -> Chunks {
        let probe = host_probe_ms();
        Chunks {
            raw: Vec::new(),
            probes: vec![probe],
            cpu_s: process_cpu_s(),
            at: Instant::now(),
        }
    }

    /// Ends the current chunk, which completed `ops` operations, probes
    /// the host, and starts the next chunk. The probe is not timed.
    pub fn mark(&mut self, ops: usize) {
        let (cpu_s, at) = (process_cpu_s(), Instant::now());
        if ops > 0 {
            self.raw.push((
                (cpu_s - self.cpu_s) * 1e3 / ops as f64,
                ops as f64 / (at - self.at).as_secs_f64(),
            ));
            self.probes.push(host_probe_ms());
        }
        (self.cpu_s, self.at) = (process_cpu_s(), Instant::now());
    }

    /// Host speed of chunk `i` relative to the reference host (above 1
    /// when the host ran slower).
    fn slowdown(&self, i: usize) -> f64 {
        (self.probes[i] + self.probes[i + 1]) / 2.0 / REF_PROBE_MS
    }

    /// Median over chunks of the process CPU time per operation, in ms.
    pub fn cpu_ms_per_op(&self) -> f64 {
        median(&self.raw.iter().map(|r| r.0).collect::<Vec<_>>())
    }

    /// Median over chunks of operations per second of wall time.
    pub fn ops_per_s(&self) -> f64 {
        median(&self.raw.iter().map(|r| r.1).collect::<Vec<_>>())
    }

    /// [`Chunks::cpu_ms_per_op`] at the reference host speed.
    pub fn scaled_cpu_ms_per_op(&self) -> f64 {
        let v: Vec<f64> = self
            .raw
            .iter()
            .enumerate()
            .map(|(i, r)| r.0 / self.slowdown(i))
            .collect();
        median(&v)
    }

    /// [`Chunks::ops_per_s`] at the reference host speed.
    pub fn scaled_ops_per_s(&self) -> f64 {
        let v: Vec<f64> = self
            .raw
            .iter()
            .enumerate()
            .map(|(i, r)| r.1 * self.slowdown(i))
            .collect();
        median(&v)
    }

    /// Median of the host-speed probes, in ms.
    pub fn probe_ms(&self) -> f64 {
        median(&self.probes)
    }

    /// Chunks ended so far.
    pub fn count(&self) -> usize {
        self.raw.len()
    }
}

/// Named metrics with units, kept in a stable order.
#[derive(Debug, Default)]
pub struct Sheet {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Sheet {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` for the listed
    /// `(name, unit)` pairs, in list order. A metric that was never set,
    /// is not finite, or was measured in another unit is an error: the
    /// benchmark never prints a made-up value.
    pub fn json_of(&self, metrics: &[(String, &str)]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(metrics.len());
        for (name, want) in metrics {
            let (v, unit) = self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite ({v})"));
            }
            if unit != want {
                return Err(format!("metric {name} is in {unit}, declared {want}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }

    /// Every metric, for the human-readable report.
    pub fn json_all(&self) -> String {
        let parts: Vec<String> = self
            .values
            .iter()
            .map(|(k, (v, u))| {
                let v = if v.is_finite() {
                    format!("{v:?}")
                } else {
                    "null".to_owned()
                };
                format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

/// Identifies an open span so children can name it as their parent.
pub type SpanId = u32;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    request: Option<u64>,
}

/// Records spans around the benchmark's own calls into the program.
/// Spans stay in memory and are written out once, at exit. A disabled
/// recorder does nothing, so untraced runs pay one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span between two instants.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(span);
        Some((spans.len() - 1) as SpanId)
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, now, now, parent, None)
    }

    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.ns(Instant::now());
            let mut spans = self.spans.lock().expect("span log poisoned");
            spans[id as usize].end_ns = end;
        }
    }

    /// Times `f` as a span.
    pub fn time<R>(&self, name: &'static str, parent: Option<SpanId>, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span log poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let request = s.request.map_or("null".to_owned(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {request}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

/// Runs `setup` `reps` times, timing each, and keeps the last result:
/// `setup_s` is the median of those times, so one slow start-up does
/// not decide it.
pub fn repeated_setup<T>(
    reps: usize,
    tracer: &Tracer,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Release the previous set-up (servers, threads) before the
        // next one starts.
        drop(last.take());
        let span = tracer.open("setup", None);
        let started = Instant::now();
        last = Some(setup()?);
        times.push(started.elapsed().as_secs_f64());
        tracer.close(span);
    }
    Ok((last.expect("at least one set-up"), times))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn substreams_differ() {
        assert_ne!(substream(1, 0), substream(1, 1));
        assert_ne!(substream(1, 0), substream(2, 0));
        assert_eq!(substream(7, 3), substream(7, 3));
    }
}
