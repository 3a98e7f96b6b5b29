//! Cross-layer metrics registry: counters and virtual-time histograms.
//!
//! The registry follows the plane's gate discipline: one `AtomicBool` load
//! on the hot path, and when the gate is off nothing else runs — no name
//! formatting, no map lookup, no allocation. Hot loops that cannot even afford the name
//! lookup hold a pre-resolved [`Counter`] handle (one `Arc<AtomicU64>`),
//! so the enabled path is a single relaxed fetch-add.
//!
//! Histograms bucket virtual-time durations (read from `SimClock` by the
//! caller) on a fixed log scale, so exports are deterministic under the
//! simulation harness.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Fixed histogram bucket upper bounds, in virtual seconds.
const BUCKET_BOUNDS: [f64; 8] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];

/// A pre-resolved counter handle: one atomic add when enabled, one atomic
/// load when not. Cloning shares the underlying cell.
#[derive(Clone, Debug)]
pub struct Counter {
    enabled: Arc<AtomicBool>,
    cell: Arc<AtomicU64>,
}

impl Counter {
    pub fn incr(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Acquire) {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket virtual-time histogram.
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_BOUNDS.len() + 1],
    sum_nanos: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: Default::default(),
            sum_nanos: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    fn observe(&self, value: Duration) {
        let secs = value.as_secs_f64();
        let idx = BUCKET_BOUNDS
            .iter()
            .position(|&b| secs <= b)
            .unwrap_or(BUCKET_BOUNDS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos
            .fetch_add(value.as_nanos() as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> Duration {
        Duration::from_nanos(self.sum_nanos.load(Ordering::Relaxed))
    }

    /// Interpolated q-quantile (Prometheus `histogram_quantile` rules):
    /// find the first bucket whose cumulative count reaches `q * count`,
    /// then interpolate linearly between that bucket's bounds. The lowest
    /// bucket interpolates from zero; a rank landing in the `+Inf` bucket
    /// reports the highest finite bound (the estimate saturates there).
    /// `None` for an empty histogram or a `q` outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let count = self.count();
        if count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = q * count as f64;
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if (cumulative as f64) < rank {
                continue;
            }
            let Some(&upper) = BUCKET_BOUNDS.get(i) else {
                // +Inf bucket: saturate at the largest finite bound.
                return Some(Duration::from_secs_f64(BUCKET_BOUNDS[BUCKET_BOUNDS.len() - 1]));
            };
            let lower = if i == 0 { 0.0 } else { BUCKET_BOUNDS[i - 1] };
            let in_bucket = bucket.load(Ordering::Relaxed);
            if in_bucket == 0 {
                return Some(Duration::from_secs_f64(upper));
            }
            let below = cumulative - in_bucket;
            let fraction = ((rank - below as f64) / in_bucket as f64).clamp(0.0, 1.0);
            return Some(Duration::from_secs_f64(lower + (upper - lower) * fraction));
        }
        None
    }

    /// Cumulative bucket counts paired with their `le` bound rendering
    /// (the last entry is `+Inf`).
    pub fn cumulative(&self) -> Vec<(String, u64)> {
        let mut total = 0;
        let mut out = Vec::with_capacity(self.buckets.len());
        for (i, bucket) in self.buckets.iter().enumerate() {
            total += bucket.load(Ordering::Relaxed);
            let le = match BUCKET_BOUNDS.get(i) {
                Some(bound) => format!("{bound}"),
                None => "+Inf".to_string(),
            };
            out.push((le, total));
        }
        out
    }
}

/// The registry. Keys are full Prometheus-style series names, labels
/// included (e.g. `signals_transmitted_total{set="Bill"}`); the exporter
/// groups series into families by the name before the `{`.
#[derive(Clone)]
pub struct MetricsRegistry {
    inner: Arc<MetricsInner>,
}

struct MetricsInner {
    enabled: Arc<AtomicBool>,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// A registry sharing the recorder's enabled gate.
    pub(crate) fn with_gate(enabled: Arc<AtomicBool>) -> MetricsRegistry {
        MetricsRegistry {
            inner: Arc::new(MetricsInner {
                enabled,
                counters: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// A standalone always-enabled registry (tests, exporters).
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::with_gate(Arc::new(AtomicBool::new(true)))
    }

    fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Acquire)
    }

    /// Resolve (registering on first use) a counter handle for hot loops.
    /// The handle stays valid for the life of the registry and costs one
    /// atomic add per increment.
    pub fn counter(&self, name: &str) -> Counter {
        let cell = {
            let mut counters = self.inner.counters.lock();
            counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0)))
                .clone()
        };
        Counter {
            enabled: self.inner.enabled.clone(),
            cell,
        }
    }

    /// One-shot increment by name. Gated before any lookup or allocation.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// One-shot add by name. Gated before any lookup or allocation.
    pub fn add(&self, name: &str, n: u64) {
        if !self.enabled() {
            return;
        }
        let cell = {
            let mut counters = self.inner.counters.lock();
            counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0)))
                .clone()
        };
        cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one dimensionless, count-valued observation (batch sizes,
    /// byte counts) into a histogram. The value maps 1:1 onto the fixed
    /// bucket scale (a batch of 8 records buckets like 8 virtual seconds),
    /// so count histograms share the deterministic export path; consumers
    /// of count series read `sum`/`count` (e.g. mean group size) rather
    /// than the sub-second buckets.
    pub fn observe_count(&self, name: &str, value: u64) {
        self.observe(name, Duration::from_secs_f64(value as f64));
    }

    /// Record one observation into a histogram. Gated before any lookup.
    pub fn observe(&self, name: &str, value: Duration) {
        if !self.enabled() {
            return;
        }
        let hist = {
            let mut histograms = self.inner.histograms.lock();
            histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new()))
                .clone()
        };
        hist.observe(value);
    }

    /// Current value of a counter series (0 if never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner
            .counters
            .lock()
            .get(name)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Sum of every counter series whose family name (the part before any
    /// `{`) equals `family` — e.g. total detector transitions across all
    /// `{from=...,to=...}` label sets.
    pub fn family_total(&self, family: &str) -> u64 {
        self.inner
            .counters
            .lock()
            .iter()
            .filter(|(name, _)| {
                let base = name.split('{').next().unwrap_or(name);
                base == family
            })
            .map(|(_, c)| c.load(Ordering::Relaxed))
            .sum()
    }

    /// The live histogram behind a series name, if it was ever observed
    /// (quantile readers in the attribution report hold this handle).
    pub fn histogram(&self, name: &str) -> Option<Arc<Histogram>> {
        self.inner.histograms.lock().get(name).cloned()
    }

    /// Count of observations in a histogram series (0 if never touched).
    pub fn histogram_count(&self, name: &str) -> u64 {
        self.inner
            .histograms
            .lock()
            .get(name)
            .map(|h| h.count())
            .unwrap_or(0)
    }

    /// Prometheus text exposition (text/plain; version 0.0.4). Label
    /// values are escaped per the exposition format (`\` → `\\`,
    /// `"` → `\"`, newline → `\n`) — series names store the raw values
    /// exactly as callers formatted them, so the escaping happens here.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let counters = self.inner.counters.lock();
        let mut last_family = String::new();
        for (name, cell) in counters.iter() {
            let family = name.split('{').next().unwrap_or(name);
            if family != last_family {
                let _ = writeln!(out, "# TYPE {family} counter");
                last_family = family.to_string();
            }
            let _ = writeln!(out, "{} {}", escape_series_name(name), cell.load(Ordering::Relaxed));
        }
        drop(counters);
        let histograms = self.inner.histograms.lock();
        for (name, hist) in histograms.iter() {
            let name = escape_series_name(name);
            let _ = writeln!(out, "# TYPE {name} histogram");
            for (le, count) in hist.cumulative() {
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {count}");
            }
            let _ = writeln!(out, "{name}_sum {}", hist.sum().as_secs_f64());
            let _ = writeln!(out, "{name}_count {}", hist.count());
        }
        out
    }

    /// JSON snapshot (the `introspect` bin appends it to the introspection
    /// job's CI artifact).
    pub fn snapshot_json(&self) -> String {
        fn escape(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = String::from("{\n  \"counters\": {");
        let counters = self.inner.counters.lock();
        for (i, (name, cell)) in counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {}",
                escape(name),
                cell.load(Ordering::Relaxed)
            );
        }
        drop(counters);
        out.push_str("\n  },\n  \"histograms\": {");
        let histograms = self.inner.histograms.lock();
        for (i, (name, hist)) in histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{\"count\": {}, \"sum_seconds\": {}, \"buckets\": {{",
                escape(name),
                hist.count(),
                hist.sum().as_secs_f64()
            );
            for (j, (le, count)) in hist.cumulative().iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}\"{le}\": {count}");
            }
            out.push_str("}}");
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

/// Escape the label values of a stored series name for the Prometheus
/// text exposition format. Values are stored raw (`family{k="v"}` with
/// `v` verbatim), so a `"` inside a value is literal: it only closes the
/// value when followed by `,` or the final `}`. Inside values, `\`, `"`
/// and newline become `\\`, `\"` and `\n`; everything outside values is
/// structural and passes through untouched.
fn escape_series_name(name: &str) -> String {
    let Some(open) = name.find('{') else {
        return name.to_string();
    };
    if !name.ends_with('}') {
        return name.to_string();
    }
    let inner: Vec<char> = name[open + 1..name.len() - 1].chars().collect();
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str(&name[..=open]);
    let mut in_value = false;
    for (i, &c) in inner.iter().enumerate() {
        if !in_value {
            out.push(c);
            if c == '"' {
                in_value = true;
            }
            continue;
        }
        match c {
            '"' if matches!(inner.get(i + 1), None | Some(',')) => {
                out.push('"');
                in_value = false;
            }
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_export() {
        let m = MetricsRegistry::new();
        m.incr("retry_attempts_total");
        m.add("retry_attempts_total", 2);
        m.incr("signals_transmitted_total{set=\"Bill\"}");
        assert_eq!(m.counter_value("retry_attempts_total"), 3);
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE retry_attempts_total counter"));
        assert!(text.contains("retry_attempts_total 3"));
        assert!(text.contains("signals_transmitted_total{set=\"Bill\"} 1"));
    }

    #[test]
    fn disabled_gate_blocks_everything() {
        let gate = Arc::new(AtomicBool::new(false));
        let m = MetricsRegistry::with_gate(gate.clone());
        m.incr("x_total");
        m.observe("h", Duration::from_micros(3));
        let handle = m.counter("y_total");
        handle.incr();
        assert_eq!(m.counter_value("x_total"), 0);
        assert_eq!(m.histogram_count("h"), 0);
        assert_eq!(handle.get(), 0);
        gate.store(true, Ordering::Release);
        handle.incr();
        assert_eq!(handle.get(), 1);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = MetricsRegistry::new();
        m.observe("lat", Duration::from_micros(1)); // le 1e-6
        m.observe("lat", Duration::from_millis(2)); // le 1e-2
        m.observe("lat", Duration::from_secs(100)); // +Inf
        let text = m.render_prometheus();
        assert!(text.contains("lat_bucket{le=\"0.000001\"} 1"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_count 3"));
        assert_eq!(m.histogram_count("lat"), 3);
    }

    #[test]
    fn count_observations_accumulate_sum_and_count() {
        let m = MetricsRegistry::new();
        m.observe_count("wal_group_size", 4);
        m.observe_count("wal_group_size", 8);
        assert_eq!(m.histogram_count("wal_group_size"), 2);
        let text = m.render_prometheus();
        assert!(text.contains("wal_group_size_sum 12"));
        assert!(text.contains("wal_group_size_count 2"));
    }

    #[test]
    fn exposition_escapes_label_values() {
        let m = MetricsRegistry::new();
        // A label value containing a literal quote, a backslash and a
        // newline: the exposition format requires \" \\ and \n.
        m.incr("signals_total{set=\"Bi\"ll\",path=\"a\\b\"}");
        m.incr("notes_total{msg=\"line1\nline2\"}");
        let text = m.render_prometheus();
        assert!(
            text.contains("signals_total{set=\"Bi\\\"ll\",path=\"a\\\\b\"} 1"),
            "{text}"
        );
        assert!(text.contains("notes_total{msg=\"line1\\nline2\"} 1"), "{text}");
        // Unlabelled series and clean labels pass through untouched.
        m.incr("plain_total");
        m.incr("clean_total{k=\"v\"}");
        let text = m.render_prometheus();
        assert!(text.contains("plain_total 1"));
        assert!(text.contains("clean_total{k=\"v\"} 1"));
    }

    #[test]
    fn family_total_sums_label_sets() {
        let m = MetricsRegistry::new();
        m.incr("detector_transitions_total{from=\"healthy\",to=\"suspect\"}");
        m.add("detector_transitions_total{from=\"suspect\",to=\"quarantined\"}", 2);
        m.incr("other_total");
        assert_eq!(m.family_total("detector_transitions_total"), 3);
    }

    #[test]
    fn quantile_interpolates_within_a_bucket() {
        let h = Histogram::new();
        // Four observations, all in the (1e-4, 1e-3] bucket.
        for _ in 0..4 {
            h.observe(Duration::from_micros(500));
        }
        // Median rank 2 of 4 lands halfway up the bucket: 1e-4 + 0.5·9e-4.
        let p50 = h.quantile(0.5).expect("non-empty").as_secs_f64();
        assert!((p50 - 5.5e-4).abs() < 1e-9, "p50 = {p50}");
        // q=1.0 reaches the bucket's upper bound exactly.
        let p100 = h.quantile(1.0).expect("non-empty").as_secs_f64();
        assert!((p100 - 1e-3).abs() < 1e-9, "p100 = {p100}");
    }

    #[test]
    fn quantile_edge_buckets() {
        let h = Histogram::new();
        // Lowest bucket: interpolation starts from zero.
        h.observe(Duration::from_nanos(500)); // le 1e-6
        let p100 = h.quantile(1.0).expect("non-empty").as_secs_f64();
        assert!((p100 - 1e-6).abs() < 1e-12, "p100 = {p100}");
        // +Inf bucket: the estimate saturates at the largest finite bound.
        h.observe(Duration::from_secs(100));
        let top = h.quantile(1.0).expect("non-empty").as_secs_f64();
        assert!((top - 10.0).abs() < 1e-9, "top = {top}");
        // A low quantile still resolves inside the lowest bucket.
        let p25 = h.quantile(0.25).expect("non-empty").as_secs_f64();
        assert!(p25 <= 1e-6, "p25 = {p25}");
    }

    #[test]
    fn quantile_empty_and_out_of_range() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
        h.observe(Duration::from_micros(3));
        assert_eq!(h.quantile(-0.1), None);
        assert_eq!(h.quantile(1.5), None);
        assert_eq!(h.quantile(f64::NAN), None);
        assert!(h.quantile(0.0).is_some());
    }

    #[test]
    fn registry_exposes_live_histogram_handles() {
        let m = MetricsRegistry::new();
        assert!(m.histogram("lat").is_none());
        m.observe("lat", Duration::from_micros(500));
        let h = m.histogram("lat").expect("observed series");
        assert_eq!(h.count(), 1);
        assert!(h.quantile(0.5).is_some());
    }

    #[test]
    fn json_snapshot_is_parseable_shape() {
        let m = MetricsRegistry::new();
        m.incr("a_total");
        m.observe("h", Duration::from_micros(5));
        let json = m.snapshot_json();
        assert!(json.contains("\"a_total\": 1"));
        assert!(json.contains("\"count\": 1"));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    }
}
