//! The metric registry, sample statistics, and the result line.
//!
//! Every metric the benchmark can print is declared here once, with its
//! unit and direction; `BENCHMARK.json` lists the same names (a test keeps
//! the two in step). A run fills a [`Report`] and [`Report::render`]
//! refuses to print unless every metric of the selected set is present and
//! finite, so a metric can never silently go missing from the output.

use mggcn_trace::json::{escape, JsonWriter};
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// Tail percentiles reported for epochs and for query batches: the highest
/// ones that kept at least ten samples beyond them on every workload and
/// repeated within their bound from run to run (see `METRICS.md`).
pub const EPOCH_TAIL: f64 = 0.80;
pub const QUERY_TAIL: f64 = 0.95;

/// What a user of the system sees, measured with tracing off. All host
/// wall clock; no simulated-clock quantity appears here.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("epoch_ms_p50", "ms", Lower),
    m("epoch_ms_p80", "ms", Lower),
    m("query_ms_p50", "ms", Lower),
    m("query_ms_p95", "ms", Lower),
    m("serve_rps", "1/s", Higher),
    m("delta_ms_p50", "ms", Lower),
    m("peak_rss_mb", "MB", Lower),
    m("success_rate", "ratio", Higher),
];

/// Single layers, measured in a separate traced run. Kernel rows are at
/// the workload's own shapes; `*_flop` and `*_bytes` are the computed
/// operation count and compulsory bytes of one call.
pub const PER_LAYER: &[MetricDef] = &[
    // L0: host roofline, measured by the benchmark's own loops.
    m("host.stream_gbps", "GB/s", Higher),
    m("host.fma_gflops", "GFLOP/s", Higher),
    // L1: kernels.
    m("dense.gemm_ms", "ms", Lower),
    m("dense.gemm_gflops", "GFLOP/s", Higher),
    m("dense.gemm_flop", "count", Lower),
    m("dense.gemm_bytes", "B", Lower),
    m("dense.gemm_roofline_frac", "ratio", Higher),
    m("dense.gemm_at_b_ms", "ms", Lower),
    m("dense.gemm_at_b_gflops", "GFLOP/s", Higher),
    m("dense.gemm_at_b_flop", "count", Lower),
    m("dense.gemm_at_b_bytes", "B", Lower),
    m("dense.gemm_at_b_roofline_frac", "ratio", Higher),
    m("dense.gemm_a_bt_ms", "ms", Lower),
    m("dense.gemm_a_bt_gflops", "GFLOP/s", Higher),
    m("dense.gemm_a_bt_flop", "count", Lower),
    m("dense.gemm_a_bt_bytes", "B", Lower),
    m("dense.gemm_a_bt_roofline_frac", "ratio", Higher),
    m("sparse.spmm_ms", "ms", Lower),
    m("sparse.spmm_gbps", "GB/s", Higher),
    m("sparse.spmm_flop", "count", Lower),
    m("sparse.spmm_bytes", "B", Lower),
    m("sparse.spmm_roofline_frac", "ratio", Higher),
    m("sparse.spmm_rows_ms", "ms", Lower),
    m("sparse.spmm_rows_gbps", "GB/s", Higher),
    m("sparse.spmm_rows_roofline_frac", "ratio", Higher),
    m("comm.broadcast_ms", "ms", Lower),
    m("comm.broadcast_gbps", "GB/s", Higher),
    m("comm.broadcast_bytes", "B", Lower),
    m("comm.all_reduce_ms", "ms", Lower),
    m("comm.all_reduce_gbps", "GB/s", Higher),
    m("comm.all_reduce_bytes", "B", Lower),
    // L2: op bodies on the executor (per epoch, summed over workers).
    m("exec.wall_ms", "ms", Lower),
    m("exec.gemm_ms", "ms", Lower),
    m("exec.spmm_ms", "ms", Lower),
    m("exec.comm_ms", "ms", Lower),
    m("exec.other_ms", "ms", Lower),
    m("exec.barrier_ms", "ms", Lower),
    m("exec.barrier_share", "ratio", Lower),
    m("exec.bodies", "count", Lower),
    // L4: per-epoch fixed cost around the executor.
    m("core.overhead_ms", "ms", Lower),
    m("gpusim.build_ms", "ms", Lower),
    m("gpusim.simulate_ms", "ms", Lower),
    m("gpusim.ops", "count", Lower),
    m("analyze.preflight_ms", "ms", Lower),
    // Serving path.
    m("graph.khop_ms", "ms", Lower),
    m("graph.khop_vertices", "count", Lower),
    m("serve.batch_schedule_ms", "ms", Lower),
    m("serve.cache_hit_rate", "ratio", Higher),
    m("serve.evictions", "count", Lower),
    m("serve.invalidations", "count", Lower),
    // Set-up.
    m("graph.generate_s", "s", Lower),
    m("core.problem_s", "s", Lower),
    m("core.trainer_new_s", "s", Lower),
    m("serve.freeze_s", "s", Lower),
    // Cost of the traced run's extra calls, traced minus untraced p50.
    m("trace.epoch_overhead_ms", "ms", Lower),
    m("trace.query_overhead_ms", "ms", Lower),
];

/// Median of `samples` (mean of the two middle values for even counts).
/// Panics on an empty slice: every caller guarantees at least one sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `(0, 1]` of `samples`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "percentile out of range");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Whether `n` samples leave at least ten beyond percentile `q`.
pub fn tail_supported(n: usize, q: f64) -> bool {
    (n as f64 * (1.0 - q) + 1e-6).floor() >= 10.0
}

/// Samples of one quantity, grouped by the measurement round they fell in.
///
/// A run's figure is the median over rounds of each round's statistic, so a
/// slow spell of the host that covers a minority of the rounds does not
/// move it; it shows only if most of the run was slow.
#[derive(Debug, Default)]
pub struct Rounds(Vec<Vec<f64>>);

impl Rounds {
    /// Open the next round; later samples belong to it.
    pub fn start(&mut self) {
        self.0.push(Vec::new());
    }

    pub fn push(&mut self, v: f64) {
        if self.0.is_empty() {
            self.start();
        }
        self.0.last_mut().expect("a round is open").push(v);
    }

    /// Samples over all rounds.
    pub fn len(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All samples, round after round.
    pub fn all(&self) -> Vec<f64> {
        self.0.concat()
    }

    /// Median over the non-empty rounds of `stat` of each round. Panics when
    /// every round is empty.
    pub fn median_of(&self, stat: impl Fn(&[f64]) -> f64) -> f64 {
        let per_round: Vec<f64> =
            self.0.iter().filter(|r| !r.is_empty()).map(|r| stat(r)).collect();
        median(&per_round)
    }
}

/// Attempts and failures of one run: epochs, queries, deltas and every
/// output check count as attempts; any failure makes the run incorrect.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one attempt; on failure count it and say why on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
        ok
    }

    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            1.0 - self.failed as f64 / self.attempted as f64
        }
    }
}

/// Metric values of one run plus how many samples each came from.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Report {
    /// Record `name` (which must be registered) with its sample count.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(lookup(name).is_some(), "unregistered metric {name}");
        self.values.insert(name, (value, samples));
    }

    /// Human lines, one per metric of `set`: name, value, unit, samples
    /// and which direction is better.
    pub fn human(&self, set: &[MetricDef]) -> String {
        let mut out = String::new();
        for d in set {
            if let Some(&(v, n)) = self.values.get(d.name) {
                let better = d.better.name();
                out.push_str(&format!(
                    "{:<32} {v:>14.6} {:<8} n={n:<6} {better}\n",
                    d.name, d.unit
                ));
            }
        }
        out
    }

    /// `{"name": samples, ...}` over the metrics of `set`.
    pub fn sample_counts(&self, set: &[MetricDef]) -> String {
        let mut w = JsonWriter::new();
        for d in set {
            if let Some(&(_, n)) = self.values.get(d.name) {
                w = w.usize(d.name, n);
            }
        }
        w.finish()
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every metric of `set`. Errors when a
    /// metric is missing or not finite.
    pub fn render(&self, set: &[MetricDef], tally: Tally) -> Result<String, String> {
        let mut metrics = JsonWriter::new();
        for d in set {
            let &(v, _) = self.values.get(d.name).ok_or(format!("metric {} missing", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite ({v})", d.name));
            }
            let entry = format!("{{\"value\": {v}, \"unit\": \"{}\"}}", escape(d.unit));
            metrics = metrics.raw(d.name, &entry);
        }
        Ok(JsonWriter::new()
            .bool("correct", tally.failed == 0 && tally.attempted > 0)
            .u64("attempted", tally.attempted)
            .u64("failed", tally.failed)
            .raw("metrics", &metrics.finish())
            .finish())
    }
}

pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mggcn_trace::json::{parse, Value};
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad metric name {}", d.name);
            assert!(seen.insert(d.name), "duplicate metric name {}", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {} on {}",
                d.unit,
                d.name
            );
        }
    }

    #[test]
    fn metric_counts_fit_benchmark_json_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registered_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        for (key, set) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Value::as_arr).expect(key);
            assert_eq!(listed.len(), set.len(), "{key} count");
            for (entry, d) in listed.iter().zip(set) {
                assert_eq!(entry.get("name").and_then(Value::as_str), Some(d.name));
                assert_eq!(entry.get("unit").and_then(Value::as_str), Some(d.unit));
                assert_eq!(entry.get("better").and_then(Value::as_str), Some(d.better.name()));
            }
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(tail_supported(200, 0.95));
        assert!(!tail_supported(199, 0.95));
        assert!(tail_supported(100, 0.90));
        assert!(!tail_supported(99, 0.90));
    }

    #[test]
    fn round_medians_ignore_a_minority_of_slow_rounds() {
        let mut r = Rounds::default();
        for round in [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [10.0, 20.0, 30.0]] {
            r.start();
            for v in round {
                r.push(v);
            }
        }
        r.start(); // an empty round is skipped
        assert_eq!(r.len(), 9);
        assert_eq!(r.median_of(median), 2.0);
        assert_eq!(r.median_of(|s| percentile(s, 1.0)), 3.0);
        assert_eq!(median(&r.all()), 3.0);
    }

    #[test]
    fn a_failed_check_makes_the_result_incorrect() {
        let mut r = Report::default();
        for d in END_TO_END {
            r.set(d.name, 1.0, 1);
        }
        let mut t = Tally::default();
        t.check(true, String::new);
        let ok = parse(&r.render(END_TO_END, t).unwrap()).unwrap();
        assert_eq!(ok.get("correct"), Some(&Value::Bool(true)));
        t.check(false, || "injected mismatch".into());
        let bad = parse(&r.render(END_TO_END, t).unwrap()).unwrap();
        assert_eq!(bad.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(bad.get("failed").and_then(Value::as_num), Some(1.0));
        assert_eq!(bad.get("attempted").and_then(Value::as_num), Some(2.0));
    }

    #[test]
    fn render_refuses_missing_or_non_finite_metrics() {
        let mut r = Report::default();
        assert!(r.render(END_TO_END, Tally::default()).is_err());
        for d in END_TO_END {
            r.set(d.name, 1.0, 1);
        }
        r.set("setup_s", f64::NAN, 1);
        assert!(r.render(END_TO_END, Tally::default()).is_err());
    }
}
