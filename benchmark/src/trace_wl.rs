//! `trace_online` and `trace_finalize`: the simulated applications traced
//! the paper's way (Chameleon, K-lead online merge) and the way it
//! replaces (ScalaTrace, all-rank merge at finalize).
//!
//! Both run on one pinned CPU with `Overrides::workers = 1`: unpinned, the
//! same run flips between two modes a factor of three apart.

use std::sync::Arc;

use mpisim::CostModel;
use scalatrace::format::{from_text, to_text};
use workloads::driver::{run, Mode, Overrides};
use workloads::{registry, Class, Workload as App};

use crate::gen::{fnv64, Rng};
use crate::harness::{OpOut, Workload};
use crate::json::Json;
use crate::spans::SpanLog;

/// `registry` scale factor (the largest divisor of each application's
/// call frequency not above it is what applies).
pub const SCALE: usize = 10;

/// Applications and world sizes of `trace_online`.
///
/// CG is left out: its clustered replay drops 840 receives, each of which
/// waits out a 250 ms timeout, so the op would measure a timer (3.8 s)
/// and not the system. EMF stays at 64 ranks in both workloads because
/// its step count is not monotonic in P (63 steps at P=64, 387 at P=32,
/// 283 at P=128, where one ScalaTrace run takes 14 s).
pub const ONLINE_INPUTS: [(&str, usize); 5] = [
    ("BT", 32),
    ("LU", 32),
    ("POP", 32),
    ("S3D", 32),
    ("EMF", 64),
];

/// Applications and world sizes of `trace_finalize`: twice as wide,
/// because the width of the finalize-time merge is what it is about.
pub const FINALIZE_INPUTS: [(&str, usize); 5] = [
    ("BT", 64),
    ("LU", 64),
    ("S3D", 64),
    ("POP", 64),
    ("EMF", 64),
];

#[derive(Clone, Copy, PartialEq)]
pub enum Path {
    /// `run(Chameleon)` → `to_text` → `from_text` → `replay`.
    Online,
    /// `run(ScalaTrace)` → `to_text`.
    Finalize,
}

struct Input {
    key: String,
    app: Arc<dyn App>,
    p: usize,
    /// The pinned observation; `None` only while goldens are written.
    pinned: Option<Json>,
}

pub struct TraceWorkload {
    path: Path,
    inputs: Vec<Input>,
    /// Seeded rotation over the inputs.
    order: Vec<usize>,
}

pub fn sim_overrides() -> Overrides {
    Overrides {
        workers: 1,
        ..Overrides::default()
    }
}

impl TraceWorkload {
    /// Build the inputs, fix the rotation from the seed, and run one
    /// warm-up rotation. `pinned` looks up the golden entry of an input;
    /// the traces do not depend on the seed, so the pins hold on all.
    pub fn setup(path: Path, seed: u64, pinned: impl Fn(&str) -> Option<Json>) -> TraceWorkload {
        let list = match path {
            Path::Online => ONLINE_INPUTS,
            Path::Finalize => FINALIZE_INPUTS,
        };
        let inputs: Vec<Input> = list
            .iter()
            .map(|&(name, p)| {
                let key = format!("{name}/p{p}");
                Input {
                    pinned: pinned(&key),
                    key,
                    app: registry::workload(name, SCALE),
                    p,
                }
            })
            .collect();
        let order = Rng::new(seed).permutation(inputs.len());
        let w = TraceWorkload {
            path,
            inputs,
            order,
        };
        for i in 0..w.round() {
            w.op(0, i, &mut SpanLog::off());
        }
        w
    }

    /// Run one input and describe what came out: the values the golden
    /// file pins. The second value is whether the op's differential
    /// checks held; the third the trace-text size.
    fn observe(&self, input: &Input, log: &mut SpanLog) -> (Json, bool, u64) {
        let mode = match self.path {
            Path::Online => Mode::Chameleon,
            Path::Finalize => Mode::ScalaTrace,
        };
        let report = log.span("workloads.run", |_| {
            run(input.app.clone(), Class::D, input.p, mode, sim_overrides())
        });
        let Some(trace) = report.global_trace else {
            return (Json::Null, false, 0);
        };
        let text = log.span("scalatrace.to_text", |log| {
            let text = to_text(&trace);
            log.count("bytes", text.len() as u64);
            text
        });
        let mut seen = vec![
            (
                "text_fnv",
                Json::Str(format!("{:016x}", fnv64(text.as_bytes()))),
            ),
            ("text_bytes", Json::Num(text.len() as f64)),
        ];
        let mut ok = true;
        if self.path == Path::Online {
            let back = log.span("scalatrace.from_text", |log| {
                log.count("bytes", text.len() as u64);
                from_text(&text)
            });
            let replayed = back.as_ref().ok().and_then(|back| {
                log.span("scalareplay.replay", |log| {
                    let r = scalareplay::replay(back, input.p, CostModel::default()).ok()?;
                    log.count("events", r.events_executed);
                    Some(r)
                })
            });
            // The text form must carry the whole trace, and a clustered
            // trace of these applications replays without losing events.
            ok = back.is_ok_and(|back| back == trace);
            match replayed {
                None => ok = false,
                Some(r) => {
                    seen.push(("events_executed", Json::Num(r.events_executed as f64)));
                    seen.push(("dropped_events", Json::Num(r.dropped_events as f64)));
                }
            }
        }
        (Json::obj(seen), ok, text.len() as u64)
    }

    /// What the golden file should pin for every input, as observed now.
    pub fn golden_entries(&self) -> Json {
        Json::obj(self.inputs.iter().map(|input| {
            let (seen, ok, _) = self.observe(input, &mut SpanLog::off());
            assert!(ok, "{}: differential check failed while pinning", input.key);
            (input.key.clone(), seen)
        }))
    }
}

impl Workload for TraceWorkload {
    fn clients(&self) -> usize {
        1
    }

    fn round(&self) -> usize {
        self.inputs.len()
    }

    fn op(&self, _client: usize, i: usize, log: &mut SpanLog) -> OpOut {
        let input = &self.inputs[self.order[i % self.order.len()]];
        let (seen, ok, bytes) = self.observe(input, log);
        OpOut {
            ok: ok && input.pinned.as_ref() == Some(&seen),
            bytes,
        }
    }

    fn finish(&mut self, _ops: u64) -> Result<(), String> {
        Ok(())
    }
}
