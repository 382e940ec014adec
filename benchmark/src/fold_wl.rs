//! `fold_offline`: the merge library alone — one thread, no simulator, no
//! daemon — on seeded synthetic traces, so that a merge win (or loss)
//! cannot hide behind scheduler noise.

use scalatrace::format::to_text;
use scalatrace::merge::{merge_all, merge_traces_reference, merge_traces_with_metrics};
use scalatrace::CompressedTrace;

use crate::gen::{fnv64, FoldInputs, FoldShape, Rng};
use crate::harness::{OpOut, Workload};
use crate::json::Json;
use crate::spans::SpanLog;

/// One op: a 512-wide SPMD fold and 3 + 8 + 8 pairwise merges at
/// n = 1024 — half the issue's sizing, so a 15 s run still holds about
/// 250 ops. The ranklist-union fold, the DP of the disjoint pairs and the
/// trim path of the near-identical and identical pairs each keep a
/// visible share of the op.
pub const SHAPE: FoldShape = FoldShape {
    width: 512,
    disjoint: 3,
    near: 8,
    identical: 8,
};

pub struct FoldWorkload {
    inputs: FoldInputs,
    /// What `merge_traces_reference` makes of the same inputs: the fold
    /// first, then one result per pair.
    expected: Vec<CompressedTrace>,
    /// Text size of all expected results: the op's output bytes.
    merged_bytes: u64,
    /// What the golden file pins for this seed, as observed in set-up.
    pub seen: Json,
    /// False when this is the golden seed and `seen` is not what is pinned.
    pins_hold: bool,
}

impl FoldWorkload {
    /// Generate the inputs from the seed, compute the reference results
    /// and run one warm-up op. `pinned` is the golden entry when `seed`
    /// is the golden seed; other seeds rely on the differential check.
    pub fn setup(seed: u64, pinned: Option<Json>) -> FoldWorkload {
        let inputs = FoldInputs::generate(&mut Rng::new(seed), &SHAPE);
        let mut expected = Vec::with_capacity(1 + inputs.pairs.len());
        let mut spmd = inputs.spmd.iter();
        let first = spmd.next().expect("fold width is at least one").clone();
        expected.push(spmd.fold(first, |acc, t| merge_traces_reference(&acc, t)));
        for p in &inputs.pairs {
            expected.push(merge_traces_reference(&p.a, &p.b));
        }
        let mut all_text = String::new();
        for t in &expected {
            all_text.push_str(&to_text(t));
        }
        let seen = Json::obj([
            (
                "merged_fnv",
                Json::Str(format!("{:016x}", fnv64(all_text.as_bytes()))),
            ),
            ("merged_bytes", Json::Num(all_text.len() as f64)),
        ]);
        let w = FoldWorkload {
            inputs,
            expected,
            merged_bytes: all_text.len() as u64,
            pins_hold: pinned.is_none_or(|p| p == seen),
            seen,
        };
        w.op(0, 0, &mut SpanLog::off());
        w
    }
}

impl Workload for FoldWorkload {
    fn clients(&self) -> usize {
        1
    }

    fn round(&self) -> usize {
        1
    }

    fn op(&self, _client: usize, _i: usize, log: &mut SpanLog) -> OpOut {
        let folded = log.span("scalatrace.merge_all", |log| {
            log.count("traces", self.inputs.spmd.len() as u64);
            merge_all(self.inputs.spmd.iter())
        });
        let mut ok = self.pins_hold && folded == self.expected[0];
        for (p, want) in self.inputs.pairs.iter().zip(&self.expected[1..]) {
            let merged = log.span("scalatrace.merge_traces", |log| {
                let (merged, met) = merge_traces_with_metrics(&p.a, &p.b);
                log.count("dp_cells", met.dp_cells);
                merged
            });
            ok &= merged == *want;
        }
        OpOut {
            ok,
            bytes: self.merged_bytes,
        }
    }

    fn finish(&mut self, _ops: u64) -> Result<(), String> {
        Ok(())
    }
}
