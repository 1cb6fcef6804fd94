//! The in-process workloads: `survey_audit` and `river_reach`, driven
//! through the `gdp` library API.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use gdp::prelude::*;

use crate::gen::{Revision, RiverNet, Rng, Survey};
use crate::oracle;
use crate::stats::{OpError, Samples, Tally};

/// Survey scene size: models × readings per model.
pub const SURVEY_MODELS: usize = 8;
pub const SURVEY_READINGS: usize = 2000;
/// Timed full audits per round (after one untimed warm-up audit).
pub const SURVEY_FULL: usize = 2;
/// Revisions per round, each committed and followed by an incremental
/// audit.
pub const SURVEY_REVISIONS: usize = 12;
/// Set-ups timed per round (the last one is used): set-up is short, so it
/// is sampled more often than once per round.
pub const SETUPS: usize = 3;
/// Audit workers: the machine this benchmark was sized on has two cores.
pub const WORKERS: usize = 2;

/// River network: reachable pairs, the longest path, and revisions per
/// round.
pub const RIVER_PAIRS: usize = 4500;
pub const RIVER_DEPTH: usize = 12;
pub const RIVER_REVISIONS: usize = 8;

/// What one in-process run measured.
#[derive(Default)]
pub struct InprocRun {
    pub setup: Samples,
    pub read: Samples,
    pub write: Samples,
    pub tally: Tally,
}

fn engine(e: SpecError) -> OpError {
    OpError::Failed(e.to_string())
}

/// The fact `m'reading(object, value)`.
pub fn reading(m: usize, object: String, value: i64) -> FactPat {
    FactPat::new("reading")
        .arg(Pat::Atom(object))
        .arg(Pat::Int(value))
        .model(Pat::Atom(format!("m{m}")))
}

/// Take the scene in `SETUPS` times, timing each, and keep the last
/// specification. The facts are built before each timing starts.
fn timed_setups(
    samples: &mut Samples,
    facts: impl Fn() -> Vec<FactPat>,
    build: impl Fn(Vec<FactPat>) -> Specification,
) -> Specification {
    let mut spec = None;
    for _ in 0..SETUPS {
        let facts = facts();
        drop(spec.take());
        let t = Instant::now();
        spec = Some(build(facts));
        samples.push(t.elapsed());
    }
    spec.expect("at least one set-up")
}

/// The survey's facts in assertion order, built before setup is timed.
pub fn survey_facts(s: &Survey) -> Vec<FactPat> {
    s.order
        .iter()
        .map(|&(m, i)| reading(m, format!("o{m}_{i}"), s.values[m][i]))
        .collect()
}

/// Take a survey into a fresh specification: models, readings, the
/// per-model `reading_gap` constraint, and a world view of every model.
pub fn survey_spec(s: &Survey, facts: Vec<FactPat>) -> Specification {
    let mut spec = Specification::new();
    let mut view = vec!["omega".to_string()];
    for m in 0..s.models() {
        spec.declare_model(&format!("m{m}"));
        view.push(format!("m{m}"));
    }
    for fact in facts {
        spec.assert_fact(fact).expect("ground reading");
    }
    let gap = s.readings as i64 - 1;
    for m in 0..s.models() {
        let model = Pat::Atom(format!("m{m}"));
        let lookup = |obj: &str, val: &str| {
            Formula::fact(
                FactPat::new("reading")
                    .arg(Pat::var(obj))
                    .arg(Pat::var(val))
                    .model(model.clone()),
            )
        };
        spec.constrain(
            Constraint::new("reading_gap")
                .model(model.clone())
                .witness(Pat::var("X"))
                .witness(Pat::var("Y"))
                .when(Formula::all(vec![
                    lookup("X", "V1"),
                    lookup("Y", "V2"),
                    Formula::Cmp(CmpOp::Lt, Pat::var("V1"), Pat::var("V2")),
                    Formula::Cmp(
                        CmpOp::NumEq,
                        Pat::var("V2"),
                        Pat::app("+", vec![Pat::var("V1"), Pat::Int(gap)]),
                    ),
                ])),
        )
        .expect("safe constraint");
    }
    let refs: Vec<&str> = view.iter().map(String::as_str).collect();
    spec.set_world_view(&refs).expect("declared models");
    spec.set_incremental(true);
    spec
}

/// The violations the survey's current values must produce.
pub fn expected_violations(s: &Survey) -> BTreeSet<(String, String, String)> {
    let gap = s.readings as i64 - 1;
    let mut out = BTreeSet::new();
    for (m, values) in s.values.iter().enumerate() {
        let readings: Vec<(String, i64)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (format!("o{m}_{i}"), v))
            .collect();
        for (x, y) in oracle::gap_pairs(&readings, gap) {
            out.insert((format!("m{m}"), x, y));
        }
    }
    out
}

/// Check an audit report against the expected violations.
pub fn check_report(
    report: SpecResult<AuditReport>,
    expected: &BTreeSet<(String, String, String)>,
) -> Result<(), OpError> {
    let report = report.map_err(engine)?;
    if !report.is_complete() {
        return Err(OpError::Failed(format!(
            "audit incomplete: {} member(s) failed",
            report.incomplete.len()
        )));
    }
    let reported: Vec<(String, String, String)> = report
        .violations
        .iter()
        .map(|v| {
            let w: Vec<String> = v.witnesses.iter().map(ToString::to_string).collect();
            (
                v.model.to_string(),
                w.first().cloned().unwrap_or_default(),
                w.get(1).cloned().unwrap_or_default(),
            )
        })
        .collect();
    oracle::check_violations(expected, &reported).map_err(OpError::Wrong)
}

/// Commit one revision as a transaction, returning its delta.
pub fn commit_revision(spec: &mut Specification, rev: Revision) -> SpecResult<gdp::engine::Delta> {
    let object = format!("o{}_{}", rev.model, rev.index);
    spec.begin_txn()?;
    if !spec.retract_fact(reading(rev.model, object.clone(), rev.old))? {
        spec.rollback_txn()?;
        return Err(SpecError::Transaction(format!(
            "reading {object} was not stored"
        )));
    }
    spec.assert_fact(reading(rev.model, object, rev.new))?;
    spec.commit_txn()
}

/// The survey scene and revision stream of a seed.
pub fn survey_inputs(seed: u64) -> (Survey, Rng) {
    let rng = Rng::new(seed);
    let survey = Survey::generate(&mut rng.fork(1), SURVEY_MODELS, SURVEY_READINGS);
    (survey, rng.fork(2))
}

/// `survey_audit`: rounds of set-up, full audits, and a stream of
/// revisions each committed and followed by an incremental audit.
pub fn survey_audit(seed: u64, budget: Duration) -> InprocRun {
    let (mut survey, mut revs) = survey_inputs(seed);
    let mut run = InprocRun::default();
    let start = Instant::now();
    while run.setup.is_empty() || start.elapsed() < budget {
        let mut spec = timed_setups(
            &mut run.setup,
            || survey_facts(&survey),
            |f| survey_spec(&survey, f),
        );
        let expected = expected_violations(&survey);
        // Warm-up, untimed: also fills the per-member audit cache that
        // the incremental audits splice into.
        run.tally
            .record(check_report(spec.audit_world_views(WORKERS), &expected));
        for _ in 0..SURVEY_FULL {
            let t = Instant::now();
            let report = spec.audit_world_views(WORKERS);
            run.read.push(t.elapsed());
            run.tally.record(check_report(report, &expected));
        }
        for _ in 0..SURVEY_REVISIONS {
            let rev = survey.revise(&mut revs);
            let t = Instant::now();
            let report = commit_revision(&mut spec, rev)
                .and_then(|delta| spec.audit_incremental(&delta, WORKERS));
            run.write.push(t.elapsed());
            run.tally
                .record(check_report(report, &expected_violations(&survey)));
        }
    }
    run
}

fn edge(a: &str, b: &str) -> FactPat {
    FactPat::new("edge")
        .arg(Pat::Atom(a.to_string()))
        .arg(Pat::Atom(b.to_string()))
}

pub fn river_facts(net: &RiverNet) -> Vec<FactPat> {
    net.edges.iter().map(|(a, b)| edge(a, b)).collect()
}

/// Take a river network into a fresh specification with the
/// left-recursive `reach/2` and tabling on for every predicate.
pub fn river_spec(facts: Vec<FactPat>) -> Specification {
    let mut spec = Specification::new();
    for fact in facts {
        spec.assert_fact(fact).expect("ground edge");
    }
    gdp::lang::load(
        &mut spec,
        "reach(X, Y) :- reach(X, Z), edge(Z, Y).\nreach(X, Y) :- edge(X, Y).\n",
    )
    .expect("reach rules");
    spec.set_budget(u64::MAX, 4096);
    spec.enable_tabling(true);
    spec.set_table_all(true);
    spec
}

/// Run the full closure `reach(X, Y)` and check it against `expected`.
pub fn checked_closure(
    spec: &Specification,
    expected: &BTreeSet<(String, String)>,
) -> (Duration, Result<(), OpError>) {
    let t = Instant::now();
    let answers = spec.query(FactPat::new("reach").arg("X").arg("Y"));
    let dt = t.elapsed();
    let outcome = answers.map_err(engine).and_then(|answers| {
        let pairs: Vec<(String, String)> = answers
            .iter()
            .map(|a| {
                let x = a.get("X").map(ToString::to_string).unwrap_or_default();
                let y = a.get("Y").map(ToString::to_string).unwrap_or_default();
                (x, y)
            })
            .collect();
        oracle::check_closure(expected, &pairs).map_err(OpError::Wrong)
    });
    (dt, outcome)
}

/// The river revision stream: revision `k` removes a seeded edge of the
/// base network (`k` even) or restores the edge the previous revision
/// removed (`k` odd), so every round starts and ends on the base.
pub struct RiverRevisions {
    rng: Rng,
    removed: Option<usize>,
    /// `live[i]`: is base edge `i` present?
    pub live: Vec<bool>,
}

impl RiverRevisions {
    pub fn new(rng: Rng, net: &RiverNet) -> RiverRevisions {
        RiverRevisions {
            rng,
            removed: None,
            live: vec![true; net.edges.len()],
        }
    }

    /// Apply the next revision to `spec` as one transaction.
    pub fn apply(&mut self, spec: &mut Specification, net: &RiverNet) -> SpecResult<()> {
        spec.begin_txn()?;
        match self.removed.take() {
            None => {
                let i = self.rng.below(net.edges.len());
                let (a, b) = &net.edges[i];
                spec.retract_fact(edge(a, b))?;
                self.live[i] = false;
                self.removed = Some(i);
            }
            Some(i) => {
                let (a, b) = &net.edges[i];
                spec.assert_fact(edge(a, b))?;
                self.live[i] = true;
            }
        }
        spec.commit_txn().map(|_| ())
    }

    /// BFS closure of the current edge list.
    pub fn closure(&self, net: &RiverNet) -> BTreeSet<(String, String)> {
        oracle::bfs_closure(
            net.edges
                .iter()
                .zip(&self.live)
                .filter(|(_, &l)| l)
                .map(|(e, _)| e),
        )
    }
}

/// The river network and revision stream of a seed.
pub fn river_inputs(seed: u64) -> (RiverNet, RiverRevisions) {
    let net = RiverNet::generate(seed, RIVER_PAIRS, RIVER_DEPTH);
    let revisions = RiverRevisions::new(Rng::new(seed).fork(3), &net);
    (net, revisions)
}

/// `river_reach`: rounds of set-up, one warm-up closure, and a stream of
/// edge revisions, each committed and followed by the full closure (the
/// revision invalidated it, so it is evaluated afresh) and by a second,
/// table-answered closure.
pub fn river_reach(seed: u64, budget: Duration) -> InprocRun {
    let (net, mut revisions) = river_inputs(seed);
    let base = oracle::bfs_closure(&net.edges);
    let mut run = InprocRun::default();
    let start = Instant::now();
    while run.setup.is_empty() || start.elapsed() < budget {
        let mut spec = timed_setups(&mut run.setup, || river_facts(&net), river_spec);
        run.tally.record(checked_closure(&spec, &base).1);
        for _ in 0..RIVER_REVISIONS {
            let t = Instant::now();
            let applied = revisions.apply(&mut spec, &net);
            let commit = t.elapsed();
            let expected = revisions.closure(&net);
            match applied {
                Ok(()) => {
                    let (dt, outcome) = checked_closure(&spec, &expected);
                    run.write.push(commit + dt);
                    run.tally.record(outcome);
                }
                Err(e) => run.tally.record(Err(engine(e))),
            }
            let (dt, outcome) = checked_closure(&spec, &expected);
            run.read.push(dt);
            run.tally.record(outcome);
        }
    }
    run
}
