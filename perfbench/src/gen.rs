//! Seeded input generators. Every input the program sees is made here
//! from `--seed`, together with the record the oracles check against.

use std::collections::BTreeSet;

/// SplitMix64: a small, self-contained generator, so the inputs do not
/// depend on the program's own random-number code.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent stream for one purpose (scene, session, …).
    pub fn fork(&self, tag: u64) -> Rng {
        let mut r = Rng(self.0 ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }
}

/// An `audit_world`-shaped survey: `models` models of `readings` integer
/// readings each. Reading `o{m}_0` holds 0 and `o{m}_{r-1}` holds `r-1`;
/// every other reading holds a seeded value strictly between them, so the
/// per-model constraint `reading_gap` (a pair `r-1` apart) is violated by
/// exactly the planted pair, whatever the seed and whatever the
/// revisions below do.
#[derive(Clone, Debug)]
pub struct Survey {
    pub readings: usize,
    /// `values[m][i]` is the current value of reading `o{m}_{i}`.
    pub values: Vec<Vec<i64>>,
    /// Assertion order of the base readings, `(model, index)`: seeded, so
    /// index buckets are filled in a different order on every seed.
    pub order: Vec<(usize, usize)>,
}

/// One single-reading revision: `o{model}_{index}` moves from `old` to
/// `new`.
#[derive(Clone, Copy, Debug)]
pub struct Revision {
    pub model: usize,
    pub index: usize,
    pub old: i64,
    pub new: i64,
}

impl Survey {
    pub fn generate(rng: &mut Rng, models: usize, readings: usize) -> Survey {
        assert!(readings >= 4, "a survey needs room between its extremes");
        let top = readings as i64 - 1;
        let values: Vec<Vec<i64>> = (0..models)
            .map(|_| {
                (0..readings)
                    .map(|i| match i {
                        0 => 0,
                        i if i == readings - 1 => top,
                        _ => rng.between(1, top - 1),
                    })
                    .collect()
            })
            .collect();
        let mut order: Vec<(usize, usize)> = (0..models)
            .flat_map(|m| (0..readings).map(move |i| (m, i)))
            .collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        Survey {
            readings,
            values,
            order,
        }
    }

    pub fn models(&self) -> usize {
        self.values.len()
    }

    /// The survey as a `.gdp` source, in the seeded assertion order: the
    /// base image the served workloads load. Its constraints live in
    /// `omega` (the language has no model-scoped constraints) and read
    /// the model-qualified readings.
    pub fn gdp_source(&self) -> String {
        let models = self.models();
        let mut out = String::new();
        for m in 0..models {
            out.push_str(&format!("#model m{m}.\n"));
        }
        let view: Vec<String> = std::iter::once("omega".to_string())
            .chain((0..models).map(|m| format!("m{m}")))
            .collect();
        out.push_str(&format!("#world_view {{ {} }}.\n", view.join(", ")));
        for &(m, i) in &self.order {
            out.push_str(&format!("m{m}'reading(o{m}_{i}, {}).\n", self.values[m][i]));
        }
        let gap = self.readings - 1;
        for m in 0..models {
            out.push_str(&format!(
                "constraint reading_gap_m{m}(X, Y) :- m{m}'reading(X, V1), \
                 m{m}'reading(Y, V2), V1 < V2, V2 =:= V1 + {gap}.\n"
            ));
        }
        out
    }

    /// Draw the next revision and apply it to the record. Only interior
    /// readings move, and only to interior values.
    pub fn revise(&mut self, rng: &mut Rng) -> Revision {
        let model = rng.below(self.models());
        let index = 1 + rng.below(self.readings - 2);
        let top = self.readings as i64 - 1;
        let old = self.values[model][index];
        let mut new = rng.between(1, top - 1);
        if new == old {
            new = if old == 1 { 2 } else { old - 1 };
        }
        self.values[model][index] = new;
        Revision {
            model,
            index,
            old,
            new,
        }
    }
}

/// A braided river network traced over a gdp-datagen terrain, as an edge
/// list of cell names.
#[derive(Clone, Debug)]
pub struct RiverNet {
    /// Every edge of the base network, sorted and deduplicated.
    pub edges: Vec<(String, String)>,
}

impl RiverNet {
    /// Trace rivers over a seeded 192×192 terrain, highest peaks first,
    /// each cut to its first `depth + 1` cells, and keep a river only if
    /// the network's longest path stays at most `depth` edges; stop once
    /// the closure holds at least `pairs` pairs. Closure work grows with
    /// the longest path (one fixpoint pass per step) and with the number
    /// of pairs, so fixing both keeps the work alike across seeds.
    pub fn generate(seed: u64, pairs: usize, depth: usize) -> RiverNet {
        let terrain = gdp::datagen::Terrain::generate(gdp::datagen::TerrainConfig {
            seed,
            width: 192,
            height: 192,
            ..gdp::datagen::TerrainConfig::default()
        });
        let cell = |(i, j): (u32, u32)| format!("c{i}_{j}");
        let mut kept: Vec<(String, String)> = Vec::new();
        let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
        for river in terrain.rivers(4096) {
            let river = &river[..river.len().min(depth + 1)];
            // Each step, plus a braid two cells ahead: still strictly
            // downhill, so the network stays acyclic.
            let fresh: Vec<(String, String)> = river
                .windows(2)
                .map(|w| (cell(w[0]), cell(w[1])))
                .chain(river.windows(3).map(|w| (cell(w[0]), cell(w[2]))))
                .filter(|e| !seen.contains(e))
                .collect();
            let mut trial = kept.clone();
            trial.extend(fresh.iter().cloned());
            if longest_path(&trial) > depth {
                continue;
            }
            seen.extend(fresh);
            kept = trial;
            if closure_size(&kept) >= pairs {
                kept.sort();
                return RiverNet { edges: kept };
            }
        }
        panic!("terrain {seed} has too few rivers for {pairs} reachable pairs");
    }
}

/// Number of reachable `(x, y)` pairs of an edge list.
fn closure_size(edges: &[(String, String)]) -> usize {
    let mut ids: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for (a, b) in edges {
        let n = ids.len();
        ids.entry(a).or_insert(n);
        let n = ids.len();
        ids.entry(b).or_insert(n);
    }
    let mut next = vec![Vec::new(); ids.len()];
    for (a, b) in edges {
        next[ids[a.as_str()]].push(ids[b.as_str()]);
    }
    let mut mark = vec![usize::MAX; ids.len()];
    let mut total = 0;
    for start in 0..ids.len() {
        let mut stack = vec![start];
        while let Some(n) = stack.pop() {
            for &s in &next[n] {
                if mark[s] != start {
                    mark[s] = start;
                    total += 1;
                    stack.push(s);
                }
            }
        }
    }
    total
}

/// Edges on the longest path of an acyclic edge list.
pub fn longest_path(edges: &[(String, String)]) -> usize {
    let mut depth: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    loop {
        let mut changed = false;
        for (a, b) in edges {
            let da = depth.get(a.as_str()).copied().unwrap_or(0);
            let db = depth.entry(b.as_str()).or_insert(0);
            if *db < da + 1 {
                *db = da + 1;
                changed = true;
            }
        }
        if !changed {
            return depth.values().copied().max().unwrap_or(0);
        }
    }
}

/// One operation a served session sends.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeOp {
    /// `?- m{model}'reading({object}, V).`
    Point { model: usize, object: String },
    /// `?- m{model}'reading(X, V), V >= lo, V < hi.`
    Range { model: usize, lo: i64, hi: i64 },
    /// One statement committing one new reading.
    Commit {
        model: usize,
        object: String,
        value: i64,
    },
    /// `:begin`, one statement per reading, `:commit`.
    Block {
        model: usize,
        facts: Vec<(String, i64)>,
    },
}

impl ServeOp {
    pub fn is_write(&self) -> bool {
        matches!(self, ServeOp::Commit { .. } | ServeOp::Block { .. })
    }

    /// The protocol lines of this operation, in order. Every line but the
    /// last gets a reply the client only checks; the last line's reply is
    /// the one that is timed.
    pub fn lines(&self) -> Vec<String> {
        match self {
            ServeOp::Point { model, object } => {
                vec![format!("?- m{model}'reading({object}, V).")]
            }
            ServeOp::Range { model, lo, hi } => {
                vec![format!("?- m{model}'reading(X, V), V >= {lo}, V < {hi}.")]
            }
            ServeOp::Commit {
                model,
                object,
                value,
            } => vec![format!("m{model}'reading({object}, {value}).")],
            ServeOp::Block { model, facts } => {
                let mut lines = vec![":begin".to_string()];
                for (object, value) in facts {
                    lines.push(format!("m{model}'reading({object}, {value})."));
                }
                lines.push(":commit".to_string());
                lines
            }
        }
    }
}

/// The traffic mix of a served workload.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Share of operations that write, in percent.
    pub write_pct: usize,
    /// Share of writes that are `:begin`…`:commit` blocks, in percent.
    pub block_pct: usize,
    /// Facts per block.
    pub block_len: usize,
}

/// What one served session knows: the readings of the models it owns,
/// as loaded plus as acknowledged by the server.
#[derive(Clone, Debug)]
pub struct SessionRecord {
    pub models: Vec<usize>,
    /// `readings[k]` holds `(object, value)` of model `models[k]`.
    readings: Vec<Vec<(String, i64)>>,
    /// Readings added so far, for fresh object names.
    added: usize,
    /// Largest interior value (for new values and ranges).
    top: i64,
    session: usize,
}

impl SessionRecord {
    pub fn new(s: &Survey, session: usize, models: Vec<usize>) -> SessionRecord {
        let readings = models
            .iter()
            .map(|&m| {
                (0..s.readings)
                    .map(|i| (format!("o{m}_{i}"), s.values[m][i]))
                    .collect()
            })
            .collect();
        SessionRecord {
            models,
            readings,
            added: 0,
            top: s.readings as i64 - 2,
            session,
        }
    }

    fn slot(&self, model: usize) -> usize {
        self.models
            .iter()
            .position(|&m| m == model)
            .expect("session owns the model")
    }

    pub fn readings_of(&self, model: usize) -> &[(String, i64)] {
        &self.readings[self.slot(model)]
    }

    /// Record an acknowledged write.
    pub fn acknowledge(&mut self, op: &ServeOp) {
        match op {
            ServeOp::Commit {
                model,
                object,
                value,
            } => {
                let k = self.slot(*model);
                self.readings[k].push((object.clone(), *value));
            }
            ServeOp::Block { model, facts } => {
                let k = self.slot(*model);
                self.readings[k].extend(facts.iter().cloned());
            }
            _ => {}
        }
    }

    fn fresh_reading(&mut self, rng: &mut Rng, model: usize) -> (String, i64) {
        self.added += 1;
        let object = format!("n{}_{}_{}", model, self.session, self.added);
        (object, rng.between(1, self.top))
    }

    /// Draw the next operation of this session's mix. Writes add fresh
    /// readings with interior values, so the planted constraint pairs
    /// stay the only violations.
    pub fn next_op(&mut self, rng: &mut Rng, mix: Mix) -> ServeOp {
        let model = self.models[rng.below(self.models.len())];
        if rng.below(100) < mix.write_pct {
            if rng.below(100) < mix.block_pct {
                let facts = (0..mix.block_len)
                    .map(|_| self.fresh_reading(rng, model))
                    .collect();
                ServeOp::Block { model, facts }
            } else {
                let (object, value) = self.fresh_reading(rng, model);
                ServeOp::Commit {
                    model,
                    object,
                    value,
                }
            }
        } else if rng.below(2) == 0 {
            let known = self.readings_of(model);
            let object = known[rng.below(known.len())].0.clone();
            ServeOp::Point { model, object }
        } else {
            let lo = rng.between(1, self.top - 9);
            ServeOp::Range {
                model,
                lo,
                hi: lo + 8,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn river_sizes_repeat_across_seeds() {
        for seed in 1..=6 {
            let net = RiverNet::generate(seed, 4500, 12);
            let pairs = crate::oracle::bfs_closure(&net.edges).len();
            assert!((4500..4700).contains(&pairs), "seed {seed}: {pairs} pairs");
            assert_eq!(longest_path(&net.edges), 12, "seed {seed}");
            println!("seed {seed}: {} edges, {pairs} pairs", net.edges.len());
        }
    }
}
