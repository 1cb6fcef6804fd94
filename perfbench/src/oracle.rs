//! Expected answers, computed from the generators' records without the
//! program, and the checks that compare the program's answers to them.

use std::collections::{BTreeMap, BTreeSet};

/// All-pairs reachability over `edges` by breadth-first search from
/// every node.
pub fn bfs_closure<'a>(
    edges: impl IntoIterator<Item = &'a (String, String)>,
) -> BTreeSet<(String, String)> {
    let mut next: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges {
        next.entry(a.as_str()).or_default().push(b.as_str());
    }
    let mut pairs = BTreeSet::new();
    for &start in next.keys() {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(node) = queue.pop_front() {
            for &succ in next.get(node).map(Vec::as_slice).unwrap_or(&[]) {
                if seen.insert(succ) {
                    queue.push_back(succ);
                }
            }
        }
        pairs.extend(
            seen.into_iter()
                .map(|end| (start.to_string(), end.to_string())),
        );
    }
    pairs
}

/// Compare the `(x, y)` pairs a closure query answered with the expected
/// closure. Duplicates are an error too.
pub fn check_closure(
    expected: &BTreeSet<(String, String)>,
    got: &[(String, String)],
) -> Result<(), String> {
    let set: BTreeSet<(String, String)> = got.iter().cloned().collect();
    if set.len() != got.len() {
        return Err(format!("closure repeats {} pair(s)", got.len() - set.len()));
    }
    if &set != expected {
        return Err(format!(
            "closure has {} pairs, BFS has {}; first difference {:?}",
            set.len(),
            expected.len(),
            set.symmetric_difference(expected).next()
        ));
    }
    Ok(())
}

/// Every pair `(x, y)` of one model whose values are exactly `gap` apart
/// (`v(y) = v(x) + gap`): the `reading_gap` violations of that model.
pub fn gap_pairs(readings: &[(String, i64)], gap: i64) -> BTreeSet<(String, String)> {
    let mut by_value: BTreeMap<i64, Vec<&str>> = BTreeMap::new();
    for (object, value) in readings {
        by_value.entry(*value).or_default().push(object);
    }
    let mut pairs = BTreeSet::new();
    for (object, value) in readings {
        for other in by_value.get(&(value + gap)).into_iter().flatten() {
            pairs.insert((object.clone(), other.to_string()));
        }
    }
    pairs
}

/// Compare a set of `(model, x, y)` violations reported by an audit with
/// the expected set. Duplicates in the report are an error too.
pub fn check_violations(
    expected: &BTreeSet<(String, String, String)>,
    reported: &[(String, String, String)],
) -> Result<(), String> {
    let got: BTreeSet<_> = reported.iter().cloned().collect();
    if got.len() != reported.len() {
        return Err(format!(
            "audit reported {} duplicate violation(s)",
            reported.len() - got.len()
        ));
    }
    if &got != expected {
        let missing: Vec<_> = expected.difference(&got).take(3).collect();
        let extra: Vec<_> = got.difference(expected).take(3).collect();
        return Err(format!(
            "audit mismatch: missing {missing:?}, unexpected {extra:?}"
        ));
    }
    Ok(())
}

/// The reply lines a served point query `?- m'reading(object, V).` must
/// print.
pub fn point_reply(readings: &[(String, i64)], object: &str) -> BTreeSet<String> {
    let lines: BTreeSet<String> = readings
        .iter()
        .filter(|(o, _)| o == object)
        .map(|(_, v)| format!("V = {v}"))
        .collect();
    if lines.is_empty() {
        BTreeSet::from(["no.".to_string()])
    } else {
        lines
    }
}

/// The reply lines a served range query
/// `?- m'reading(X, V), V >= lo, V < hi.` must print.
pub fn range_reply(readings: &[(String, i64)], lo: i64, hi: i64) -> BTreeSet<String> {
    let lines: BTreeSet<String> = readings
        .iter()
        .filter(|(_, v)| (lo..hi).contains(v))
        .map(|(o, v)| format!("V = {v}, X = {o}"))
        .collect();
    if lines.is_empty() {
        BTreeSet::from(["no.".to_string()])
    } else {
        lines
    }
}

/// Compare a reply (one answer per line, deduplicated by the server)
/// with the expected line set.
pub fn check_reply(expected: &BTreeSet<String>, got: &[String]) -> Result<(), String> {
    let set: BTreeSet<String> = got.iter().cloned().collect();
    if set.len() != got.len() || &set != expected {
        return Err(format!(
            "reply {:?} differs from the expected {} line(s), e.g. {:?}",
            got.iter().take(3).collect::<Vec<_>>(),
            expected.len(),
            expected.iter().take(3).collect::<Vec<_>>()
        ));
    }
    Ok(())
}

/// After a crash and restart, each model must hold exactly the readings
/// that were loaded plus those of acknowledged commits.
pub fn check_restart(
    expected: &[(usize, Vec<(String, i64)>)],
    observed: &BTreeMap<usize, Vec<String>>,
) -> Result<(), String> {
    for (model, readings) in expected {
        let want: BTreeSet<String> = readings
            .iter()
            .map(|(o, v)| format!("V = {v}, X = {o}"))
            .collect();
        let got = observed.get(model).map(Vec::as_slice).unwrap_or(&[]);
        if want.len() != readings.len() {
            return Err(format!("model m{model}: the record repeats a reading"));
        }
        check_reply(&want, got).map_err(|e| {
            format!(
                "model m{model} after restart: {} reading(s), expected {}: {e}",
                got.len(),
                want.len()
            )
        })?;
    }
    Ok(())
}

/// Commit sequence numbers one session saw must strictly increase.
pub fn check_session_seqs(seqs: &[u64]) -> Result<(), String> {
    match seqs.windows(2).find(|w| w[0] >= w[1]) {
        Some(w) => Err(format!("commit seq {} followed by {}", w[0], w[1])),
        None => Ok(()),
    }
}

/// Across all sessions, no two commits may share a sequence number.
pub fn check_unique_seqs<'a>(sessions: impl IntoIterator<Item = &'a [u64]>) -> Result<(), String> {
    let mut seen = BTreeSet::new();
    for seqs in sessions {
        for &s in seqs {
            if !seen.insert(s) {
                return Err(format!("commit seq {s} acknowledged twice"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: &str) -> String {
        x.to_string()
    }

    fn edge(a: &str, b: &str) -> (String, String) {
        (s(a), s(b))
    }

    #[test]
    fn closure_of_a_braid_by_hand() {
        // a → b → c, a → c (braid), c → d.
        let edges = [
            edge("a", "b"),
            edge("b", "c"),
            edge("a", "c"),
            edge("c", "d"),
        ];
        let want: BTreeSet<(String, String)> = [
            ("a", "b"),
            ("a", "c"),
            ("a", "d"),
            ("b", "c"),
            ("b", "d"),
            ("c", "d"),
        ]
        .iter()
        .map(|(x, y)| edge(x, y))
        .collect();
        let closure = bfs_closure(&edges);
        assert_eq!(closure, want);
        let right: Vec<_> = want.iter().cloned().collect();
        assert!(check_closure(&closure, &right).is_ok());
        // Wrong: the two-hop pair dropped, a reversed pair added, a pair
        // answered twice.
        let missing: Vec<_> = right
            .iter()
            .filter(|e| **e != edge("a", "d"))
            .cloned()
            .collect();
        assert!(check_closure(&closure, &missing).is_err());
        let mut extra = right.clone();
        extra.push(edge("d", "a"));
        assert!(check_closure(&closure, &extra).is_err());
        let mut twice = right.clone();
        twice.push(edge("a", "b"));
        assert!(check_closure(&closure, &twice).is_err());
    }

    #[test]
    fn closure_handles_cycles() {
        let edges = [edge("a", "b"), edge("b", "a")];
        let got = bfs_closure(&edges);
        assert_eq!(got.len(), 4);
        assert!(got.contains(&edge("a", "a")));
    }

    #[test]
    fn planted_pair_by_hand() {
        // Values 0, 2, 1, 3 with gap 3: only (o_0, o_3).
        let readings = vec![(s("o_0"), 0), (s("o_1"), 2), (s("o_2"), 1), (s("o_3"), 3)];
        let pairs = gap_pairs(&readings, 3);
        assert_eq!(pairs, BTreeSet::from([(s("o_0"), s("o_3"))]));
        let expected: BTreeSet<_> = pairs.into_iter().map(|(x, y)| (s("m0"), x, y)).collect();
        let right = vec![(s("m0"), s("o_0"), s("o_3"))];
        assert!(check_violations(&expected, &right).is_ok());
        // Wrong: swapped witnesses, an extra pair, a duplicate, nothing.
        let swapped = vec![(s("m0"), s("o_3"), s("o_0"))];
        assert!(check_violations(&expected, &swapped).is_err());
        let extra = vec![right[0].clone(), (s("m0"), s("o_1"), s("o_3"))];
        assert!(check_violations(&expected, &extra).is_err());
        let twice = vec![right[0].clone(), right[0].clone()];
        assert!(check_violations(&expected, &twice).is_err());
        assert!(check_violations(&expected, &[]).is_err());
    }

    #[test]
    fn gap_pairs_see_duplicates_and_revisions() {
        // Two readings at the low extreme make two violations.
        let readings = vec![(s("a"), 0), (s("b"), 0), (s("c"), 5)];
        assert_eq!(gap_pairs(&readings, 5).len(), 2);
    }

    #[test]
    fn point_and_range_replies_by_hand() {
        let readings = vec![(s("o3_1"), 7), (s("o3_2"), 12), (s("n3_0_1"), 9)];
        assert_eq!(
            point_reply(&readings, "o3_2"),
            BTreeSet::from([s("V = 12")])
        );
        assert_eq!(point_reply(&readings, "o3_9"), BTreeSet::from([s("no.")]));
        let range = range_reply(&readings, 7, 12);
        assert_eq!(
            range,
            BTreeSet::from([s("V = 7, X = o3_1"), s("V = 9, X = n3_0_1")])
        );
        assert!(check_reply(&range, &[s("V = 9, X = n3_0_1"), s("V = 7, X = o3_1")]).is_ok());
        // Wrong: the excluded upper end, a missing answer, a duplicate.
        assert!(check_reply(&range, &[s("V = 7, X = o3_1"), s("V = 12, X = o3_2")]).is_err());
        assert!(check_reply(&range, &[s("V = 7, X = o3_1")]).is_err());
        assert!(check_reply(
            &range,
            &[
                s("V = 7, X = o3_1"),
                s("V = 9, X = n3_0_1"),
                s("V = 7, X = o3_1")
            ]
        )
        .is_err());
        assert_eq!(range_reply(&readings, 100, 110), BTreeSet::from([s("no.")]));
    }

    #[test]
    fn restart_counts_by_hand() {
        // Two loaded readings plus one acknowledged commit.
        let expected = vec![(
            2usize,
            vec![(s("o2_0"), 0), (s("o2_1"), 1), (s("n2_1_1"), 4)],
        )];
        let mut observed = BTreeMap::new();
        observed.insert(
            2usize,
            vec![
                s("V = 0, X = o2_0"),
                s("V = 4, X = n2_1_1"),
                s("V = 1, X = o2_1"),
            ],
        );
        assert!(check_restart(&expected, &observed).is_ok());
        // Wrong: the acknowledged commit was lost.
        observed.insert(2, vec![s("V = 0, X = o2_0"), s("V = 1, X = o2_1")]);
        assert!(check_restart(&expected, &observed).is_err());
        // Wrong: a commit that was never acknowledged survived.
        observed.insert(
            2,
            vec![
                s("V = 0, X = o2_0"),
                s("V = 1, X = o2_1"),
                s("V = 4, X = n2_1_1"),
                s("V = 3, X = n2_1_2"),
            ],
        );
        assert!(check_restart(&expected, &observed).is_err());
    }

    #[test]
    fn sequence_checks_by_hand() {
        assert!(check_session_seqs(&[1, 4, 9]).is_ok());
        assert!(check_session_seqs(&[1, 4, 4]).is_err());
        assert!(check_session_seqs(&[3, 2]).is_err());
        assert!(check_unique_seqs([&[1u64, 3][..], &[2, 4][..]]).is_ok());
        assert!(check_unique_seqs([&[1u64, 3][..], &[3, 4][..]]).is_err());
    }
}
