//! Request streams. Every text is generated from the seed before the
//! timed phase; the server receives only the SQL.

use crate::setup::{Facts, StudentFacts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reporting class of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Accepted unconditionally by the prover (U1/U2 over the DAG).
    Accept,
    /// Accepted conditionally: C3 probes the database state.
    Conditional,
    /// Admitted by the compiled fast path (FP1/FP2), no prover.
    FastPath,
    /// Must be denied.
    Deny,
    /// Answer depends on whether the pad view is granted right now.
    Pad,
    /// Authorized DML.
    Write,
    /// DML that must be denied.
    WriteDenied,
}

/// What the wire answer must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Expect {
    Rows(usize),
    Denied,
    Affected(u64),
    /// ROWS with this many rows while the pad view is granted, DENIED
    /// while it is revoked.
    PadRows(usize),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Req {
    pub sql: String,
    pub class: Class,
    pub expect: Expect,
}

impl Req {
    fn new(sql: String, class: Class, expect: Expect) -> Req {
        Req { sql, class, expect }
    }
}

/// FNV-1a over every text and expectation: equal seeds must give equal
/// hashes, and the run header records it.
pub fn stream_hash(streams: &[&[Req]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for stream in streams {
        for r in *stream {
            eat(r.sql.as_bytes());
            eat(format!("{:?}{:?}", r.class, r.expect).as_bytes());
        }
        eat(&[0xff]);
    }
    h
}

pub fn rng_for(seed: u64, lane: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn own_grades_above(s: &StudentFacts, k: i64) -> usize {
    s.grades.iter().filter(|(_, g)| *g > k).count()
}

fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// The fixed working set of `read_warm`: 64 distinct authorized texts
/// for one student, covering every accept path. Two connections hold
/// 128 plans, under the plan cache's 256.
pub fn warm_set(facts: &Facts, s: &StudentFacts, rng: &mut StdRng) -> Vec<Req> {
    let id = &s.id;
    let own = s.grades.len();
    let mut out = Vec::with_capacity(64);
    // Literals no grade is below, so the row count is the student's own;
    // a seeded base plus a counter keeps the 64 texts distinct.
    let base: i64 = rng.gen_range(1_000..1_000_000);
    let mut next = 0;
    let mut floor = || -> i64 {
        next += 1;
        -(base + next)
    };
    for _ in 0..8 {
        let k = floor();
        out.push(Req::new(
            format!("select * from grades where student_id = '{id}' and grade >= {k}"),
            Class::Accept,
            Expect::Rows(own),
        ));
        let k = floor();
        out.push(Req::new(
            format!("select grade from grades where student_id = '{id}' and grade >= {k}"),
            Class::Accept,
            Expect::Rows(own),
        ));
        let k = floor();
        out.push(Req::new(
            format!("select avg(grade) from grades where student_id = '{id}' and grade >= {k}"),
            Class::Accept,
            Expect::Rows(1),
        ));
    }
    // Subsumption: a stricter selection than the view's.
    let mut cut: i64 = 20;
    for _ in 0..12 {
        cut += rng.gen_range(1i64..6);
        out.push(Req::new(
            format!("select course_id from grades where student_id = '{id}' and grade > {cut}"),
            Class::Accept,
            Expect::Rows(own_grades_above(s, cut)),
        ));
    }
    // Per-course averages through AvgGrades.
    let start = rng.gen_range(0..facts.courses.len());
    for i in 0..12 {
        let c = &facts.courses[(start + i) % facts.courses.len()];
        out.push(Req::new(
            format!("select avg(grade) from grades where course_id = '{c}'"),
            Class::Accept,
            Expect::Rows(1),
        ));
    }
    // The unparameterized catalog view: compiled fast path.
    for i in 0..4 {
        let c = &facts.courses[(start + 7 * i) % facts.courses.len()];
        out.push(Req::new(
            format!("select name from courses where course_id = '{c}'"),
            Class::FastPath,
            Expect::Rows(1),
        ));
        out.push(Req::new(
            format!(
                "select course_id, name from courses where name <> 'x{}'",
                base + i as i64
            ),
            Class::FastPath,
            Expect::Rows(facts.courses.len()),
        ));
    }
    // Grades of a course the student registered for: C3-conditional.
    for i in 0..8 {
        let c = &s.registered[i % s.registered.len()];
        let k = floor();
        out.push(Req::new(
            format!("select * from grades where course_id = '{c}' and grade >= {k}"),
            Class::Conditional,
            Expect::Rows(facts.graded_in_course.get(c).copied().unwrap_or(0)),
        ));
    }
    assert_eq!(out.len(), 64);
    shuffle(rng, &mut out);
    out
}

/// Classes of one block of 20 cold requests: 40 % unconditional
/// accepts, 20 % conditional, 25 % denials, 15 % fast path. Every block
/// holds exactly these, in seeded order, so the mix does not drift with
/// the seed or with how far a phase gets.
const COLD_BLOCK: [Class; 20] = {
    use Class::*;
    [
        Accept,
        Accept,
        Accept,
        Accept,
        Accept,
        Accept,
        Accept,
        Accept,
        Conditional,
        Conditional,
        Conditional,
        Conditional,
        Deny,
        Deny,
        Deny,
        Deny,
        Deny,
        FastPath,
        FastPath,
        FastPath,
    ]
};

/// `admit_cold`: `n` texts never seen before. `serial` makes each
/// literal fresh across calls.
pub fn cold_stream(
    facts: &Facts,
    s: &StudentFacts,
    rng: &mut StdRng,
    serial: &mut i64,
    n: usize,
) -> Vec<Req> {
    let id = &s.id;
    let own = s.grades.len();
    let mut out = Vec::with_capacity(n + COLD_BLOCK.len());
    while out.len() < n {
        let mut block = COLD_BLOCK;
        shuffle(rng, &mut block);
        for class in block {
            *serial += 1;
            let k = -(1_000_000 + *serial);
            let variant = rng.gen_range(0..3);
            out.push(match class {
                Class::Accept => {
                    let (cols, rows) = match variant {
                        0 => ("*", own),
                        1 => ("grade", own),
                        _ => ("avg(grade)", 1),
                    };
                    Req::new(
                        format!(
                            "select {cols} from grades where student_id = '{id}' and grade >= {k}"
                        ),
                        class,
                        Expect::Rows(rows),
                    )
                }
                Class::Conditional => {
                    let c = &s.registered[rng.gen_range(0..s.registered.len())];
                    Req::new(
                        format!("select * from grades where course_id = '{c}' and grade >= {k}"),
                        class,
                        Expect::Rows(facts.graded_in_course.get(c).copied().unwrap_or(0)),
                    )
                }
                Class::Deny => {
                    let sql = match variant {
                        0 => {
                            let c = &s.unregistered[rng.gen_range(0..s.unregistered.len())];
                            format!("select * from grades where course_id = '{c}' and grade >= {k}")
                        }
                        1 => format!(
                            "select grade from grades where student_id = '{}' and grade >= {k}",
                            facts.some_other_student
                        ),
                        _ => format!("select * from grades where grade >= {k}"),
                    };
                    Req::new(sql, class, Expect::Denied)
                }
                _ => Req::new(
                    format!(
                        "select course_id, name from courses where name <> 'x{}'",
                        *serial
                    ),
                    Class::FastPath,
                    Expect::Rows(facts.courses.len()),
                ),
            });
        }
    }
    out.truncate(n);
    out
}

/// `write_mix`'s writer: cycles of own insert, own update, the matching
/// delete, and an insert for someone else that must be denied. A whole
/// cycle leaves `registered` as it found it.
pub const WRITE_CYCLE: usize = 4;

pub fn write_stream(facts: &Facts, s: &StudentFacts, cycles: usize) -> Vec<Req> {
    let id = &s.id;
    let mut out = Vec::with_capacity(cycles * WRITE_CYCLE);
    for i in 0..cycles {
        let c = &s.unregistered[i % s.unregistered.len()];
        out.push(Req::new(
            format!("insert into registered values ('{id}', '{c}')"),
            Class::Write,
            Expect::Affected(1),
        ));
        out.push(Req::new(
            format!("update students set name = 'renamed-{i}' where student_id = '{id}'"),
            Class::Write,
            Expect::Affected(1),
        ));
        out.push(Req::new(
            format!("delete from registered where student_id = '{id}' and course_id = '{c}'"),
            Class::Write,
            Expect::Affected(1),
        ));
        out.push(Req::new(
            format!(
                "insert into registered values ('{}', '{c}')",
                facts.some_other_student
            ),
            Class::WriteDenied,
            Expect::Denied,
        ));
    }
    out
}

/// The one query only the pad view justifies.
pub fn pad_query(s: &StudentFacts) -> Req {
    Req::new(
        format!("select * from feespaid where student_id = '{}'", s.id),
        Class::Pad,
        Expect::PadRows(s.fees_rows),
    )
}

/// `policy_churn`'s reader: the warm set with the pad query as every
/// eighth request, so sequenced-after probes are frequent.
pub fn churn_set(facts: &Facts, s: &StudentFacts, rng: &mut StdRng) -> Vec<Req> {
    let warm = warm_set(facts, s, rng);
    let mut out = Vec::with_capacity(warm.len() + warm.len() / 7 + 1);
    for (i, r) in warm.into_iter().enumerate() {
        if i % 7 == 0 {
            out.push(pad_query(s));
        }
        out.push(r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{build, Scale};

    fn streams(seed: u64) -> u64 {
        let b = build(Scale::SMOKE, seed, None);
        let mut rng = rng_for(seed, 1);
        let warm = warm_set(&b.facts, &b.students[0], &mut rng);
        let mut serial = 0;
        let cold = cold_stream(&b.facts, &b.students[1], &mut rng, &mut serial, 500);
        let churn = churn_set(&b.facts, &b.students[0], &mut rng);
        let writes = write_stream(&b.facts, &b.students[0], 10);
        stream_hash(&[&warm, &cold, &churn, &writes])
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        assert_eq!(streams(11), streams(11));
        assert_ne!(streams(11), streams(12));
    }

    #[test]
    fn warm_set_is_64_distinct_texts_and_cold_texts_never_repeat() {
        let b = build(Scale::SMOKE, 5, None);
        let mut rng = rng_for(5, 1);
        let warm = warm_set(&b.facts, &b.students[0], &mut rng);
        let mut texts: Vec<&str> = warm.iter().map(|r| r.sql.as_str()).collect();
        texts.sort_unstable();
        texts.dedup();
        assert_eq!(texts.len(), 64);

        let mut serial = 0;
        let mut cold = cold_stream(&b.facts, &b.students[0], &mut rng, &mut serial, 2000);
        cold.extend(cold_stream(
            &b.facts,
            &b.students[0],
            &mut rng,
            &mut serial,
            2000,
        ));
        let mut texts: Vec<&str> = cold.iter().map(|r| r.sql.as_str()).collect();
        texts.sort_unstable();
        texts.dedup();
        assert_eq!(texts.len(), 4000);
        let count = |c: Class| cold.iter().filter(|r| r.class == c).count();
        assert_eq!(
            (
                count(Class::Accept),
                count(Class::Conditional),
                count(Class::Deny),
                count(Class::FastPath)
            ),
            (1600, 800, 1000, 600)
        );
        for s in &b.students {
            assert_eq!((s.grades.len(), s.registered.len()), (3, 4));
        }
    }
}
