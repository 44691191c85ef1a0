//! Common set-up: the university data, the benchmark-owned policy, and
//! the ground truth every answer is checked against.

use fgac_core::{DurabilityOptions, Engine, SharedEngine};
use fgac_server::{Server, ServerConfig};
use fgac_sql::Statement;
use fgac_types::{Ident, Value};
use fgac_workload::university::{self, University, UniversityConfig, UNIVERSITY_DDL};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Data size. The full size is 20x the older bins' 100 students, so the
/// executor's scan and the per-statement table snapshot are visible.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub students: usize,
    pub courses: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        students: 2000,
        courses: 40,
    };
    pub const SMOKE: Scale = Scale {
        students: 200,
        courses: 40,
    };

    fn config(self, seed: u64) -> UniversityConfig {
        UniversityConfig {
            students: self.students,
            courses: self.courses,
            registrations_per_student: 4,
            graded_fraction: 0.8,
            seed,
        }
    }
}

/// Policy the benchmark owns, added on top of the standard grants:
/// an unparameterized view (the compiled fast path admits queries it
/// covers), a pad view `policy_churn` flips, and the delete
/// authorization that lets `write_mix` keep `registered` stationary.
const BENCH_VIEWS: &str = "
create authorization view CourseCatalog as select * from courses;
create authorization view PadFees as
  select * from feespaid where student_id = $user_id;";
pub const PAD_VIEW: &str = "padfees";
pub const ROLE: &str = "student";
const DELETE_AUTH: &str = "authorize delete on registered where student_id = $user_id";

/// Ground truth about one student, taken from the generator's own
/// bookkeeping before the engine is handed to the server.
#[derive(Debug, Clone)]
pub struct StudentFacts {
    pub id: String,
    /// Own (course, grade) rows.
    pub grades: Vec<(String, i64)>,
    pub registered: Vec<String>,
    pub unregistered: Vec<String>,
    pub fees_rows: usize,
}

#[derive(Debug, Clone)]
pub struct Facts {
    pub courses: Vec<String>,
    /// Graded rows per course.
    pub graded_in_course: BTreeMap<String, usize>,
    pub grades_rows: usize,
    /// `registered` as loaded: the model `write_mix` must recover.
    pub registered_rows: Vec<(String, String)>,
    pub some_other_student: String,
}

impl Facts {
    fn of(uni: &University) -> Facts {
        let courses: Vec<String> = (0..uni.config.courses).map(|i| uni.course(i)).collect();
        let mut graded_in_course = BTreeMap::new();
        for (_, c, _) in &uni.graded {
            *graded_in_course.entry(c.clone()).or_insert(0) += 1;
        }
        Facts {
            courses,
            graded_in_course,
            grades_rows: uni.graded.len(),
            registered_rows: uni.registrations.clone(),
            some_other_student: uni.student(uni.config.students - 1),
        }
    }

    /// The principals of a run: `n` distinct students drawn from the
    /// seed among those with the commonest shape (4 registrations, 3 of
    /// them graded), so the seed changes who asks and for what, not how
    /// many rows an answer has. The last student is never drawn: it is
    /// the "someone else" of the deny class.
    fn pick_principals(&self, uni: &University, seed: u64, n: usize) -> Vec<usize> {
        let mut grades = vec![0usize; uni.config.students];
        let index_of = |id: &str| id[1..].parse::<usize>().expect("student id");
        for (s, _, _) in &uni.graded {
            grades[index_of(s)] += 1;
        }
        let eligible: Vec<usize> = (0..uni.config.students - 1)
            .filter(|&i| grades[i] == 3)
            .collect();
        assert!(eligible.len() >= n, "too few students with 3 grades");
        let mut rng = crate::stream::rng_for(seed, 0xA11CE);
        let mut out: Vec<usize> = Vec::new();
        while out.len() < n {
            let i = eligible[rand::Rng::gen_range(&mut rng, 0..eligible.len())];
            if !out.contains(&i) {
                out.push(i);
            }
        }
        out
    }

    pub fn student(&self, uni: &University, index: usize) -> StudentFacts {
        let id = uni.student(index);
        let grades = uni
            .graded
            .iter()
            .filter(|(s, _, _)| *s == id)
            .map(|(_, c, g)| (c.clone(), *g))
            .collect();
        let registered: Vec<String> = uni
            .registrations
            .iter()
            .filter(|(s, _)| *s == id)
            .map(|(_, c)| c.clone())
            .collect();
        let unregistered = self
            .courses
            .iter()
            .filter(|c| !registered.contains(c))
            .cloned()
            .collect();
        let fees = uni.engine.database().table(&Ident::new("feespaid"));
        let fees_rows = fees.map_or(0, |t| {
            t.rows()
                .iter()
                .filter(|r| r.get(0) == &Value::Str(id.clone()))
                .count()
        });
        StudentFacts {
            id,
            grades,
            registered,
            unregistered,
            fees_rows,
        }
    }
}

/// One built engine with its ground truth. `students` holds the facts
/// of the principals the workload's connections log in as.
pub struct Built {
    pub engine: Engine,
    pub facts: Facts,
    pub students: Vec<StudentFacts>,
}

/// Builds the data and policy, and draws the run's two principals.
/// With `wal` the same state is loaded into a durable engine (the
/// generator only builds in-memory ones), under its options.
pub fn build(scale: Scale, seed: u64, wal: Option<(&Path, DurabilityOptions)>) -> Built {
    let uni = university::build(scale.config(seed)).expect("university builds");
    let facts = Facts::of(&uni);
    let students = facts
        .pick_principals(&uni, seed, 2)
        .into_iter()
        .map(|i| facts.student(&uni, i))
        .collect();
    let mut engine = match wal {
        None => uni.engine,
        Some((dir, opts)) => durable_copy(&uni.engine, dir, opts),
    };
    engine.admin_script(BENCH_VIEWS).expect("bench views");
    engine
        .grant_view(ROLE, "coursecatalog")
        .expect("grant catalog");
    engine.grant_view(ROLE, PAD_VIEW).expect("grant pad");
    engine
        .grant_update_sql(ROLE, DELETE_AUTH)
        .expect("grant delete");
    Built {
        engine,
        facts,
        students,
    }
}

/// Loads `src`'s schema, rows and grants into a fresh durable engine.
fn durable_copy(src: &Engine, dir: &Path, opts: DurabilityOptions) -> Engine {
    let _ = std::fs::remove_dir_all(dir);
    let (mut e, _) = Engine::open_with(dir, opts).expect("open durable engine");
    e.admin_script(UNIVERSITY_DDL).expect("ddl");
    for meta in src.database().catalog().tables() {
        let rows = src
            .database()
            .table(&meta.name)
            .expect("table")
            .rows()
            .to_vec();
        e.admin_load(&meta.name, rows).expect("load");
    }
    let g = src.grants();
    for (p, views) in g.view_grants() {
        for v in views {
            e.grant_view(p, v.as_str()).expect("grant view");
        }
    }
    for (p, names) in g.constraint_grants() {
        for n in names {
            e.grant_constraint(p, n.as_str()).expect("grant constraint");
        }
    }
    for (u, roles) in g.role_memberships() {
        for r in roles {
            e.add_role(u, r).expect("add role");
        }
    }
    for (p, auths) in g.update_grants() {
        for a in auths {
            let sql = fgac_sql::print_statement(&Statement::Authorize(a.clone()));
            e.grant_update_sql(p, &sql).expect("grant update");
        }
    }
    e
}

/// The server under test: 2 workers for the 2 cores, as many as the
/// load generator has threads.
pub fn start_server(engine: SharedEngine) -> Server {
    Server::start(
        engine,
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            max_connections: 8,
            ..ServerConfig::default()
        },
    )
    .expect("server starts")
}

/// Scratch space for WAL directories and trace files, inside the
/// directory the benchmark is run from.
pub fn scratch_dir() -> PathBuf {
    let d = PathBuf::from("target/fgacbench");
    std::fs::create_dir_all(&d).expect("create target/fgacbench");
    d
}

/// Copies a WAL directory file by file (it has no subdirectories).
pub fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("create copy dir");
    for entry in std::fs::read_dir(from).expect("read wal dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy wal file");
    }
}
