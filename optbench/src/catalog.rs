//! The distinct requests a run sent, built once (outside every timed
//! region) for checking and replay.

use crate::check::{Checked, Checker};
use crate::load::{Key, Workload};
use crate::problem::Problem;
use qmldb_math::json::Json;
use qmldb_serve::wire::request_json;
use qmldb_serve::Request;

/// One distinct request with its built problem.
pub struct Entry {
    pub request: Request,
    /// The wire line the client sent (with its newline).
    pub line: String,
    pub problem: Problem,
    /// `QuboProblem::signature()`.
    pub signature: u64,
}

impl Entry {
    fn new(request: Request, line: String) -> Entry {
        let problem = Problem::build(&request.workload);
        let signature = problem.signature();
        Entry {
            request,
            line,
            problem,
            signature,
        }
    }
}

/// Working-set and cold-stream entries, indexed by [`Key`].
pub struct Catalog {
    set: Vec<Entry>,
    cold: Vec<Entry>,
}

impl Catalog {
    /// `cold_sent` lists the cold-stream requests in stream order.
    pub fn new(w: &Workload, cold_sent: Vec<(Request, String)>) -> Catalog {
        Catalog {
            set: w
                .set
                .iter()
                .map(|r| Entry::new(r.clone(), request_json(r).compact() + "\n"))
                .collect(),
            cold: cold_sent
                .into_iter()
                .map(|(r, line)| Entry::new(r, line))
                .collect(),
        }
    }

    pub fn get(&self, key: Key) -> &Entry {
        match key {
            Key::Set(i) => &self.set[i],
            Key::Cold(i) => &self.cold[i],
        }
    }

    /// Checks `reply` as the answer to `key`, which must be a cache hit
    /// when `expect_hit` (a working-set request after preload) and a miss
    /// otherwise.
    pub fn check(
        &self,
        checker: &mut Checker,
        key: Key,
        reply: &Json,
        expect_hit: bool,
    ) -> Result<Checked, String> {
        let e = self.get(key);
        let checked = checker.check(&e.request, &e.problem, e.signature, reply)?;
        if checked.cached != expect_hit {
            return Err(format!(
                "cached={} where a {} was expected",
                checked.cached,
                if expect_hit { "hit" } else { "miss" }
            ));
        }
        Ok(checked)
    }
}
