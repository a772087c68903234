//! The reply checker. Every `ok` reply is checked four ways: the
//! objective recomputed from the returned solution matches bit for bit,
//! the solution is feasible, the signature equals
//! `QuboProblem::signature()`, and a cached reply is bit-identical to
//! the reply that filled the cache.

use crate::problem::Problem;
use qmldb_math::json::Json;
use qmldb_serve::{Request, Solution};
use std::collections::HashMap;

/// What the checker learned from one passing reply.
#[derive(Clone, Debug)]
pub struct Checked {
    pub cached: bool,
    pub objective: f64,
    pub solution: Solution,
    pub solver: String,
}

/// Checks replies against the requests that produced them.
#[derive(Default)]
pub struct Checker {
    /// Cache key → the canonical text of the reply that filled it.
    fills: HashMap<(u64, u64), String>,
}

impl Checker {
    /// Checks `reply` as the answer to `request`, whose built problem
    /// and `QuboProblem::signature()` are given.
    pub fn check(
        &mut self,
        request: &Request,
        problem: &Problem,
        signature: u64,
        reply: &Json,
    ) -> Result<Checked, String> {
        let status = reply.get("status").and_then(Json::as_str);
        if status != Some("ok") {
            return Err(format!("status {status:?}: {}", reply.compact()));
        }
        let tag = reply.get("workload").and_then(Json::as_str);
        if tag != Some(request.workload.tag()) {
            return Err(format!(
                "workload {tag:?} answers a {}",
                request.workload.tag()
            ));
        }
        if reply.get("degraded").and_then(Json::as_bool) != Some(false) {
            return Err("degraded reply without a deadline".into());
        }
        let solution = solution_of(request, reply)?;
        let objective = reply
            .get("objective")
            .and_then(Json::as_num)
            .ok_or("missing objective")?;
        let recomputed = problem.evaluate(&solution)?;
        if recomputed.to_bits() != objective.to_bits() {
            return Err(format!(
                "objective {objective:?} != recomputed {recomputed:?}"
            ));
        }
        let wire_sig = reply.get("signature").and_then(Json::as_str);
        let expected = format!("0x{signature:016x}");
        if wire_sig != Some(expected.as_str()) {
            return Err(format!("signature {wire_sig:?} != {expected}"));
        }
        let cached = reply
            .get("cached")
            .and_then(Json::as_bool)
            .ok_or("missing cached flag")?;
        let mut canonical = reply.clone();
        canonical.set("cached", Json::Bool(false));
        let canonical = canonical.compact();
        let key = (signature, request.seed);
        if cached {
            match self.fills.get(&key) {
                Some(fill) if *fill == canonical => {}
                Some(fill) => return Err(format!("cached reply {canonical} != fill {fill}")),
                None => return Err("cached reply with no fill seen".into()),
            }
        } else {
            self.fills.insert(key, canonical);
        }
        Ok(Checked {
            cached,
            objective,
            solution,
            solver: reply
                .get("solver")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        })
    }
}

/// Decodes the wire solution for the request's workload family.
fn solution_of(request: &Request, reply: &Json) -> Result<Solution, String> {
    let items = reply
        .get("solution")
        .and_then(Json::as_arr)
        .ok_or("missing solution")?;
    let indices = || {
        items
            .iter()
            .map(|x| match x.as_num() {
                Some(v) if v >= 0.0 && v.fract() == 0.0 => Ok(v as usize),
                _ => Err(format!("bad solution entry {}", x.compact())),
            })
            .collect::<Result<Vec<_>, _>>()
    };
    Ok(match request.workload.tag() {
        "join-order" => Solution::Order(indices()?),
        "mqo" => Solution::PlanChoice(indices()?),
        "tx-schedule" => Solution::Slots(indices()?),
        _ => Solution::Selection(
            items
                .iter()
                .map(|x| x.as_bool().ok_or("bad selection entry"))
                .collect::<Result<_, _>>()?,
        ),
    })
}
