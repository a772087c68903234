//! The benchmark's own view of a request's problem, built through the
//! public `qmldb-db` constructors exactly as the service builds it, so
//! replies can be checked and layers replayed from outside the server.

use qmldb_anneal::{fnv1a, split_signature, Constraints, Qubo, FNV_OFFSET};
use qmldb_db::{
    IndexCandidate, IndexSelection, JoinGraph, JoinOrderQubo, MqoInstance, Portfolio, QuboProblem,
    TxSchedule,
};
use qmldb_math::Rng64;
use qmldb_serve::{Solution, WorkloadSpec};

/// A built problem of one of the four families.
pub enum Problem {
    JoinOrder(JoinOrderQubo),
    Mqo(MqoInstance),
    IndexSelection(IndexSelection),
    TxSchedule(TxSchedule),
}

/// Runs `$body` with `$p` bound to the concrete problem.
macro_rules! each {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            Problem::JoinOrder($p) => $body,
            Problem::Mqo($p) => $body,
            Problem::IndexSelection($p) => $body,
            Problem::TxSchedule($p) => $body,
        }
    };
}

/// One portfolio member's run, as `SolverRun` reports it.
pub struct MemberRun {
    pub solver: &'static str,
    pub wall_s: f64,
    pub proposals: u64,
}

/// A replayed portfolio solve: the winner plus every member's run.
pub struct Solved {
    pub solution: Solution,
    pub objective: f64,
    pub solver: &'static str,
    pub runs: Vec<MemberRun>,
}

impl Problem {
    /// The problem constructor for a (validated) spec.
    pub fn build(spec: &WorkloadSpec) -> Problem {
        match spec {
            WorkloadSpec::JoinOrder {
                cardinalities,
                edges,
            } => Problem::JoinOrder(JoinOrderQubo::new(&JoinGraph::new(
                cardinalities.clone(),
                edges.clone(),
            ))),
            WorkloadSpec::Mqo {
                plan_costs,
                savings,
            } => Problem::Mqo(MqoInstance::new(plan_costs.clone(), savings.clone())),
            WorkloadSpec::IndexSelection {
                sizes,
                benefits,
                interactions,
                budget,
            } => Problem::IndexSelection(IndexSelection::new(
                sizes
                    .iter()
                    .zip(benefits)
                    .enumerate()
                    .map(|(i, (&size, &benefit))| IndexCandidate {
                        name: format!("idx{i}"),
                        size,
                        benefit,
                    })
                    .collect(),
                interactions.clone(),
                *budget,
            )),
            WorkloadSpec::TxSchedule {
                n_tx,
                n_slots,
                conflicts,
                balance_weight,
            } => Problem::TxSchedule(TxSchedule::new(
                *n_tx,
                *n_slots,
                conflicts.clone(),
                *balance_weight,
            )),
        }
    }

    pub fn n_vars(&self) -> usize {
        each!(self, p => p.n_vars())
    }

    /// The `auto_penalty` encoding the service solves.
    pub fn encode(&self) -> (Qubo, Constraints) {
        each!(self, p => p.encode_with_constraints(p.auto_penalty()))
    }

    /// `QuboProblem::signature`, the model half of the cache key.
    pub fn signature(&self) -> u64 {
        each!(self, p => p.signature())
    }

    /// The same signature computed the way the service does it, from the
    /// `auto_penalty` encoding it already holds: only the penalty-0
    /// encoding and the split hash are extra work.
    pub fn signature_of(&self, encoded: &(Qubo, Constraints)) -> u64 {
        each!(self, p => {
            let objective = p.encode(0.0);
            let h = fnv1a(FNV_OFFSET, p.name().as_bytes());
            let h = fnv1a(h, &(p.n_vars() as u64).to_le_bytes());
            fnv1a(h, &split_signature(&objective, &encoded.0).to_le_bytes())
        })
    }

    /// The domain objective of `solution`. Fails when the solution has
    /// the wrong family or shape, or violates a constraint (an
    /// over-budget index selection has no objective).
    pub fn evaluate(&self, solution: &Solution) -> Result<f64, String> {
        let checked = |feasible: bool, objective: &dyn Fn() -> f64| {
            if feasible {
                Ok(objective())
            } else {
                Err(format!("infeasible solution {solution:?}"))
            }
        };
        match (self, solution) {
            (Problem::JoinOrder(p), Solution::Order(order)) if is_perm(order, p.n_rels()) => {
                checked(p.is_feasible(&p.encode_solution(order)), &|| {
                    p.objective(order)
                })
            }
            (Problem::Mqo(p), Solution::PlanChoice(plans))
                if plans.len() == p.n_queries()
                    && plans
                        .iter()
                        .zip(&p.plan_costs)
                        .all(|(&c, row)| c < row.len()) =>
            {
                checked(p.is_feasible(&p.encode_solution(plans)), &|| {
                    p.objective(plans)
                })
            }
            (Problem::IndexSelection(p), Solution::Selection(sel)) if sel.len() == p.n() => {
                checked(p.is_feasible(&p.encode_solution(sel)), &|| p.objective(sel))
            }
            (Problem::TxSchedule(p), Solution::Slots(slots))
                if slots.len() == p.n_tx && slots.iter().all(|&s| s < p.n_slots) =>
            {
                checked(p.is_feasible(&p.encode_solution(slots)), &|| {
                    p.objective(slots)
                })
            }
            _ => Err(format!("malformed solution {solution:?}")),
        }
    }

    /// The optimum by exhaustive enumeration.
    pub fn optimum(&self) -> f64 {
        each!(self, p => p.exhaustive_baseline().1)
    }

    /// `Portfolio::solve_encoded` under the service's per-request stream
    /// `Rng64::for_stream(seed, signature)`.
    pub fn solve(
        &self,
        portfolio: &Portfolio,
        encoded: &(Qubo, Constraints),
        seed: u64,
        signature: u64,
    ) -> Solved {
        let mut rng = Rng64::for_stream(seed, signature);
        macro_rules! solved {
            ($p:expr, $wrap:expr) => {{
                let out = portfolio.solve_encoded($p, encoded, &mut rng);
                Solved {
                    solution: $wrap(out.solution),
                    objective: out.objective,
                    solver: out.solver,
                    runs: out
                        .runs
                        .iter()
                        .map(|r| MemberRun {
                            solver: r.solver,
                            wall_s: r.wall_time_s,
                            proposals: r.proposals,
                        })
                        .collect(),
                }
            }};
        }
        match self {
            Problem::JoinOrder(p) => solved!(p, Solution::Order),
            Problem::Mqo(p) => solved!(p, Solution::PlanChoice),
            Problem::IndexSelection(p) => solved!(p, Solution::Selection),
            Problem::TxSchedule(p) => solved!(p, Solution::Slots),
        }
    }
}

/// Whether `order` is a permutation of `0..n`.
fn is_perm(order: &[usize], n: usize) -> bool {
    let mut seen = vec![false; n];
    order.len() == n
        && order
            .iter()
            .all(|&r| r < n && !std::mem::replace(&mut seen[r], true))
}
