//! Load generator and layer tracer for the `qmldb-serve` TCP optimizer
//! service. `main.rs` is the command-line driver; `README.md` in this
//! directory lists the workloads and metrics.

pub mod catalog;
pub mod check;
pub mod client;
pub mod gen;
pub mod load;
pub mod problem;
pub mod replay;
pub mod stats;

use qmldb_math::json::Json;

/// `QMLDB_THREADS` of the server child: one solve thread, so the server
/// and a two-thread client share a two-core host without solve threads
/// competing with each other.
pub const SERVER_THREADS: usize = 1;

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, &'static str, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0.push((name.to_string(), unit, value));
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, unit, value)| {
                    let v = Json::Obj(vec![
                        ("value".into(), Json::Num(*value)),
                        ("unit".into(), Json::Str((*unit).into())),
                    ]);
                    (name.clone(), v)
                })
                .collect(),
        )
    }
}

/// The server portfolio a workload names.
pub fn portfolio(name: &str) -> Result<qmldb_db::Portfolio, String> {
    match name {
        "classical" => Ok(qmldb_db::Portfolio::classical()),
        "full" => Ok(qmldb_db::Portfolio::full()),
        _ => Err(format!("unknown portfolio {name:?}")),
    }
}
