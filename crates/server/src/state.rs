//! Declarative instance specifications and the epoch payload.
//!
//! A published epoch carries a [`ServingInstance`]: a label plus a
//! warm incremental [`Engine`]. Building the engine at publish time
//! materializes the views and the ΔV-independent IR layer, with its
//! interned witness-provenance index, once per instance lineage; every request
//! against the epoch reads the engine's installed projection through
//! its `Arc` snapshot, and requests that add their own ΔV fork a
//! per-request problem via [`Engine::with_delta`] — an `O(active)`
//! projection over the shared static layer instead of a full
//! recompile. Delta publishes (`publish_delta`) clone the engine,
//! apply the batch incrementally, and publish the result as the next
//! epoch, so an epoch step costs ΔV-proportional work, not a rebuild.

use crate::wire::wire_int;
use delprop_core::{CoreError, Engine, Problem};
use delprop_json::Json;
use delprop_workload::figures;
use delprop_workload::forest::{self, ForestParams};
use delprop_workload::random_db::{self, RandomDbParams};

/// How to build a problem instance, as it travels over the wire in
/// `publish` requests and CLI flags.
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceSpec {
    /// The pivot-forest workload generator.
    Forest {
        /// Chain relations (levels).
        levels: usize,
        /// Window width in atoms.
        window: usize,
        /// Parallel chains merging like a binary tree.
        chains: usize,
        /// Fraction of view tuples marked deleted.
        delete_fraction: f64,
        /// Weighted preserved views?
        weighted: bool,
        /// Generator seed.
        seed: u64,
    },
    /// The random-database workload generator.
    Random {
        /// Binary relations in the pool.
        num_relations: usize,
        /// Queries (chains over distinct relations).
        num_queries: usize,
        /// Atoms per query.
        atoms_per_query: usize,
        /// Join-value domain size.
        domain: usize,
        /// Tuples per relation.
        tuples_per_relation: usize,
        /// Fraction of view tuples marked deleted.
        delete_fraction: f64,
        /// Weighted preserved views?
        weighted: bool,
        /// Generator seed.
        seed: u64,
    },
    /// The paper's running example (Figure 1).
    Fig1,
}

impl Default for InstanceSpec {
    fn default() -> Self {
        let p = ForestParams::default();
        InstanceSpec::Forest {
            levels: p.levels,
            window: p.window,
            chains: p.chains,
            delete_fraction: p.delete_fraction,
            weighted: p.weighted,
            seed: 1,
        }
    }
}

impl InstanceSpec {
    /// Build the problem (the IR warms when the engine is built).
    /// Parameters the generators cannot honour are an error, not a panic.
    pub fn build(&self) -> Result<Problem, CoreError> {
        Ok(match *self {
            InstanceSpec::Forest {
                levels,
                window,
                chains,
                delete_fraction,
                weighted,
                seed,
            } => {
                if !(0.0..=1.0).contains(&delete_fraction) {
                    return invalid(format!(
                        "`delete_fraction` is {delete_fraction}, not in [0, 1]"
                    ));
                }
                if !(1..=levels).contains(&window) {
                    return invalid(format!(
                        "`window` is {window}, not in 1..=`levels` ({levels})"
                    ));
                }
                // The generator shifts chain indices by up to `levels`.
                if levels >= usize::BITS as usize {
                    return invalid(format!("`levels` is {levels}, above {}", usize::BITS - 1));
                }
                forest::generate(
                    ForestParams {
                        levels,
                        window,
                        chains,
                        delete_fraction,
                        weighted,
                    },
                    seed,
                )
            }
            InstanceSpec::Random {
                num_relations,
                num_queries,
                atoms_per_query,
                domain,
                tuples_per_relation,
                delete_fraction,
                weighted,
                seed,
            } => {
                if !(0.0..=1.0).contains(&delete_fraction) {
                    return invalid(format!(
                        "`delete_fraction` is {delete_fraction}, not in [0, 1]"
                    ));
                }
                if !(1..=num_relations).contains(&atoms_per_query) {
                    return invalid(format!(
                        "`atoms_per_query` is {atoms_per_query}, not in 1..=`num_relations` ({num_relations})"
                    ));
                }
                // The generator caps each relation at `domain * domain` pairs.
                if domain.checked_mul(domain).is_none() {
                    return invalid(format!("`domain` is {domain}: its square overflows"));
                }
                random_db::generate(
                    RandomDbParams {
                        num_relations,
                        num_queries,
                        atoms_per_query,
                        domain,
                        tuples_per_relation,
                        delete_fraction,
                        weighted,
                    },
                    seed,
                )
            }
            InstanceSpec::Fig1 => figures::fig1_problem(),
        })
    }

    /// Render to the wire JSON document.
    pub fn to_json(&self) -> Json {
        match *self {
            InstanceSpec::Forest {
                levels,
                window,
                chains,
                delete_fraction,
                weighted,
                seed,
            } => Json::obj(vec![
                ("kind", Json::str("forest")),
                ("levels", Json::uint(levels as u64)),
                ("window", Json::uint(window as u64)),
                ("chains", Json::uint(chains as u64)),
                ("delete_fraction", Json::Num(delete_fraction)),
                ("weighted", Json::Bool(weighted)),
                ("seed", Json::uint(seed)),
            ]),
            InstanceSpec::Random {
                num_relations,
                num_queries,
                atoms_per_query,
                domain,
                tuples_per_relation,
                delete_fraction,
                weighted,
                seed,
            } => Json::obj(vec![
                ("kind", Json::str("random")),
                ("num_relations", Json::uint(num_relations as u64)),
                ("num_queries", Json::uint(num_queries as u64)),
                ("atoms_per_query", Json::uint(atoms_per_query as u64)),
                ("domain", Json::uint(domain as u64)),
                (
                    "tuples_per_relation",
                    Json::uint(tuples_per_relation as u64),
                ),
                ("delete_fraction", Json::Num(delete_fraction)),
                ("weighted", Json::Bool(weighted)),
                ("seed", Json::uint(seed)),
            ]),
            InstanceSpec::Fig1 => Json::obj(vec![("kind", Json::str("fig1"))]),
        }
    }

    /// Parse a wire JSON document, filling absent fields from the
    /// generator defaults. Counts and the seed must be integers in
    /// `0..=2^53`, like every integer on the wire; whether the generators
    /// accept the values is [`InstanceSpec::build`]'s check.
    pub fn from_json(j: &Json) -> Result<InstanceSpec, String> {
        let kind = match j.get("kind") {
            Some(Json::Str(s)) => s.as_str(),
            _ => return Err("spec requires a string `kind`".to_string()),
        };
        let num = |key: &str| {
            j.get(key)
                .map(|v| v.as_num().ok_or(format!("`{key}` must be a number")))
                .transpose()
        };
        let num_or = |key: &str, d: f64| Ok::<_, String>(num(key)?.unwrap_or(d));
        let uint_or = |key: &str, d: u64| num(key)?.map_or(Ok(d), |n| wire_int(n, key));
        let usize_or = |key: &str, d: usize| {
            usize::try_from(uint_or(key, d as u64)?).map_err(|_| format!("`{key}` overflows usize"))
        };
        let bool_or = |key: &str, d: bool| match j.get(key) {
            None => Ok(d),
            Some(Json::Bool(b)) => Ok(*b),
            Some(_) => Err(format!("`{key}` must be a boolean")),
        };
        let seed = uint_or("seed", 1)?;
        match kind {
            "forest" => {
                let d = ForestParams::default();
                Ok(InstanceSpec::Forest {
                    levels: usize_or("levels", d.levels)?,
                    window: usize_or("window", d.window)?,
                    chains: usize_or("chains", d.chains)?,
                    delete_fraction: num_or("delete_fraction", d.delete_fraction)?,
                    weighted: bool_or("weighted", d.weighted)?,
                    seed,
                })
            }
            "random" => {
                let d = RandomDbParams::default();
                Ok(InstanceSpec::Random {
                    num_relations: usize_or("num_relations", d.num_relations)?,
                    num_queries: usize_or("num_queries", d.num_queries)?,
                    atoms_per_query: usize_or("atoms_per_query", d.atoms_per_query)?,
                    domain: usize_or("domain", d.domain)?,
                    tuples_per_relation: usize_or("tuples_per_relation", d.tuples_per_relation)?,
                    delete_fraction: num_or("delete_fraction", d.delete_fraction)?,
                    weighted: bool_or("weighted", d.weighted)?,
                    seed,
                })
            }
            "fig1" => Ok(InstanceSpec::Fig1),
            other => Err(format!("unknown instance kind `{other}`")),
        }
    }
}

/// The error `build` returns for parameters the generators cannot honour.
fn invalid(reason: String) -> Result<Problem, CoreError> {
    Err(CoreError::InvalidParams { reason })
}

/// One epoch's payload: a label plus a warm incremental engine, shared
/// by every request that snapshots the epoch.
#[derive(Debug)]
pub struct ServingInstance {
    /// Human-readable label reported by `health`/`epoch`.
    pub label: String,
    /// The incremental engine: instance, provenance index, and the
    /// installed projection, warm at publish time.
    pub engine: Engine,
}

impl ServingInstance {
    /// Build from a spec, warming the engine's projection.
    pub fn build(label: impl Into<String>, spec: &InstanceSpec) -> Result<Self, CoreError> {
        Ok(ServingInstance {
            label: label.into(),
            engine: Engine::new(spec.build()?)?,
        })
    }

    /// The served problem (current ΔV, warm compiled IR).
    pub fn problem(&self) -> &Problem {
        self.engine.problem()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_roundtrip_and_build() {
        let specs = vec![
            InstanceSpec::default(),
            InstanceSpec::Random {
                num_relations: 3,
                num_queries: 2,
                atoms_per_query: 2,
                domain: 6,
                tuples_per_relation: 12,
                delete_fraction: 0.3,
                weighted: true,
                seed: 7,
            },
            InstanceSpec::Fig1,
        ];
        for spec in specs {
            let j = spec.to_json();
            assert_eq!(InstanceSpec::from_json(&j).unwrap(), spec, "{spec:?}");
            let p = spec.build().unwrap();
            assert!(p.norm_delta() > 0, "{spec:?} generated no deletions");
        }
    }

    #[test]
    fn spec_parsing_fills_defaults() {
        let j = delprop_json::parse(r#"{"kind":"forest","seed":9}"#).unwrap();
        let d = ForestParams::default();
        match InstanceSpec::from_json(&j).unwrap() {
            InstanceSpec::Forest {
                levels,
                window,
                chains,
                seed,
                ..
            } => {
                assert_eq!(
                    (levels, window, chains, seed),
                    (d.levels, d.window, d.chains, 9)
                );
            }
            other => panic!("wrong spec {other:?}"),
        }
    }

    #[test]
    fn spec_parsing_rejects_numbers_that_are_not_wire_integers() {
        for (doc, key) in [
            (r#"{"kind":"forest","levels":2.7}"#, "levels"),
            (r#"{"kind":"forest","chains":-4}"#, "chains"),
            (r#"{"kind":"forest","seed":-1}"#, "seed"),
            (r#"{"kind":"random","domain":9007199254740994}"#, "domain"),
            (r#"{"kind":"random","num_queries":"3"}"#, "num_queries"),
            (
                r#"{"kind":"forest","delete_fraction":"half"}"#,
                "delete_fraction",
            ),
            (r#"{"kind":"random","weighted":1}"#, "weighted"),
        ] {
            let j = delprop_json::parse(doc).unwrap();
            let err = InstanceSpec::from_json(&j).unwrap_err();
            assert!(err.contains(&format!("`{key}`")), "{doc}: {err}");
        }
        // 2^53 itself is still a wire integer.
        let j = delprop_json::parse(r#"{"kind":"forest","seed":9007199254740992}"#).unwrap();
        assert!(InstanceSpec::from_json(&j).is_ok());
    }

    #[test]
    fn build_rejects_parameters_the_generators_cannot_honour() {
        let forest = |window, levels, delete_fraction| InstanceSpec::Forest {
            levels,
            window,
            chains: 4,
            delete_fraction,
            weighted: false,
            seed: 1,
        };
        let random =
            |atoms_per_query, num_relations, domain, delete_fraction| InstanceSpec::Random {
                num_relations,
                num_queries: 2,
                atoms_per_query,
                domain,
                tuples_per_relation: 12,
                delete_fraction,
                weighted: false,
                seed: 1,
            };
        for (spec, what) in [
            (forest(5, 2, 0.2), "`window` is 5"),
            (forest(0, 2, 0.2), "`window` is 0"),
            (forest(1, 64, 0.2), "`levels` is 64"),
            (forest(2, 4, 1.5), "`delete_fraction` is 1.5"),
            (forest(2, 4, -0.1), "`delete_fraction` is -0.1"),
            (forest(2, 4, f64::NAN), "`delete_fraction` is NaN"),
            (random(3, 2, 6, 0.2), "`atoms_per_query` is 3"),
            (random(0, 2, 6, 0.2), "`atoms_per_query` is 0"),
            (random(2, 3, 6, f64::INFINITY), "`delete_fraction` is inf"),
            (random(2, 3, 1 << 32, 0.2), "`domain` is 4294967296"),
        ] {
            match spec.build() {
                Err(CoreError::InvalidParams { reason }) => {
                    assert!(reason.contains(what), "{spec:?}: {reason}")
                }
                other => panic!("{spec:?}: expected InvalidParams, got {other:?}"),
            }
        }
        // The bounds themselves build.
        for spec in [
            forest(4, 4, 1.0),
            forest(1, 1, 0.0),
            forest(1, 63, 0.2),
            random(3, 3, 6, 1.0),
        ] {
            spec.build().unwrap();
        }
    }
}
