//! The experiment suite: one function per table/figure of
//! `EXPERIMENTS.md`. Everything is seeded and deterministic.

use crate::json::{self, Json};
use crate::{ratio, table};
use delprop_core::solvers::{dp_tree, exact, general, lowdeg_tree, lp_round, primal_dual};
use delprop_core::{classify, landscape};
use delprop_hypergraph::{gyo, Hypergraph};
use delprop_setcover::exact::ExactConfig;
use delprop_workload::{cleaning, figures, forest, gadget, random_db, redblue_gen};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// EX-FIG1 — the paper's Fig. 1 worked example, both deletions of §II.C.
pub fn ex_fig1() -> String {
    let mut out =
        String::from("EX-FIG1: Fig. 1 worked example (Q4 over the author/journal DB)\n\n");
    let p = figures::fig1_problem();
    out.push_str(&format!("D:\n{}", p.db().render()));
    out.push_str(&format!("\n‖V‖ = {} (paper: 7)\n", p.norm_v()));
    out.push_str("ΔV = {(John, TKDE, XML)}\n");
    let opt = exact::solve(p.compiled(), ExactConfig::default());
    let sol = opt.solution.expect("feasible");
    out.push_str(&format!(
        "optimal ΔD = {:?}, view side-effect = {} (paper: 1 — either\n\
         T1(John,TKDE) at cost 1 or T2(TKDE,XML,30) at cost 2; the key-\n\
         preserving property lets side-effects be read off key occurrences)\n",
        sol.deleted
            .iter()
            .map(|&t| p.db().tuple(t).unwrap().to_string())
            .collect::<Vec<_>>(),
        opt.cost
    ));
    let report = classify(&p);
    out.push_str(&format!("classifier: {}\n", report.recommendation));
    out
}

/// EX-FIG2 — the Fig. 2 reduction gadget.
pub fn ex_fig2() -> String {
    let mut out = String::from("EX-FIG2: Fig. 2 hardness gadget (Thm 1 reduction)\n\n");
    let rb = figures::fig2_redblue();
    out.push_str(&format!("{rb}\n"));
    let g = gadget::redblue_to_vse(&rb);
    out.push_str(&format!(
        "gadget: {} views ({} red join-path + {} blue), |D| = {}\n",
        g.problem.views().views.len(),
        g.red_views.len(),
        g.blue_views.len(),
        g.problem.db().len()
    ));
    let rb_opt = delprop_setcover::exact::solve(&rb, ExactConfig::default()).cost;
    let vse_opt = exact::solve(g.problem.compiled(), ExactConfig::default()).cost;
    out.push_str(&format!(
        "Red-Blue OPT = {rb_opt}, view-side-effect OPT = {vse_opt} (must coincide)\n"
    ));
    assert_eq!(rb_opt, vse_opt);
    out
}

/// EX-FIG3 — Fig. 3 dual-hypergraph hypertree classification.
pub fn ex_fig3() -> String {
    let mut out = String::from("EX-FIG3: Fig. 3 dual hypergraphs (hypertree recognition)\n\n");
    let (s1, s2, s3) = figures::fig3_query_sets();
    for (name, set, expected) in [
        ("Q1 = {Q1,Q3,Q4,Q5}", s1, false),
        ("Q2 = {Q1,Q3,Q5}", s2, true),
        ("Q3 = {Q1,Q2,Q5}", s3, true),
    ] {
        let got = gyo::is_hypertree(&Hypergraph::new(4, set));
        out.push_str(&format!("{name}: hypertree = {got} (paper: {expected})\n"));
        assert_eq!(got, expected);
    }
    out
}

/// EX-TAB1 — Table I (notation) as an API glossary.
pub fn ex_tab1() -> String {
    let rows = vec![
        vec![
            "S".into(),
            "schema".into(),
            "delprop_relation::Schema".into(),
        ],
        vec![
            "D".into(),
            "database instance".into(),
            "delprop_relation::Database".into(),
        ],
        vec![
            "T".into(),
            "relation symbol".into(),
            "delprop_relation::RelationSchema".into(),
        ],
        vec![
            "t".into(),
            "tuple".into(),
            "delprop_relation::Tuple / TupleId".into(),
        ],
        vec![
            "Q, Q(D), V".into(),
            "query, result, view".into(),
            "delprop_query::{BoundQuery, View}".into(),
        ],
        vec![
            "Q".into(),
            "query set".into(),
            "delprop_core::Problem::queries".into(),
        ],
        vec![
            "V".into(),
            "view set".into(),
            "delprop_query::ViewSet".into(),
        ],
        vec![
            "ΔV".into(),
            "view deletions".into(),
            "delprop_core::Problem::deletions".into(),
        ],
        vec![
            "ΔD".into(),
            "source deletions".into(),
            "delprop_core::Solution".into(),
        ],
        vec![
            "‖·‖".into(),
            "total size".into(),
            "Problem::{norm_v, norm_delta}".into(),
        ],
    ];
    format!(
        "EX-TAB1: Table I notation → API map\n\n{}",
        table(&["paper", "meaning", "API"], &rows)
    )
}

/// EX-TAB25 — Tables II–V: the complexity landscape.
pub fn ex_tab25() -> String {
    let mut out = String::from("EX-TAB25: complexity landscape (Tables II–V + this paper)\n\n");
    out.push_str("— source side-effect (Tables II–III) —\n");
    out.push_str(&landscape::render(&landscape::source_side_effect()));
    out.push_str("\n— view side-effect (Tables IV–V + this paper's results) —\n");
    out.push_str(&landscape::render(&landscape::view_side_effect()));
    out
}

/// EX-T1 — Theorem 1: the reduction preserves optima exactly, and the
/// approximation gap of cheap heuristics grows with instance size.
pub fn ex_t1() -> String {
    let mut rows = Vec::new();
    for (nr, nb, ns) in [(4, 4, 6), (6, 5, 8), (8, 6, 10), (10, 7, 14), (12, 8, 18)] {
        for seed in 0..3u64 {
            let rb = redblue_gen::redblue(
                redblue_gen::RedBlueParams {
                    num_red: nr,
                    num_blue: nb,
                    num_sets: ns,
                    ..Default::default()
                },
                seed,
            );
            let g = gadget::redblue_to_vse(&rb);
            let rb_opt = delprop_setcover::exact::solve(&rb, ExactConfig::default()).cost;
            let vse = exact::solve(g.problem.compiled(), ExactConfig::default());
            let greedy = general::solve_greedy(g.problem.compiled()).unwrap();
            assert!((rb_opt - vse.cost).abs() < 1e-9, "optima must transfer");
            rows.push(vec![
                format!("{nr}/{nb}/{ns}"),
                seed.to_string(),
                g.problem.norm_v().to_string(),
                g.problem.db().len().to_string(),
                format!("{rb_opt:.0}"),
                format!("{:.0}", vse.cost),
                ratio(greedy.side_effect(&g.problem), vse.cost),
            ]);
        }
    }
    format!(
        "EX-T1: Theorem 1 reduction (Red-Blue ↔ view side-effect)\n\
         optima coincide on every row (asserted) — the cost-preserving map\n\
         behind the inapproximability transfer; the greedy column shows\n\
         where the cheap heuristic starts missing.\n\n{}",
        table(
            &[
                "ρ/β/|𝒞|",
                "seed",
                "‖V‖",
                "|D|",
                "RB-OPT",
                "VSE-OPT",
                "greedy/OPT"
            ],
            &rows
        )
    )
}

/// EX-T2 — Theorem 2: the balanced reduction preserves optima exactly.
pub fn ex_t2() -> String {
    let mut rows = Vec::new();
    for (nr, nb, ns) in [(4, 4, 6), (6, 5, 8), (8, 6, 10), (10, 7, 12)] {
        for seed in 0..3u64 {
            let pn = redblue_gen::posneg(
                redblue_gen::RedBlueParams {
                    num_red: nr,
                    num_blue: nb,
                    num_sets: ns,
                    weighted: true,
                    ..Default::default()
                },
                seed,
            );
            let g = gadget::posneg_to_balanced(&pn);
            let (_, pn_opt, _) =
                delprop_setcover::reduce::solve_posneg_exact(&pn, ExactConfig::default());
            let bal = exact::solve_balanced(g.problem.compiled(), ExactConfig::default());
            assert!(
                (pn_opt - bal.cost).abs() < 1e-9,
                "balanced optima must transfer"
            );
            rows.push(vec![
                format!("{nr}/{nb}/{ns}"),
                seed.to_string(),
                g.problem.norm_v().to_string(),
                format!("{pn_opt:.1}"),
                format!("{:.1}", bal.cost),
            ]);
        }
    }
    format!(
        "EX-T2: Theorem 2 reduction (Pos-Neg ↔ balanced deletion propagation)\n\n{}",
        table(&["|N|/|P|/|𝒞|", "seed", "‖V‖", "PN-OPT", "BAL-OPT"], &rows)
    )
}

/// EX-C1 — Claim 1: general-case approximation vs its bound.
pub fn ex_c1() -> String {
    let mut rows = Vec::new();
    for (m, atoms) in [(2usize, 2usize), (3, 2), (4, 2), (2, 3), (3, 3)] {
        for seed in 0..3u64 {
            let p = random_db::generate(
                random_db::RandomDbParams {
                    num_queries: m,
                    atoms_per_query: atoms,
                    num_relations: atoms + 3,
                    // Keep 3-atom workloads small: the exact/LP baselines
                    // are exponential/dense and only the *shape* matters.
                    domain: if atoms >= 3 { 4 } else { 6 },
                    tuples_per_relation: if atoms >= 3 { 9 } else { 14 },
                    ..Default::default()
                },
                seed,
            );
            let sol = general::solve(p.compiled()).unwrap();
            let cost = sol.side_effect(&p);
            let lb = lp_round::lower_bound(p.compiled());
            let ex = exact::solve(
                p.compiled(),
                ExactConfig {
                    node_limit: Some(2_000_000),
                },
            );
            let denom = if ex.proven_optimal { ex.cost } else { lb };
            let bound = general::ratio_bound(p.compiled());
            assert!(sol.is_feasible(&p));
            assert!(cost <= bound * denom.max(1.0) + 1e-6);
            rows.push(vec![
                format!("{m}×{atoms}"),
                seed.to_string(),
                p.l().to_string(),
                p.norm_v().to_string(),
                p.norm_delta().to_string(),
                format!("{cost:.0}"),
                if ex.proven_optimal {
                    format!("{:.0}", ex.cost)
                } else {
                    format!("≥{lb:.1}")
                },
                ratio(cost, denom),
                format!("{bound:.1}"),
            ]);
        }
    }
    format!(
        "EX-C1: Claim 1 general-case approximation (reduce to Red-Blue + LowDeg)\n\
         measured ratios sit far below the 2√(l·‖V‖·log‖ΔV‖) bound.\n\n{}",
        table(
            &[
                "q×atoms",
                "seed",
                "l",
                "‖V‖",
                "‖ΔV‖",
                "alg",
                "OPT",
                "ratio",
                "bound"
            ],
            &rows
        )
    )
}

/// EX-L1 — Lemma 1: balanced approximation vs its bound.
pub fn ex_l1() -> String {
    let mut rows = Vec::new();
    for (m, atoms) in [(2usize, 2usize), (3, 2), (2, 3)] {
        for seed in 0..3u64 {
            let p = random_db::generate(
                random_db::RandomDbParams {
                    num_queries: m,
                    atoms_per_query: atoms,
                    num_relations: atoms + 3,
                    tuples_per_relation: 12,
                    ..Default::default()
                },
                seed,
            );
            let sol = general::solve_balanced(p.compiled());
            let cost = sol.balanced_cost(&p);
            let ex = exact::solve_balanced(
                p.compiled(),
                ExactConfig {
                    node_limit: Some(2_000_000),
                },
            );
            let lb = if ex.proven_optimal {
                ex.cost
            } else {
                lp_round::balanced_lower_bound(p.compiled())
            };
            let bound = general::balanced_ratio_bound(p.compiled());
            assert!(cost <= bound * lb.max(1.0) + 1e-6);
            rows.push(vec![
                format!("{m}×{atoms}"),
                seed.to_string(),
                p.norm_v().to_string(),
                p.norm_delta().to_string(),
                format!("{cost:.1}"),
                format!("{lb:.1}"),
                ratio(cost, lb),
                format!("{bound:.1}"),
            ]);
        }
    }
    format!(
        "EX-L1: Lemma 1 balanced approximation (via Pos-Neg partial cover)\n\n{}",
        table(
            &[
                "q×atoms",
                "seed",
                "‖V‖",
                "‖ΔV‖",
                "alg",
                "OPT/LB",
                "ratio",
                "bound"
            ],
            &rows
        )
    )
}

/// EX-T3 — Theorem 3: PrimeDualVSE ratio ≤ l on forest cases.
pub fn ex_t3() -> String {
    let mut rows = Vec::new();
    for window in 1usize..=4 {
        let mut worst: f64 = 0.0;
        let mut sum = 0.0;
        let mut n = 0usize;
        for seed in 0..6u64 {
            let p = forest::generate(
                forest::ForestParams {
                    levels: window.max(3) + 1,
                    window,
                    chains: 10,
                    delete_fraction: 0.3,
                    weighted: true,
                },
                seed,
            );
            let out = primal_dual::solve(p.compiled(), &Default::default()).unwrap();
            let ex = exact::solve(
                p.compiled(),
                ExactConfig {
                    node_limit: Some(5_000_000),
                },
            );
            assert!(out.solution.is_feasible(&p));
            assert!(out.dual_objective <= ex.cost + 1e-6);
            let r = if ex.cost > 1e-9 {
                out.solution.side_effect(&p) / ex.cost
            } else if out.solution.side_effect(&p) > 1e-9 {
                f64::INFINITY
            } else {
                1.0
            };
            worst = worst.max(r);
            sum += r;
            n += 1;
        }
        let l = window + 1;
        assert!(worst <= l as f64 + 1e-6, "ratio above l");
        rows.push(vec![
            l.to_string(),
            format!("{:.2}", sum / n as f64),
            format!("{worst:.2}"),
            l.to_string(),
        ]);
    }
    format!(
        "EX-T3: Theorem 3 — PrimeDualVSE on forest cases (6 seeds per l)\n\
         every measured ratio ≤ l; dual objective ≤ OPT (weak duality checked).\n\n{}",
        table(&["l", "mean ratio", "worst ratio", "bound (l)"], &rows)
    )
}

/// EX-P1 — Proposition 1: PrimeDualVSE runtime scaling.
pub fn ex_p1() -> String {
    let mut rows = Vec::new();
    let mut points: Vec<(f64, f64)> = Vec::new();
    for chains in [64usize, 128, 256, 512, 1024] {
        let p = forest::generate(
            forest::ForestParams {
                levels: 4,
                window: 2,
                chains,
                delete_fraction: 0.2,
                weighted: false,
            },
            7,
        );
        let start = Instant::now();
        let out = primal_dual::solve(p.compiled(), &Default::default()).unwrap();
        let elapsed = start.elapsed().as_secs_f64();
        assert!(out.solution.is_feasible(&p));
        points.push(((p.norm_v() as f64).ln(), elapsed.max(1e-6).ln()));
        rows.push(vec![
            chains.to_string(),
            p.norm_v().to_string(),
            p.norm_delta().to_string(),
            format!("{:.3} ms", elapsed * 1e3),
        ]);
    }
    // Least-squares slope of log(time) vs log(‖V‖).
    let n = points.len() as f64;
    let (sx, sy): (f64, f64) = points
        .iter()
        .fold((0.0, 0.0), |a, p| (a.0 + p.0, a.1 + p.1));
    let (sxx, sxy): (f64, f64) = points
        .iter()
        .fold((0.0, 0.0), |a, p| (a.0 + p.0 * p.0, a.1 + p.0 * p.1));
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    format!(
        "EX-P1: Proposition 1 — PrimeDualVSE runtime scaling\n\
         fitted log-log slope = {slope:.2}; Proposition 1 allows up to\n\
         O(l·‖ΔV‖²·‖V‖ + ‖V‖⁴) — the implementation sits far below it.\n\n{}",
        table(&["chains", "‖V‖", "‖ΔV‖", "time"], &rows)
    )
}

/// Scale factor for the scaling experiments (the harness's `--scale`
/// knob). 1 — the default — reproduces the gated sweeps exactly; larger
/// factors multiply the workload sizes, to see how a sweep's costs grow
/// an order of magnitude past its gated sizes, and suppress the
/// baseline-locked speedup columns, since the committed baselines only
/// describe the unscaled sweep.
static SCALE: AtomicUsize = AtomicUsize::new(1);

/// Set the workload scale factor (panics on 0).
pub fn set_scale(factor: usize) {
    assert!(factor >= 1, "--scale must be at least 1");
    // ordering: Relaxed — set once from main before any sweep thread
    // reads it; no other data rides on this store.
    SCALE.store(factor, Ordering::Relaxed);
}

/// The current workload scale factor.
pub fn scale() -> usize {
    SCALE.load(Ordering::Relaxed) // ordering: plain config read, set before sweeps start
}

/// EX-KERN — the packed-kernel hot paths on the EX-P1 sweep: bitset
/// witness rows and word-parallel sweeps (dense primal-dual), the
/// monotone bucket-queue τ-sweep (`lowdeg_tree`), and the bucket-queue
/// greedy on a large Red-Blue instance. Wall clocks are min-of-REPS;
/// the primal-dual column is compared against the pre-refactor
/// implementation (hash-set hot paths) measured on the same workloads
/// and machine class, and the geomean speedup is asserted ≥ 2×. Raw
/// rows land in `artifacts/BENCH_kernels.json`, which the CI bench gate
/// holds against `baselines/` (±30% on `*_micros`, hard equality on
/// costs and instance measures). With `--scale N > 1` the sweep runs
/// N× larger and the speedup columns are omitted (not gated).
pub fn ex_kern() -> String {
    use delprop_setcover::{greedy, lowdeg, CoverSet, RedBlueInstance};
    use delprop_workload::rng::SplitMix64;

    const REPS: usize = 50;
    // Solves per timed rep: the fastest cells run in ~1µs, where clock
    // quantization alone is a ±30% swing; timing a 16-solve batch and
    // dividing keeps every measured quantum well above the noise floor.
    // (Batch means sit slightly above a single-solve min, so the
    // speedups below are if anything conservative.)
    const BATCH: usize = 16;
    const SETCOVER_REPS: usize = 5;
    const CHAINS: [usize; 5] = [64, 128, 256, 512, 1024];
    // Pre-refactor wall-clock floors (µs) on the same workloads
    // (seed 7), measured at commit 4495423 — the last commit with the
    // HashSet/HashMap hot paths — under EXACTLY the discipline below:
    // compile hoisted, min over 50 reps of a 16-solve batch mean
    // (median of three back-to-back runs). The geomean gate further
    // down is over BOTH kernel columns: the dense primal-dual and the
    // bucket-queue τ-sweep, i.e. every solver hot path the EX-P1
    // forest sweep hits.
    const PRE_PD_MICROS: [f64; 5] = [1.35, 2.47, 5.50, 12.0, 23.4];
    const PRE_LOWDEG_MICROS: [f64; 5] = [13.2, 24.0, 50.4, 108.3, 216.4];
    // The calibration sweep's duration on the box that recorded the
    // floors above (same discipline: min of 20 timed passes; observed
    // 143–152 µs across runs, midpoint recorded).
    const CAL_REF_MICROS: f64 = 148.0;

    let k = scale();
    // The PRE_* floors are absolute wall clocks, so a throttled (or a
    // faster) box would shift the measured speedups even though the
    // code did not change. A fixed, deterministic popcount/rotate
    // sweep — serially dependent, so it times the scalar core like the
    // kernel inner loops do — is measured with the same min-of-reps
    // discipline, and every floor is rescaled by `cal / CAL_REF`:
    // uniform CPU-speed drift cancels out of the speedup columns. The
    // raw micros columns stay raw (they carry their own ±tolerance in
    // the bench gate).
    let cal_micros = {
        let words: Vec<u64> = (0..1usize << 14)
            .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let mut best = f64::INFINITY;
        for _ in 0..20 {
            let t = Instant::now();
            let mut acc = 0u64;
            for _ in 0..8 {
                for w in &words {
                    acc = acc.rotate_left(7) ^ u64::from(w.count_ones());
                }
            }
            std::hint::black_box(acc);
            best = best.min(t.elapsed().as_secs_f64() * 1e6);
        }
        best
    };
    let cal_scale = cal_micros / CAL_REF_MICROS;
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut log_speedups = Vec::new();
    for (i, &chains) in CHAINS.iter().enumerate() {
        let p = forest::generate(
            forest::ForestParams {
                levels: 4,
                window: 2,
                chains,
                delete_fraction: 0.2,
                weighted: false,
            }
            .scaled(k),
            7,
        );
        let ir = p.compiled(); // compile outside the timed region
        let mut pd_micros = f64::INFINITY;
        for _ in 0..REPS {
            let t = Instant::now();
            for _ in 0..BATCH {
                let out = primal_dual::solve(ir, &Default::default()).unwrap();
                std::hint::black_box(out.solution.len());
            }
            pd_micros = pd_micros.min(t.elapsed().as_secs_f64() * 1e6 / BATCH as f64);
        }
        // Cost is deterministic — price one solve outside the timer.
        let cost = {
            let out = primal_dual::solve(ir, &Default::default()).unwrap();
            ir.side_effect_of(&out.solution)
        };
        let mut ld_micros = f64::INFINITY;
        for _ in 0..REPS {
            let t = Instant::now();
            for _ in 0..BATCH {
                let sol = lowdeg_tree::solve(ir).unwrap();
                std::hint::black_box(sol.len());
            }
            ld_micros = ld_micros.min(t.elapsed().as_secs_f64() * 1e6 / BATCH as f64);
        }
        assert!(lowdeg_tree::solve(ir).unwrap().is_feasible(&p));
        let fields = vec![
            ("chains", Json::uint((chains * k) as u64)),
            ("norm_v", Json::uint(p.norm_v() as u64)),
            ("norm_delta", Json::uint(p.norm_delta() as u64)),
            ("pd_cost", Json::rounded(cost, 6)),
            ("primal_dual_micros", Json::rounded(pd_micros, 1)),
            ("lowdeg_micros", Json::rounded(ld_micros, 1)),
        ];
        // Per-row speedups are display-only: at µs scale the row-level
        // ratios are too noisy to gate individually, so the gate holds
        // the per-row micros (±30%) and the single geomean below.
        let (pd_col, ld_col) = if k == 1 {
            let pd_speedup = PRE_PD_MICROS[i] * cal_scale / pd_micros;
            let ld_speedup = PRE_LOWDEG_MICROS[i] * cal_scale / ld_micros;
            log_speedups.push(pd_speedup.ln());
            log_speedups.push(ld_speedup.ln());
            (format!("{pd_speedup:.1}x"), format!("{ld_speedup:.1}x"))
        } else {
            ("—".into(), "—".into())
        };
        rows.push(vec![
            (chains * k).to_string(),
            p.norm_v().to_string(),
            p.norm_delta().to_string(),
            format!("{:.3} ms", pd_micros / 1e3),
            pd_col,
            format!("{:.3} ms", ld_micros / 1e3),
            ld_col,
        ]);
        json_rows.push(Json::obj(fields));
    }

    // The bucket-queue greedy on a large deterministic Red-Blue instance
    // (every blue coverable by construction: set `b % ns` gets blue `b`).
    let (nr, nb, ns) = (400 * k, 300 * k, 1500 * k);
    let mut rng = SplitMix64::seed_from_u64(0x6b65726e); // "kern"
    let mut sets: Vec<CoverSet> = (0..ns)
        .map(|_| {
            let reds = (0..rng.below(6)).map(|_| rng.below(nr)).collect();
            let blues = (0..rng.below(6)).map(|_| rng.below(nb)).collect();
            CoverSet::new(reds, blues)
        })
        .collect();
    for b in 0..nb {
        if !sets.iter().any(|s| s.blue.contains(&b)) {
            let si = b % sets.len();
            let mut blue = sets[si].blue.clone();
            blue.push(b);
            sets[si] = CoverSet::new(sets[si].red.clone(), blue);
        }
    }
    let inst = RedBlueInstance::new(nr, nb, sets);
    let mut greedy_micros = f64::INFINITY;
    let mut greedy_cost = 0.0;
    for _ in 0..SETCOVER_REPS {
        let t = Instant::now();
        let sel = greedy::cover(&inst).expect("coverable by construction");
        greedy_micros = greedy_micros.min(t.elapsed().as_secs_f64() * 1e6);
        greedy_cost = inst.cost(&sel);
    }
    let mut lowdeg_cover_micros = f64::INFINITY;
    let mut lowdeg_cost = 0.0;
    for _ in 0..SETCOVER_REPS {
        let t = Instant::now();
        let sel = lowdeg::solve(&inst).expect("coverable by construction");
        lowdeg_cover_micros = lowdeg_cover_micros.min(t.elapsed().as_secs_f64() * 1e6);
        lowdeg_cost = inst.cost(&sel);
    }
    json_rows.push(Json::obj(vec![
        ("sets", Json::uint(ns as u64)),
        ("reds", Json::uint(nr as u64)),
        ("blues", Json::uint(nb as u64)),
        ("greedy_cost", Json::rounded(greedy_cost, 6)),
        ("greedy_micros", Json::rounded(greedy_micros, 1)),
        ("lowdeg_cost", Json::rounded(lowdeg_cost, 6)),
        ("lowdeg_cover_micros", Json::rounded(lowdeg_cover_micros, 1)),
    ]));

    let geomean_note = if k == 1 {
        let geomean = (log_speedups.iter().sum::<f64>() / log_speedups.len() as f64).exp();
        assert!(
            geomean >= 2.0,
            "packed kernels must hold a >=2x geomean win over the \
             pre-refactor hot paths (measured {geomean:.2}x)"
        );
        json_rows.push(Json::obj(vec![
            ("cal_micros", Json::rounded(cal_micros, 1)),
            ("geomean_speedup", Json::rounded(geomean, 2)),
        ]));
        format!(
            "geomean speedup vs pre-refactor hot paths: {geomean:.1}x \
             (gate: >=2x; floors rescaled by {cal_scale:.2} via calibration)"
        )
    } else {
        format!("scale factor {k}: exploratory sweep, speedup columns ungated")
    };
    let written = json::write_artifact("artifacts/BENCH_kernels.json", &Json::Arr(json_rows))
        .unwrap_or_else(|e| format!("(not written: {e})"));
    format!(
        "EX-KERN: packed kernel hot paths on the EX-P1 sweep (min of {REPS} {BATCH}-solve batches)\n         \
         {geomean_note}\n         \
         greedy/lowdeg on a {ns}-set Red-Blue instance: {:.3} ms / {:.3} ms\n         \
         (raw JSON: {written})\n\n{}",
        greedy_micros / 1e3,
        lowdeg_cover_micros / 1e3,
        table(
            &[
                "chains",
                "‖V‖",
                "‖ΔV‖",
                "primal-dual",
                "pd speedup",
                "lowdeg τ-sweep",
                "ld speedup"
            ],
            &rows
        )
    )
}

/// EX-INC — the incremental engine on the EX-P1 forest sweep: warm
/// ΔV-stream servicing (engine patch + solve per batch) vs cold
/// recompute (full `compiled()` + solve per batch) over the same
/// deterministic delete/restore stream. Equivalence is asserted in-run
/// — every warm projection must carry the same `shape_digest` as its
/// cold twin, and the final solver costs must match bit-for-bit — so
/// the speedup column compares identical answers, not approximations.
/// Raw rows land in `artifacts/BENCH_incr.json`; the CI gate holds
/// `warm_speedup` per row (LowerIsWorse) plus the hard `>= 5x` geomean
/// assert below. With `--scale N > 1` the sweep runs N× larger and the
/// speedup gate is skipped (exploratory, not baselined).
pub fn ex_incr() -> String {
    use delprop_core::{DeltaBatch, Engine};
    use delprop_workload::rng::SplitMix64;

    const REPS: usize = 7;
    const STREAM: usize = 12;
    const CHAINS: [usize; 5] = [64, 128, 256, 512, 1024];

    let k = scale();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut log_speedups = Vec::new();
    for &chains in &CHAINS {
        // The EX-P1 forest shapes, started pristine: the serving regime
        // the engine exists for is a large stable instance taking small
        // ΔV batches, so the stream itself carries the whole ΔV. (With
        // EX-P1's 20% pre-seeded ΔV the per-batch solve — identical in
        // both arms — would drown the compile-vs-patch signal.)
        let base = forest::generate(
            forest::ForestParams {
                levels: 4,
                window: 2,
                chains,
                delete_fraction: 0.0,
                weighted: false,
            }
            .scaled(k),
            7,
        );
        // A fixed, replayable batch stream: deletes drawn from the
        // tuples still preserved, restores from the accumulated ΔV.
        let mut rng = SplitMix64::seed_from_u64(0x696e_6372 + chains as u64); // "incr"
        let mut mirror: Vec<_> = base.deletions().iter().copied().collect();
        let mut preserved: Vec<_> = base.preserved().map(|(id, _)| id).collect();
        let mut stream = Vec::with_capacity(STREAM);
        for _ in 0..STREAM {
            let mut batch = DeltaBatch::default();
            for _ in 0..2 {
                if preserved.is_empty() {
                    break;
                }
                let id = preserved.swap_remove(rng.below(preserved.len()));
                batch.delete.push(id);
                mirror.push(id);
            }
            if !mirror.is_empty() && rng.chance(0.5) {
                let id = mirror.swap_remove(rng.below(mirror.len()));
                batch.restore.push(id);
                preserved.push(id);
            }
            stream.push(batch);
        }

        // Untimed correctness pass: the warm projection must be
        // byte-identical to a cold compile at every step.
        let prototype = Engine::new(base.clone()).unwrap();
        let mut engine = prototype.clone();
        let mut cold = base.clone();
        for batch in &stream {
            engine.apply(batch).unwrap();
            for &id in &batch.delete {
                cold.mark_deleted_id(id).unwrap();
            }
            for &id in &batch.restore {
                cold.unmark_deleted_id(id).unwrap();
            }
            assert_eq!(
                engine.compiled().shape_digest(),
                cold.compiled().shape_digest(),
                "warm projection diverged from cold compile ({chains} chains)"
            );
        }
        let warm_out = primal_dual::solve(&engine.compiled(), &Default::default()).unwrap();
        let cold_out = primal_dual::solve(cold.compiled(), &Default::default()).unwrap();
        let final_cost = cold.compiled().side_effect_of(&cold_out.solution);
        assert_eq!(
            engine
                .compiled()
                .side_effect_of(&warm_out.solution)
                .to_bits(),
            final_cost.to_bits(),
            "warm/cold solver costs diverged ({chains} chains)"
        );

        // Warm arm: one long-lived engine services the whole stream.
        let mut warm_micros = f64::INFINITY;
        for _ in 0..REPS {
            let mut engine = prototype.clone();
            let t = Instant::now();
            for batch in &stream {
                engine.apply(batch).unwrap();
                let out = primal_dual::solve(&engine.compiled(), &Default::default()).unwrap();
                std::hint::black_box(out.solution.len());
            }
            warm_micros = warm_micros.min(t.elapsed().as_secs_f64() * 1e6 / STREAM as f64);
        }
        // Cold arm: every batch pays a full compile before the solve.
        let mut cold_micros = f64::INFINITY;
        for _ in 0..REPS {
            let mut cold = base.clone();
            let t = Instant::now();
            for batch in &stream {
                for &id in &batch.delete {
                    cold.mark_deleted_id(id).unwrap();
                }
                for &id in &batch.restore {
                    cold.unmark_deleted_id(id).unwrap();
                }
                let out = primal_dual::solve(cold.compiled(), &Default::default()).unwrap();
                std::hint::black_box(out.solution.len());
            }
            cold_micros = cold_micros.min(t.elapsed().as_secs_f64() * 1e6 / STREAM as f64);
        }
        let speedup = cold_micros / warm_micros;
        log_speedups.push(speedup.ln());
        json_rows.push(Json::obj(vec![
            ("chains", Json::uint((chains * k) as u64)),
            ("norm_v", Json::uint(base.norm_v() as u64)),
            ("stream_batches", Json::uint(STREAM as u64)),
            ("final_cost", Json::rounded(final_cost, 6)),
            ("warm_micros", Json::rounded(warm_micros, 1)),
            ("cold_micros", Json::rounded(cold_micros, 1)),
            ("warm_speedup", Json::rounded(speedup, 2)),
        ]));
        rows.push(vec![
            (chains * k).to_string(),
            base.norm_v().to_string(),
            format!("{:.3} ms", warm_micros / 1e3),
            format!("{:.3} ms", cold_micros / 1e3),
            format!("{speedup:.1}x"),
        ]);
    }
    let geomean = (log_speedups.iter().sum::<f64>() / log_speedups.len() as f64).exp();
    let gate_note = if k == 1 {
        assert!(
            geomean >= 5.0,
            "warm ΔV-stream servicing must hold a >=5x geomean win over \
             cold recompute (measured {geomean:.2}x)"
        );
        format!("geomean warm speedup: {geomean:.1}x (gate: >=5x)")
    } else {
        format!("scale factor {k}: exploratory sweep, geomean {geomean:.1}x ungated")
    };
    let written = json::write_artifact("artifacts/BENCH_incr.json", &Json::Arr(json_rows))
        .unwrap_or_else(|e| format!("(not written: {e})"));
    format!(
        "EX-INC: incremental engine — warm ΔV-stream servicing vs cold recompute\n         \
         ({STREAM}-batch delete/restore streams on the EX-P1 sweep, min of {REPS} replays,\n         \
         per-batch patch+solve vs compile+solve; digests asserted identical in-run)\n         \
         {gate_note}\n         \
         (raw JSON: {written})\n\n{}",
        table(
            &["chains", "‖V‖", "warm/batch", "cold/batch", "speedup"],
            &rows
        )
    )
}

/// EX-T4 — Theorem 4: LowDegTreeVSETwo ≤ 2√‖V‖, and the crossover
/// against factor-l PrimeDualVSE.
pub fn ex_t4() -> String {
    let mut rows = Vec::new();
    // Regime A: large l, few view tuples (2√‖V‖ < l plausible).
    // Regime B: small l, many view tuples (l < 2√‖V‖).
    for (label, levels, window, chains) in [
        ("large-l", 6usize, 5usize, 4usize),
        ("large-l", 5, 4, 4),
        ("small-l", 4, 1, 24),
        ("small-l", 5, 2, 16),
    ] {
        for seed in 0..3u64 {
            let p = forest::generate(
                forest::ForestParams {
                    levels,
                    window,
                    chains,
                    delete_fraction: 0.3,
                    weighted: true,
                },
                seed,
            );
            let pd = primal_dual::solve_default(p.compiled()).unwrap();
            let ld = lowdeg_tree::solve(p.compiled()).unwrap();
            let ex = exact::solve(
                p.compiled(),
                ExactConfig {
                    node_limit: Some(5_000_000),
                },
            );
            let bound = lowdeg_tree::ratio_bound(p.compiled());
            assert!(ld.side_effect(&p) <= bound * ex.cost.max(1.0) + 1e-6);
            let l = p.l() as f64;
            rows.push(vec![
                label.to_string(),
                seed.to_string(),
                format!("{l:.0}"),
                format!("{:.1}", 2.0 * (p.norm_v() as f64).sqrt()),
                format!("{:.0}", ex.cost),
                format!("{:.0}", pd.side_effect(&p)),
                format!("{:.0}", ld.side_effect(&p)),
                if ld.side_effect(&p) < pd.side_effect(&p) - 1e-9 {
                    "lowdeg".into()
                } else if pd.side_effect(&p) < ld.side_effect(&p) - 1e-9 {
                    "primal-dual".into()
                } else {
                    "tie".into()
                },
            ]);
        }
    }
    format!(
        "EX-T4: Theorem 4 — LowDegTreeVSETwo (2√‖V‖) vs PrimeDualVSE (l)\n\
         the paper: \"sometimes better than factor l\". The *guarantee*\n\
         crossover shows in the l vs 2√‖V‖ columns (which bound is\n\
         smaller flips between regimes); on these workloads both\n\
         algorithms usually reach the optimum, so measured costs tie.\n\n{}",
        table(
            &[
                "regime",
                "seed",
                "l",
                "2√‖V‖",
                "OPT",
                "primal-dual",
                "lowdeg",
                "winner"
            ],
            &rows
        )
    )
}

/// EX-DP — §IV.E: the pivot-forest DP is exact and scales polynomially
/// where branch and bound explodes.
pub fn ex_dp() -> String {
    let mut rows = Vec::new();
    for (branches, depth) in [(3usize, 2usize), (5, 2), (8, 3), (12, 3), (40, 3), (120, 3)] {
        let blue: Vec<usize> = (0..branches).step_by(2).collect();
        let p = forest::pivot_broom(branches, depth, &blue);
        assert!(dp_tree::applies(p.compiled()));
        let t0 = Instant::now();
        let dp = dp_tree::solve(p.compiled()).unwrap();
        let dp_time = t0.elapsed().as_secs_f64();
        let (opt_str, exact_time) = if branches <= 12 {
            let t1 = Instant::now();
            let ex = exact::solve(
                p.compiled(),
                ExactConfig {
                    node_limit: Some(5_000_000),
                },
            );
            let et = t1.elapsed().as_secs_f64();
            assert!(
                (dp.side_effect(&p) - ex.cost).abs() < 1e-9,
                "DP must be exact"
            );
            (format!("{:.0}", ex.cost), format!("{:.3} ms", et * 1e3))
        } else {
            ("—".into(), "skipped".into())
        };
        rows.push(vec![
            format!("{branches}×{depth}"),
            p.norm_v().to_string(),
            p.norm_delta().to_string(),
            format!("{:.0}", dp.side_effect(&p)),
            opt_str,
            format!("{:.3} ms", dp_time * 1e3),
            exact_time,
        ]);
    }
    format!(
        "EX-DP: §IV.E — DPTreeVSE exactness and polynomial runtime on pivot brooms\n\n{}",
        table(
            &[
                "broom",
                "‖V‖",
                "‖ΔV‖",
                "DP cost",
                "OPT",
                "DP time",
                "B&B time"
            ],
            &rows
        )
    )
}

/// EX-IR — the compiled-instance IR: one compile per portfolio solve,
/// and the cost of compiling once versus rebuilding per member, on the
/// EX-P1 forest sweep. Raw measurements land in `artifacts/BENCH_ir.json`.
pub fn ex_ir() -> String {
    use delprop_core::ir;
    use delprop_core::runtime::{Budget, MemberStatus, Portfolio};

    let params = |chains: usize| forest::ForestParams {
        levels: 4,
        window: 2,
        chains,
        delete_fraction: 0.2,
        weighted: false,
    };
    let chain = Portfolio::standard();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for chains in [64usize, 128, 256, 512, 1024] {
        // Cold compile on a fresh instance.
        let p = forest::generate(params(chains), 7);
        let t0 = Instant::now();
        let _ = p.compiled();
        let compile = t0.elapsed().as_secs_f64();

        // One portfolio solve on a *fresh* instance: the compile counter
        // must advance by exactly one — every member, applicability
        // check, and verification shares that single compile.
        let fresh = forest::generate(params(chains), 7);
        let before = ir::compile_count();
        let out = chain.solve(&fresh, &Budget::unlimited()).unwrap();
        let solve = out.report.iter().map(|m| m.micros).sum::<u64>() as f64 / 1e6
            + out.compile_micros as f64 / 1e6;
        let compiles = ir::compile_count() - before;
        assert_eq!(compiles, 1, "portfolio must compile the IR exactly once");
        assert!(out.solution.is_feasible(&fresh));

        // Rebuild-per-member counterfactual: compile a fresh instance
        // once per member that actually ran (what the pre-IR layering
        // effectively did by re-deriving incidence inside each solver).
        let ran = out
            .report
            .iter()
            .filter(|m| !matches!(m.status, MemberStatus::Skipped | MemberStatus::NotReached))
            .count()
            .max(1);
        let t2 = Instant::now();
        for _ in 0..ran {
            let fresh = forest::generate(params(chains), 7);
            let _ = fresh.compiled();
        }
        let rebuild = t2.elapsed().as_secs_f64();

        rows.push(vec![
            chains.to_string(),
            fresh.norm_v().to_string(),
            format!("{:.3} ms", compile * 1e3),
            format!("{:.3} ms", solve * 1e3),
            compiles.to_string(),
            ran.to_string(),
            format!("{:.3} ms", rebuild * 1e3),
        ]);
        json_rows.push(Json::obj(vec![
            ("chains", Json::uint(chains as u64)),
            ("norm_v", Json::uint(fresh.norm_v() as u64)),
            ("norm_delta", Json::uint(fresh.norm_delta() as u64)),
            ("compile_micros", Json::rounded(compile * 1e6, 1)),
            ("portfolio_micros", Json::rounded(solve * 1e6, 1)),
            ("compiles_per_portfolio_solve", Json::uint(compiles)),
            ("members_run", Json::uint(ran as u64)),
            ("rebuild_per_member_micros", Json::rounded(rebuild * 1e6, 1)),
        ]));
    }
    let written = json::write_artifact("artifacts/BENCH_ir.json", &Json::Arr(json_rows))
        .unwrap_or_else(|e| format!("(not written: {e})"));
    format!(
        "EX-IR: compiled-instance IR — one compile per portfolio solve\n         (generation + compile measured on fresh instances each round;\n         raw JSON: {written})\n\n{}",
        table(
            &[
                "chains",
                "\u{2016}V\u{2016}",
                "compile",
                "portfolio",
                "compiles/solve",
                "members run",
                "rebuild\u{d7}members"
            ],
            &rows
        )
    )
}

/// EX-APP — §V: batch vs sequential query-oriented cleaning.
pub fn ex_app() -> String {
    let mut rows = Vec::new();
    let mut batch_total = 0.0;
    let mut seq_total = 0.0;
    for seed in 0..10u64 {
        let s = cleaning::generate(cleaning::CleaningParams::default(), seed);
        let p = &s.problem;
        let batch = exact::solve(p.compiled(), ExactConfig::default());
        let fwd = cleaning::sequential_baseline(p, &[0, 1, 2]);
        let rev = cleaning::sequential_baseline(p, &[2, 1, 0]);
        let best_seq = fwd.side_effect(p).min(rev.side_effect(p));
        batch_total += batch.cost;
        seq_total += best_seq;
        rows.push(vec![
            seed.to_string(),
            p.norm_delta().to_string(),
            format!("{:.0}", batch.cost),
            format!("{:.0}", fwd.side_effect(p)),
            format!("{:.0}", rev.side_effect(p)),
        ]);
    }
    format!(
        "EX-APP: §V — query-oriented cleaning, batch vs sequential feedback\n\
         batch total = {batch_total:.0}, best-sequential total = {seq_total:.0}\n\
         (batch never loses; the gap is the cost of order-dependent cleaning)\n\n{}",
        table(
            &[
                "seed",
                "‖ΔV‖",
                "batch OPT",
                "seq(QA,QJ,QT)",
                "seq(QT,QJ,QA)"
            ],
            &rows
        )
    )
}

/// EX-SRC — the source side-effect sibling objective (Tables II–III):
/// the two measures genuinely diverge on shared-witness workloads.
pub fn ex_src() -> String {
    use delprop_core::solvers::source;
    let mut rows = Vec::new();
    for seed in 0..6u64 {
        let p = random_db::generate(
            random_db::RandomDbParams {
                num_queries: 3,
                ..Default::default()
            },
            seed,
        );
        let src_opt = source::solve(p.compiled());
        let src_greedy = source::solve_greedy(p.compiled());
        let view_opt = exact::solve(
            p.compiled(),
            ExactConfig {
                node_limit: Some(2_000_000),
            },
        );
        assert!(src_opt.is_feasible(&p) && src_greedy.is_feasible(&p));
        assert!(src_greedy.len() >= src_opt.len());
        let view_sol = view_opt.solution.expect("feasible");
        rows.push(vec![
            seed.to_string(),
            p.norm_delta().to_string(),
            src_opt.len().to_string(),
            src_greedy.len().to_string(),
            format!("{:.0}", src_opt.side_effect(&p)),
            view_sol.len().to_string(),
            format!("{:.0}", view_sol.side_effect(&p)),
        ]);
    }
    format!(
        "EX-SRC: source vs view side-effect (the sibling objective of Tables II–III)\n\
         the source-optimal ΔD is small but collaterally damaging; the\n\
         view-optimal ΔD deletes more tuples to protect the views.\n\n{}",
        table(
            &[
                "seed",
                "‖ΔV‖",
                "src-OPT |ΔD|",
                "src-greedy |ΔD|",
                "src-OPT damage",
                "view-OPT |ΔD|",
                "view-OPT damage"
            ],
            &rows
        )
    )
}

/// EX-LS — local-search post-optimization of every approximate solver.
pub fn ex_ls() -> String {
    use delprop_core::solvers::local_search::{self, LocalSearchConfig};
    let mut rows = Vec::new();
    for seed in 0..5u64 {
        let p = forest::generate(
            forest::ForestParams {
                levels: 4,
                window: 2,
                chains: 10,
                delete_fraction: 0.3,
                weighted: true,
            },
            seed,
        );
        let opt = exact::solve(
            p.compiled(),
            ExactConfig {
                node_limit: Some(5_000_000),
            },
        )
        .cost;
        let mut row = vec![seed.to_string(), format!("{opt:.0}")];
        for sol in [
            general::solve(p.compiled()).unwrap(),
            primal_dual::solve_default(p.compiled()).unwrap(),
            lowdeg_tree::solve(p.compiled()).unwrap(),
            // Strawman start: delete every candidate tuple.
            delprop_core::Solution::from_tuples(p.candidates()),
        ] {
            let polished = local_search::improve(p.compiled(), &sol, LocalSearchConfig::default());
            assert!(polished.is_feasible(&p));
            assert!(polished.side_effect(&p) <= sol.side_effect(&p) + 1e-9);
            assert!(polished.side_effect(&p) >= opt - 1e-9);
            row.push(format!(
                "{:.0}→{:.0}",
                sol.side_effect(&p),
                polished.side_effect(&p)
            ));
        }
        rows.push(row);
    }
    format!(
        "EX-LS: local-search polish (remove/swap descent) on weighted forest cases\n\
         'a→b' = side-effect before → after polishing; never worse, often optimal.\n\n{}",
        table(
            &[
                "seed",
                "OPT",
                "general",
                "primal-dual",
                "lowdeg-tree",
                "delete-all"
            ],
            &rows
        )
    )
}

/// EX-ABL — Algorithm 1 ablations: demand order and reverse-delete.
pub fn ex_abl() -> String {
    use delprop_core::solvers::primal_dual::{DemandOrder, PrimalDualConfig};
    let mut rows = Vec::new();
    for seed in 0..6u64 {
        let p = forest::generate(
            forest::ForestParams {
                levels: 5,
                window: 3,
                chains: 12,
                delete_fraction: 0.35,
                weighted: false,
            },
            seed,
        );
        let base = primal_dual::solve(p.compiled(), &PrimalDualConfig::default()).unwrap();
        let no_prune = primal_dual::solve(
            p.compiled(),
            &PrimalDualConfig {
                skip_reverse_delete: true,
                ..Default::default()
            },
        )
        .unwrap();
        let arbitrary = primal_dual::solve(
            p.compiled(),
            &PrimalDualConfig {
                order: DemandOrder::Arbitrary,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(base.solution.side_effect(&p) <= no_prune.solution.side_effect(&p) + 1e-9);
        rows.push(vec![
            seed.to_string(),
            format!("{:.0}", base.solution.side_effect(&p)),
            format!("{:.0}", no_prune.solution.side_effect(&p)),
            format!("{:.0}", arbitrary.solution.side_effect(&p)),
            format!("{}→{}", no_prune.solution.len(), base.solution.len()),
        ]);
    }
    format!(
        "EX-ABL: PrimeDualVSE ablations (Algorithm 1 design choices)\n\
         reverse-delete (lines 7–10) is what keeps the solution lean; the\n\
         bottom-up order matters less but never hurts on these workloads.\n\n{}",
        table(
            &[
                "seed",
                "full alg",
                "no prune",
                "arbitrary order",
                "|ΔD| no-prune→pruned"
            ],
            &rows
        )
    )
}

/// EX-FD — functional dependencies widen the tractable class.
pub fn ex_fd() -> String {
    use delprop_core::Problem;
    use delprop_query::parse_query;
    use delprop_relation::{
        tup, Database, FunctionalDependency, RelationFds, RelationSchema, Schema, SchemaFds,
    };
    let schema = Schema::from_relations([
        RelationSchema::new("T1", 2, vec![0, 1]).unwrap(),
        RelationSchema::new("T2", 3, vec![0, 1]).unwrap(),
    ])
    .unwrap();
    let mut db = Database::new(schema);
    for (a, j) in [("Joe", "TKDE"), ("John", "TODS"), ("Tom", "VLDB")] {
        db.insert("T1", tup![a, j]).unwrap();
    }
    for (j, z, w) in [
        ("TKDE", "XML", 30),
        ("TODS", "CUBE", 20),
        ("VLDB", "ML", 10),
    ] {
        db.insert("T2", tup![j, z, w]).unwrap();
    }
    let t1 = db.schema().relation_id("T1").unwrap();
    let t2 = db.schema().relation_id("T2").unwrap();
    let mut fds = SchemaFds::new();
    let mut f1 = RelationFds::new(2);
    f1.add(FunctionalDependency::new(vec![0], vec![1])).unwrap();
    fds.insert(t1, f1);
    let mut f2 = RelationFds::new(3);
    f2.add(FunctionalDependency::new(vec![1], vec![0, 2]))
        .unwrap();
    fds.insert(t2, f2);

    let q3 = parse_query("Q3(x, z) :- T1(x, y), T2(y, z, w)")
        .unwrap()
        .bind(db.schema())
        .unwrap();
    let plain = Problem::new(db.clone(), vec![q3.clone()]);
    let with_fds = Problem::new_with_fds(db, vec![q3], &fds);
    let mut out = String::from(
        "EX-FD: FD-extended key preservation (the 'fd-…' rows of Tables II–V)\n\n\
         Q3(x, z) :- T1(x, y), T2(y, z, w) drops the key variable y.\n",
    );
    out.push_str(&format!(
        "plain constructor: {}\n",
        plain
            .map(|_| "accepted".to_string())
            .unwrap_or_else(|e| format!("rejected — {e}"))
    ));
    match with_fds {
        Ok(mut p) => {
            out.push_str(&format!(
                "with x→y on T1 and topic→(journal, papers) on T2: accepted, ‖V‖ = {}\n",
                p.norm_v()
            ));
            p.mark_deleted(0, &tup!["Joe", "XML"]).unwrap();
            let sol = exact::solve(p.compiled(), ExactConfig::default());
            out.push_str(&format!(
                "deleting Q3(Joe, XML) exactly: side-effect = {} (unique witnesses hold)\n",
                sol.cost
            ));
        }
        Err(e) => out.push_str(&format!("with FDs: unexpectedly rejected — {e}\n")),
    }
    out
}

/// EX-YAN — the Yannakakis engine vs hash-join on acyclic workloads.
pub fn ex_yan() -> String {
    use delprop_query::eval::{hashjoin, sort_matches, yannakakis, CompiledQuery};
    use delprop_query::parse_query;
    use delprop_relation::{tup, Database, RelationSchema, Schema};
    let mut rows = Vec::new();
    for n in [200i64, 800, 2000] {
        let schema = Schema::from_relations([
            RelationSchema::new("A", 2, vec![0]).unwrap(),
            RelationSchema::new("B", 2, vec![0]).unwrap(),
            RelationSchema::new("C", 2, vec![0]).unwrap(),
        ])
        .unwrap();
        let mut db = Database::new(schema);
        for i in 0..n {
            db.insert("A", tup![i, i % 40]).unwrap();
            db.insert("B", tup![i, i % 17]).unwrap();
            db.insert("C", tup![i, i % 5]).unwrap();
        }
        let q = parse_query("Q(x, y, z, w) :- A(x, y), B(y, z), C(z, w)")
            .unwrap()
            .bind(db.schema())
            .unwrap();
        let c = CompiledQuery::compile(&q);
        let t0 = Instant::now();
        let mut hj = hashjoin::evaluate(&db, &c, &[]);
        let t_hj = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let mut yk = yannakakis::evaluate(&db, &c).expect("chain is acyclic");
        let t_yk = t1.elapsed().as_secs_f64();
        sort_matches(&mut hj);
        sort_matches(&mut yk);
        assert_eq!(hj, yk, "engines must agree");
        rows.push(vec![
            n.to_string(),
            hj.len().to_string(),
            format!("{:.2} ms", t_hj * 1e3),
            format!("{:.2} ms", t_yk * 1e3),
        ]);
    }
    format!(
        "EX-YAN: Yannakakis (semijoin-reduced) vs hash-join on acyclic chains\n\
         identical outputs; relative speed depends on dangling-tuple share.\n\n{}",
        table(&["|R|", "answers", "hash-join", "yannakakis"], &rows)
    )
}

/// An experiment runner.
pub type Runner = fn() -> String;

/// EX-BAL — the balanced prize-collecting primal-dual (§IV.C's "similar
/// results for the balanced version").
pub fn ex_bal() -> String {
    use delprop_core::solvers::primal_dual_balanced;
    let mut rows = Vec::new();
    for seed in 0..6u64 {
        let mut p = forest::generate(
            forest::ForestParams {
                levels: 4,
                window: 2,
                chains: 10,
                delete_fraction: 0.3,
                weighted: true,
            },
            seed,
        );
        // Make a third of the demands dubious (cheap prizes).
        let demands: Vec<_> = p.deletions().iter().copied().collect();
        for (i, id) in demands.iter().enumerate() {
            if i % 3 == 0 {
                p.set_weight(*id, 0.3).unwrap();
            }
        }
        let out = primal_dual_balanced::solve_balanced(p.compiled(), &Default::default()).unwrap();
        let opt = exact::solve_balanced(
            p.compiled(),
            ExactConfig {
                node_limit: Some(5_000_000),
            },
        );
        assert!(out.dual_objective <= opt.cost + 1e-6, "weak duality");
        rows.push(vec![
            seed.to_string(),
            p.norm_delta().to_string(),
            out.skipped.len().to_string(),
            format!("{:.1}", out.solution.balanced_cost(&p)),
            format!("{:.1}", opt.cost),
            format!("{:.1}", out.dual_objective),
        ]);
    }
    format!(
        "EX-BAL: balanced prize-collecting PrimeDualVSE (§IV.C)\n\
         cheap prizes get paid instead of cut; Σv_r lower-bounds OPT.\n\n{}",
        table(&["seed", "‖ΔV‖", "skipped", "alg", "OPT", "dual LB"], &rows)
    )
}

/// EX-PORT — the portfolio runtime as the default entry point: verified
/// guarantee-ordered fallback over mixed workloads, under a tick budget.
pub fn ex_port() -> String {
    use delprop_core::runtime::{Budget, MemberStatus, Portfolio};

    let mut workloads = vec![("fig1".to_string(), figures::fig1_problem())];
    for seed in 0..3u64 {
        workloads.push((
            format!("forest/{seed}"),
            forest::generate(
                forest::ForestParams {
                    levels: 4,
                    window: 2,
                    chains: 8,
                    delete_fraction: 0.3,
                    weighted: true,
                },
                seed,
            ),
        ));
        workloads.push((
            format!("random/{seed}"),
            random_db::generate(
                random_db::RandomDbParams {
                    num_relations: 4,
                    num_queries: 3,
                    atoms_per_query: 2,
                    domain: 6,
                    tuples_per_relation: 12,
                    delete_fraction: 0.3,
                    weighted: true,
                },
                seed,
            ),
        ));
    }

    let mut rows = Vec::new();
    for (name, p) in &workloads {
        let budget = Budget::with_ticks(2_000_000);
        let out = Portfolio::standard()
            .solve(p, &budget)
            .expect("greedy tail always verifies");
        let tried = out
            .report
            .iter()
            .filter(|m| !matches!(m.status, MemberStatus::Skipped | MemberStatus::NotReached))
            .count();
        let guarantee = out.guarantee().to_string();
        rows.push(vec![
            name.clone(),
            p.norm_v().to_string(),
            p.norm_delta().to_string(),
            out.winner.to_string(),
            guarantee,
            format!("{:.1}", out.cost),
            tried.to_string(),
            budget.used().to_string(),
        ]);
    }
    format!(
        "EX-PORT: solver portfolio runtime (verified fallback chains)\n\
         every answer below was re-verified by ground-truth re-evaluation\n\
         before being reported; `tried` counts members that actually ran.\n\n{}",
        table(
            &[
                "workload",
                "‖V‖",
                "‖ΔV‖",
                "winner",
                "guarantee",
                "cost",
                "tried",
                "ticks"
            ],
            &rows
        )
    )
}

/// EX-PAR — racing the portfolio: thread-parallel `solve_racing` vs the
/// sequential `solve_best` on the EX-P1 forest sweep, where five
/// standard members apply (lowdeg_tree, primal_dual, lp_round, general,
/// greedy) and the sequential path pays the *sum* of their latencies —
/// dominated by the lp_round simplex — while racing pays roughly the
/// max until the first verifier cancels the field. Raw measurements
/// land in `artifacts/BENCH_parallel.json`.
pub fn ex_par() -> String {
    use delprop_core::runtime::{Budget, MemberStatus, Portfolio};

    // Racing runs are µs-scale since the packed-kernel refactor, so a
    // single rep is mostly thread-spawn jitter; min-of-15 recovers a
    // reproducible floor the gate can hold.
    const REPS: usize = 15;
    let chain = Portfolio::standard();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut best_speedup = 0.0f64;
    for chains in [64usize, 128, 256, 512] {
        let p = forest::generate(
            forest::ForestParams {
                levels: 4,
                window: 2,
                chains,
                delete_fraction: 0.2,
                weighted: false,
            },
            7,
        );
        // Warm the IR cache so neither path pays the one-off compile.
        let _ = p.compiled();

        let mut seq_secs = f64::INFINITY;
        let mut seq_cost = 0.0;
        for _ in 0..REPS {
            let t = Instant::now();
            let out = chain.solve_best(&p, &Budget::unlimited()).unwrap();
            seq_secs = seq_secs.min(t.elapsed().as_secs_f64());
            assert!(out.solution.is_feasible(&p));
            seq_cost = out.cost;
        }

        let mut par_secs = f64::INFINITY;
        let mut par_cost = 0.0;
        let mut cancelled = 0usize;
        let mut winner = "";
        for _ in 0..REPS {
            let t = Instant::now();
            let out = chain.solve_racing(&p, &Budget::unlimited()).unwrap();
            par_secs = par_secs.min(t.elapsed().as_secs_f64());
            assert!(out.solution.is_feasible(&p));
            par_cost = out.cost;
            winner = out.winner;
            cancelled = out
                .report
                .iter()
                .filter(|m| m.status == MemberStatus::Cancelled)
                .count();
        }

        let speedup = seq_secs / par_secs.max(1e-9);
        best_speedup = best_speedup.max(speedup);
        rows.push(vec![
            chains.to_string(),
            p.norm_v().to_string(),
            format!("{:.3} ms", seq_secs * 1e3),
            format!("{:.3} ms", par_secs * 1e3),
            format!("{speedup:.2}x"),
            winner.to_string(),
            cancelled.to_string(),
        ]);
        json_rows.push(Json::obj(vec![
            ("chains", Json::uint(chains as u64)),
            ("norm_v", Json::uint(p.norm_v() as u64)),
            ("norm_delta", Json::uint(p.norm_delta() as u64)),
            ("sequential_micros", Json::rounded(seq_secs * 1e6, 1)),
            ("racing_micros", Json::rounded(par_secs * 1e6, 1)),
            ("speedup", Json::rounded(speedup, 3)),
            ("sequential_cost", Json::Num(seq_cost)),
            ("racing_cost", Json::Num(par_cost)),
            ("winner", Json::str(winner)),
            ("members_cancelled", Json::uint(cancelled as u64)),
            ("reps", Json::uint(REPS as u64)),
        ]));
    }
    assert!(
        best_speedup >= 1.5,
        "racing must beat sequential solve_best by at least 1.5x somewhere \
         on the sweep (best observed: {best_speedup:.2}x)"
    );
    let written = json::write_artifact("artifacts/BENCH_parallel.json", &Json::Arr(json_rows))
        .unwrap_or_else(|e| format!("(not written: {e})"));
    format!(
        "EX-PAR: racing portfolio — solve_racing vs sequential solve_best\n         (min of {REPS} reps each; both paths verified; raw JSON: {written})\n\n{}",
        table(
            &[
                "chains",
                "\u{2016}V\u{2016}",
                "sequential",
                "racing",
                "speedup",
                "winner",
                "cancelled"
            ],
            &rows
        )
    )
}

/// EX-SHARD — the sharded portfolio vs whole-instance racing on
/// value-disjoint multi-component forest instances (DESIGN.md §15).
/// `solve_sharded` partitions the compiled incidence index into
/// connected components and solves each component's deterministic chain
/// through the shard scheduler; on a `k`-copy instance the
/// packed witness masks shrink from `‖ΔV‖×‖𝒞‖/64` words to
/// `Σ_c ‖ΔV_c‖×‖𝒞_c‖/64 ≈ 1/k` of that, so the win is algorithmic and
/// survives single-core CI boxes. Gate (scale 1 only): per-copy-count
/// speedup ≥ max(2, k/2), and the merged certified cost must match the
/// unsharded deterministic chain on the full instance to 1e-9. Each
/// sharded time is the minimum of 9 solves of one IR, and the IR keeps
/// its partition after the first, so the minimum times the warm
/// partition: the daemon's steady state, where every request of an
/// epoch shares one IR. Raw rows land in
/// `artifacts/BENCH_shard.json` (`shard_speedup` is
/// LowerIsWorse-gated against `baselines/`; the racing cost and winner
/// are display-only — the racing portfolio is a scheduler lottery, and
/// a different member may legitimately win it on every run).
pub fn ex_shard() -> String {
    use delprop_core::runtime::{Budget, Portfolio};
    use delprop_core::shard;
    use delprop_core::solvers::local_search::Objective;

    const REPS: usize = 9;
    let chain = Portfolio::standard();
    let k_scale = scale();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut log_speedups = Vec::new();
    let mut gate_fail: Option<String> = None;
    for copies in [2usize, 4, 8] {
        let p = forest::generate_disjoint(
            forest::ForestParams {
                levels: 4,
                window: 2,
                chains: 96 * k_scale,
                delete_fraction: 0.2,
                weighted: false,
            },
            copies,
            7,
        );
        // Warm the IR cache so neither path pays the one-off compile.
        let ir = p.compiled_arc();
        // The unsharded deterministic chain on the full instance is the
        // cost reference: same member order as each shard runs, so the
        // merged sharded cost must reproduce it exactly (the racing
        // winner may legitimately differ — any certified member can win
        // the race).
        let reference = shard::solve_component(&ir, Objective::Standard, &Budget::unlimited())
            .expect("reference chain must solve the full instance");
        let components = shard::partition(&ir).shards.len();
        assert!(components >= copies, "copies must stay value-disjoint");

        let mut sharded_secs = f64::INFINITY;
        let mut sharded_cost = 0.0;
        for _ in 0..REPS {
            let t = Instant::now();
            let out = chain.solve_sharded(&p, &Budget::unlimited()).unwrap();
            sharded_secs = sharded_secs.min(t.elapsed().as_secs_f64());
            assert!(out.solution.is_feasible(&p));
            sharded_cost = out.cost;
        }
        assert!(
            (sharded_cost - reference.cost).abs() <= 1e-9 * (1.0 + reference.cost.abs()),
            "sharded cost {sharded_cost} must match the unsharded chain {}",
            reference.cost
        );

        let mut racing_secs = f64::INFINITY;
        let mut racing_cost = 0.0;
        let mut winner = "";
        for _ in 0..REPS {
            let t = Instant::now();
            let out = chain.solve_racing(&p, &Budget::unlimited()).unwrap();
            racing_secs = racing_secs.min(t.elapsed().as_secs_f64());
            assert!(out.solution.is_feasible(&p));
            racing_cost = out.cost;
            winner = out.winner;
        }
        // No cost assertion against racing: the race winner depends on
        // thread scheduling, so its columns are display-only.

        let speedup = racing_secs / sharded_secs.max(1e-9);
        log_speedups.push(speedup.max(1e-9).ln());
        let floor = (copies as f64 / 2.0).max(2.0);
        if k_scale == 1 && speedup < floor && gate_fail.is_none() {
            gate_fail = Some(format!(
                "sharded solve must beat racing by >= {floor:.1}x on the \
                 {copies}-copy instance (measured {speedup:.2}x)"
            ));
        }
        rows.push(vec![
            copies.to_string(),
            components.to_string(),
            p.norm_v().to_string(),
            format!("{:.3} ms", racing_secs * 1e3),
            format!("{:.3} ms", sharded_secs * 1e3),
            format!("{speedup:.2}x"),
            format!(">={floor:.0}x"),
            format!("{sharded_cost:.1}"),
            format!("{racing_cost:.1} ({winner})"),
        ]);
        json_rows.push(Json::obj(vec![
            ("copies", Json::uint(copies as u64)),
            ("components", Json::uint(components as u64)),
            ("norm_v", Json::uint(p.norm_v() as u64)),
            ("norm_delta", Json::uint(p.norm_delta() as u64)),
            ("sharded_micros", Json::rounded(sharded_secs * 1e6, 1)),
            ("racing_micros", Json::rounded(racing_secs * 1e6, 1)),
            ("shard_speedup", Json::rounded(speedup, 3)),
            ("sharded_cost", Json::Num(sharded_cost)),
            ("racing_cost", Json::Num(racing_cost)),
            ("winner", Json::str(winner)),
            ("reps", Json::uint(REPS as u64)),
        ]));
    }
    if let Some(fail) = gate_fail {
        panic!("{fail}");
    }
    let geomean = (log_speedups.iter().sum::<f64>() / log_speedups.len() as f64).exp();
    let geomean_note = if k_scale == 1 {
        format!("geomean speedup vs racing: {geomean:.1}x (per-row gate: >= max(2, k/2))")
    } else {
        format!("scale factor {k_scale}: exploratory sweep, geomean {geomean:.1}x ungated")
    };
    let written = json::write_artifact("artifacts/BENCH_shard.json", &Json::Arr(json_rows))
        .unwrap_or_else(|e| format!("(not written: {e})"));
    format!(
        "EX-SHARD: component-sharded portfolio vs whole-instance racing\n         \
         (min of {REPS} reps each; merged cost checked against the unsharded\n         \
         deterministic chain; {geomean_note}; raw JSON: {written})\n\n{}",
        table(
            &[
                "copies",
                "shards",
                "\u{2016}V\u{2016}",
                "racing",
                "sharded",
                "speedup",
                "gate",
                "cost",
                "racing cost"
            ],
            &rows
        )
    )
}

/// EX-OBS — tracing overhead: the EX-P1 forest sweep solved with no
/// sink, the no-op sink, and the ring-buffer sink. The <3% overhead
/// claim of DESIGN.md §10 is asserted here; raw measurements land in
/// `artifacts/BENCH_obs.json` and one full trace in
/// `artifacts/TRACE_obs.jsonl`.
pub fn ex_obs() -> String {
    use delprop_core::runtime::{trace, Budget, NoopSink, Portfolio, RingBufferSink, TraceSink};
    use std::sync::Arc;

    // The gated overhead percentages are ratios of two minima, which
    // doubles their sensitivity to scheduler noise; min-of-20 keeps
    // both sides of the ratio on their floor.
    const REPS: usize = 20;
    // Overhead as a fraction of per-solve work is what matters, and on
    // sub-millisecond solves scheduler noise dominates any signal, so the
    // assertion only samples the largest instance of the sweep.
    const ASSERT_CHAINS: usize = 256;
    let chain = Portfolio::standard();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut trace_path = String::from("(no trace written)");
    for chains in [64usize, 128, 256] {
        let p = forest::generate(
            forest::ForestParams {
                levels: 4,
                window: 2,
                chains,
                delete_fraction: 0.2,
                weighted: false,
            },
            7,
        );
        // Warm the IR cache: compile time is EX-IR's subject, not ours.
        let _ = p.compiled();

        // One timed solve for one sink mode; also returns the cost,
        // which must not depend on the sink.
        let time_once = |b: Budget| -> (f64, f64) {
            let t = Instant::now();
            let out = chain.solve_best(&p, &b).unwrap();
            let secs = t.elapsed().as_secs_f64();
            assert!(out.solution.is_feasible(&p));
            (secs, out.cost)
        };

        // Interleave the three modes within each rep: the overhead
        // percentages are ratios between modes, and mode-major loops
        // let scheduler/frequency drift between the loops masquerade as
        // sink overhead. Round-robin keeps every mode's min-of-REPS
        // sampled under the same conditions.
        let noop: Arc<dyn TraceSink> = Arc::new(NoopSink);
        let ring = Arc::new(RingBufferSink::with_capacity(1 << 16));
        let ring_sink: Arc<dyn TraceSink> = Arc::clone(&ring) as Arc<dyn TraceSink>;
        let (mut base_secs, mut noop_secs, mut ring_secs) =
            (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let (mut base_cost, mut noop_cost, mut ring_cost) = (0.0, 0.0, 0.0);
        for _ in 0..REPS {
            let (s, c) = time_once(Budget::unlimited());
            base_secs = base_secs.min(s);
            base_cost = c;
            let (s, c) = time_once(Budget::unlimited().with_sink(Arc::clone(&noop)));
            noop_secs = noop_secs.min(s);
            noop_cost = c;
            let (s, c) = time_once(Budget::unlimited().with_sink(Arc::clone(&ring_sink)));
            ring_secs = ring_secs.min(s);
            ring_cost = c;
        }

        assert_eq!(base_cost, noop_cost, "no-op sink changed the cost");
        assert_eq!(base_cost, ring_cost, "ring sink changed the cost");

        // One final traced run so the dumped trace covers exactly one
        // solve_best (the timing loops above already lapped the ring).
        let fresh_ring = Arc::new(RingBufferSink::with_capacity(1 << 16));
        let b = Budget::unlimited().with_sink(Arc::clone(&fresh_ring) as Arc<dyn TraceSink>);
        let _ = chain.solve_best(&p, &b).unwrap();
        let events = fresh_ring.recorded();
        if chains == ASSERT_CHAINS {
            trace_path = trace::dump_jsonl("artifacts/TRACE_obs.jsonl", &fresh_ring.snapshot())
                .map(|()| "artifacts/TRACE_obs.jsonl".to_string())
                .unwrap_or_else(|e| format!("(not written: {e})"));
        }

        let noop_overhead = (noop_secs / base_secs - 1.0) * 100.0;
        let ring_overhead = (ring_secs / base_secs - 1.0) * 100.0;
        // The true overheads are ~0–2%, but min-of-REPS floors on a
        // ~20ms solve wander by up to ~5% between modes on a shared
        // 1-core box, so this in-run assert is a 10% sanity bound (a
        // real regression — an allocation or lock on the event path —
        // costs far more than that). The tight enforcement is the CI
        // gate, which holds the gated overhead_pct fields within +5
        // points of the committed baselines.
        if chains == ASSERT_CHAINS {
            assert!(
                ring_overhead < 10.0,
                "ring-buffer tracing overhead {ring_overhead:.2}% >= 10% \
                 on the {chains}-chain instance (base {base_secs:.6}s, ring {ring_secs:.6}s)"
            );
            assert!(
                noop_overhead < 10.0,
                "no-op tracing overhead {noop_overhead:.2}% >= 10% \
                 on the {chains}-chain instance (base {base_secs:.6}s, noop {noop_secs:.6}s)"
            );
        }

        rows.push(vec![
            chains.to_string(),
            p.norm_v().to_string(),
            format!("{:.3} ms", base_secs * 1e3),
            format!("{:.3} ms", noop_secs * 1e3),
            format!("{:.3} ms", ring_secs * 1e3),
            format!("{noop_overhead:+.2}%"),
            format!("{ring_overhead:+.2}%"),
            events.to_string(),
        ]);
        let mut fields = vec![
            ("chains", Json::uint(chains as u64)),
            ("norm_v", Json::uint(p.norm_v() as u64)),
            ("norm_delta", Json::uint(p.norm_delta() as u64)),
            ("cost", Json::Num(base_cost)),
            ("base_micros", Json::rounded(base_secs * 1e6, 1)),
            ("noop_micros", Json::rounded(noop_secs * 1e6, 1)),
            ("ring_micros", Json::rounded(ring_secs * 1e6, 1)),
        ];
        // The gated overhead percentages only appear on the asserted
        // (largest) instance: on the sub-3ms rows the ratio of two
        // min-floors is scheduler noise, not an overhead measurement —
        // the table above still shows them for context.
        if chains == ASSERT_CHAINS {
            fields.push(("noop_overhead_pct", Json::rounded(noop_overhead, 2)));
            fields.push(("ring_overhead_pct", Json::rounded(ring_overhead, 2)));
        }
        fields.push(("trace_events", Json::uint(events)));
        fields.push(("reps", Json::uint(REPS as u64)));
        json_rows.push(Json::obj(fields));
    }
    let written = json::write_artifact("artifacts/BENCH_obs.json", &Json::Arr(json_rows))
        .unwrap_or_else(|e| format!("(not written: {e})"));
    format!(
        "EX-OBS: tracing overhead — solve_best with no sink / NoopSink / RingBufferSink\n         (min of {REPS} reps each; costs must coincide across modes;\n         raw JSON: {written}; trace: {trace_path})\n\n{}",
        table(
            &[
                "chains",
                "\u{2016}V\u{2016}",
                "no sink",
                "noop",
                "ring",
                "noop ovh",
                "ring ovh",
                "events"
            ],
            &rows
        )
    )
}

/// EX-SERVE — the serving daemon end to end: closed-loop clients doing
/// request/response round trips over TCP loopback against a live
/// `delpropd`, per-request latency measured at the client. Closed loop
/// keeps the outcome deterministic (admission is sized so nothing
/// sheds: every request must come back `ok`); the latency percentiles
/// land in `artifacts/BENCH_serve.json`, whose `p99_micros` the CI
/// bench gate holds against `baselines/`.
pub fn ex_serve() -> String {
    const REQUESTS_PER_CLIENT: usize = 50;
    // A whole 5-storm row finishes in tens of milliseconds — one host
    // throttle window used to cover all of them and double every gated
    // percentile. Twenty storms keep the row under ~3s while making
    // the per-percentile min robust to transient stalls.
    const REPS: usize = 20;

    fn percentile(sorted: &[u64], p: f64) -> u64 {
        let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[idx]
    }

    // One storm: a fresh daemon, `clients` closed-loop clients, each
    // doing REQUESTS_PER_CLIENT round trips. Returns sorted latencies
    // plus the storm's wall clock.
    fn storm(clients: usize) -> (Vec<u64>, f64) {
        use delprop_server::{
            Client, Daemon, InstanceSpec, Request, Response, ServerConfig, SolveRequest,
        };
        // The EX-P1/EX-PAR forest at 64 chains: heavy enough that the
        // deterministic solve work dominates the round trip, so the
        // gated percentiles measure the serving stack rather than
        // loopback scheduling noise.
        let mut cfg = ServerConfig {
            initial: InstanceSpec::Forest {
                levels: 4,
                window: 2,
                chains: 64,
                delete_fraction: 0.2,
                weighted: false,
                seed: 7,
            },
            initial_label: "forest-bench".to_string(),
            ..ServerConfig::default()
        };
        // One tenant per client and a global limit above the client
        // count: the closed loop must never shed, so `ok == requests`
        // is an exact (gated) invariant, not a timing accident.
        cfg.admission.max_inflight = clients.max(1);
        cfg.admission.max_per_tenant = 1;
        // Sequential portfolio, not racing: racing spawns a thread per
        // member, and 8 concurrent requests x 7 members oversubscribes
        // any CI box — the resulting scheduler noise would swamp the
        // p99 the gate watches. EX-PAR owns the racing-vs-sequential
        // comparison; this experiment gates the serving stack.
        cfg.engine.racing = false;
        let mut daemon = Daemon::spawn(cfg).expect("daemon must spawn on loopback");
        let addr = daemon.tcp_addr().expect("tcp bind");

        let wall = Instant::now();
        let mut latencies: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    s.spawn(move || {
                        let mut client = Client::connect_tcp(addr).expect("connect");
                        client
                            .set_read_timeout(Some(std::time::Duration::from_secs(60)))
                            .expect("read timeout");
                        let mut lat = Vec::with_capacity(REQUESTS_PER_CLIENT);
                        for _ in 0..REQUESTS_PER_CLIENT {
                            let t = Instant::now();
                            let resp = client
                                .request(&Request::Solve(SolveRequest {
                                    tenant: format!("bench-{c}"),
                                    ..SolveRequest::default()
                                }))
                                .expect("round trip");
                            lat.push(t.elapsed().as_micros() as u64);
                            match resp {
                                Response::Ok(ok) => assert!(!ok.deleted.is_empty()),
                                other => panic!("closed loop must not shed, got {other:?}"),
                            }
                        }
                        lat
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("bench client"))
                .collect()
        });
        let wall_secs = wall.elapsed().as_secs_f64();
        daemon.shutdown();
        latencies.sort_unstable();
        (latencies, wall_secs)
    }

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for clients in [1usize, 4, 8] {
        // Min of REPS independent storms, per percentile: tail
        // percentiles of a single storm are scheduler-noisy at loopback
        // latencies, and the gate needs a reproducible floor (the same
        // min-of-reps idiom the other wall-clock experiments use).
        let (mut p50, mut p90, mut p99, mut max) = (u64::MAX, u64::MAX, u64::MAX, u64::MAX);
        let mut wall_secs = f64::INFINITY;
        for _ in 0..REPS {
            let (latencies, secs) = storm(clients);
            p50 = p50.min(percentile(&latencies, 0.50));
            p90 = p90.min(percentile(&latencies, 0.90));
            p99 = p99.min(percentile(&latencies, 0.99));
            max = max.min(*latencies.last().unwrap());
            wall_secs = wall_secs.min(secs);
        }
        let requests = (clients * REQUESTS_PER_CLIENT) as u64;

        rows.push(vec![
            clients.to_string(),
            requests.to_string(),
            format!("{:.3} ms", p50 as f64 / 1e3),
            format!("{:.3} ms", p90 as f64 / 1e3),
            format!("{:.3} ms", p99 as f64 / 1e3),
            format!("{:.3} ms", max as f64 / 1e3),
            format!("{wall_secs:.3} s"),
        ]);
        json_rows.push(Json::obj(vec![
            ("clients", Json::uint(clients as u64)),
            ("requests", Json::uint(requests)),
            ("ok", Json::uint(requests)),
            ("shed", Json::uint(0)),
            ("p50_micros", Json::uint(p50)),
            ("p90_micros", Json::uint(p90)),
            ("p99_micros", Json::uint(p99)),
            ("max_micros", Json::uint(max)),
            ("wall_secs", Json::rounded(wall_secs, 3)),
            ("reps", Json::uint(REPS as u64)),
        ]));
    }
    let written = json::write_artifact("artifacts/BENCH_serve.json", &Json::Arr(json_rows))
        .unwrap_or_else(|e| format!("(not written: {e})"));
    format!(
        "EX-SERVE: serving daemon — closed-loop round-trip latency over TCP loopback\n         ({REQUESTS_PER_CLIENT} requests per client, min of {REPS} storms per row,\n         admission sized to never shed; raw JSON: {written})\n\n{}",
        table(
            &["clients", "requests", "p50", "p90", "p99", "max", "wall"],
            &rows
        )
    )
}

/// All experiments in order, as `(id, runner)`.
pub fn all() -> Vec<(&'static str, Runner)> {
    vec![
        ("ex-fig1", ex_fig1 as Runner),
        ("ex-fig2", ex_fig2),
        ("ex-fig3", ex_fig3),
        ("ex-tab1", ex_tab1),
        ("ex-tab25", ex_tab25),
        ("ex-t1", ex_t1),
        ("ex-t2", ex_t2),
        ("ex-c1", ex_c1),
        ("ex-l1", ex_l1),
        ("ex-t3", ex_t3),
        ("ex-p1", ex_p1),
        ("ex-kern", ex_kern),
        ("ex-incr", ex_incr),
        ("ex-t4", ex_t4),
        ("ex-dp", ex_dp),
        ("ex-ir", ex_ir),
        ("ex-app", ex_app),
        ("ex-src", ex_src),
        ("ex-ls", ex_ls),
        ("ex-abl", ex_abl),
        ("ex-fd", ex_fd),
        ("ex-yan", ex_yan),
        ("ex-bal", ex_bal),
        ("ex-port", ex_port),
        ("ex-par", ex_par),
        ("ex-shard", ex_shard),
        ("ex-obs", ex_obs),
        ("ex-serve", ex_serve),
    ]
}

/// The experiments the CI bench gate runs (`harness --smoke`): the six
/// whose artifacts are diffed against `baselines/`.
pub fn smoke_ids() -> &'static [&'static str] {
    &[
        "ex-par", "ex-obs", "ex-serve", "ex-kern", "ex-incr", "ex-shard",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cheap figure/table experiments run in debug; the heavy sweeps
    /// are exercised by `all_experiments_run_full` (release-only, run via
    /// `cargo test -p delprop-bench --release -- --ignored`) and by the
    /// harness itself.
    #[test]
    fn figure_experiments_run() {
        for (id, run) in all().into_iter().take(7) {
            let report = run();
            assert!(report.len() > 40, "{id} produced a trivial report");
        }
    }

    /// The portfolio experiment is all-polynomial (no exact member) and
    /// cheap enough for debug builds.
    #[test]
    fn portfolio_experiment_runs() {
        let report = ex_port();
        assert!(report.contains("winner"), "missing table header:\n{report}");
        assert!(report.len() > 40);
    }

    /// Every experiment must run without panicking (internal asserts are
    /// the claims themselves) and produce a non-trivial report.
    #[test]
    #[ignore = "heavy: run with --release -- --ignored"]
    fn all_experiments_run_full() {
        for (id, run) in all() {
            let report = run();
            assert!(report.len() > 40, "{id} produced a trivial report");
        }
    }
}
