//! The factored migration planner.
//!
//! The dense FedMigr planner scores every (client, destination) pair — a
//! `K × K` matrix the QP relaxation and the greedy assignment both walk,
//! which is what caps the dense runner at Fig.-6 scale. The factored
//! planner never forms that matrix. Per round it:
//!
//! 1. groups the **active** participants by LAN,
//! 2. builds each participant a **shortlist**: its active same-LAN peers
//!    (LAN-local candidate pruning — the cheap, high-bandwidth moves;
//!    hash-sampled down to `4·top_m` when a LAN's active group is larger)
//!    plus up to `top_m` hash-sampled cross-LAN actives, kept only if they
//!    score among the participant's `top_m` best candidates,
//! 3. greedily commits the best-scoring positive (source, destination)
//!    pairs into a permutation of the active set ([`greedy_commit`], the
//!    dense planner's integer recovery too).
//!
//! Per-participant work is O(min(LAN-actives, 4·top_m) + top_m) — total
//! planning cost grows *linearly* in the number of participants regardless
//! of how the actives cluster, and (at fixed sampling fraction) linearly in
//! `K`, versus the dense path's `K²`. The DDPG policy steers the plan through
//! `desired_lan`: candidates inside a source's desired destination LAN get
//! the [`AGENT_BONUS`] the dense planner gives the agent's chosen
//! destination.

/// Per-LAN aggregates of the active participant set — the pooled view the
/// fixed-dimension DDPG state and the `L × L` pooled QP consume.
#[derive(Clone, Debug)]
pub struct LanProfile {
    /// Active participants per LAN.
    pub counts: Vec<u32>,
    /// Mean label marginal of each LAN's active participants (zeros for a
    /// LAN with no actives this round).
    pub mean_marginal: Vec<Vec<f64>>,
}

impl LanProfile {
    /// Aggregates the active set: `lans[i]` is the LAN of active position
    /// `i`, `marginals[i]` its label marginal.
    pub fn build(lans: &[u32], marginals: &[&[f32]], num_lans: usize, num_classes: usize) -> Self {
        assert_eq!(lans.len(), marginals.len());
        let mut counts = vec![0u32; num_lans];
        let mut mean = vec![vec![0.0f64; num_classes]; num_lans];
        for (&lan, m) in lans.iter().zip(marginals) {
            counts[lan as usize] += 1;
            for (acc, &v) in mean[lan as usize].iter_mut().zip(*m) {
                *acc += v as f64;
            }
        }
        for (row, &c) in mean.iter_mut().zip(&counts) {
            if c > 0 {
                for v in row.iter_mut() {
                    *v /= c as f64;
                }
            }
        }
        Self { counts, mean_marginal: mean }
    }

    /// Number of LANs.
    pub fn num_lans(&self) -> usize {
        self.counts.len()
    }

    /// Half-L1 distance from `marginal` to each LAN's active mean (0 for
    /// empty LANs) — the per-LAN distance row of the pooled DDPG state.
    pub fn distance_row(&self, marginal: &[f32]) -> Vec<f64> {
        self.mean_marginal
            .iter()
            .zip(&self.counts)
            .map(|(mean, &c)| if c == 0 { 0.0 } else { half_l1(marginal, mean) })
            .collect()
    }

    /// Pooled `L × L` benefit matrix: `benefit[a][b]` is the half-L1
    /// distance between LAN `a`'s and LAN `b`'s active mean marginals
    /// (migrating a model between differently-distributed LANs exposes it
    /// to complementary data). Rows/columns of empty LANs are zero.
    pub fn benefit_matrix(&self) -> Vec<Vec<f64>> {
        let l = self.num_lans();
        let benefit = |a: usize, b: usize| {
            let both = a != b && self.counts[a] > 0 && self.counts[b] > 0;
            if both {
                half_l1(&self.mean_marginal[a], &self.mean_marginal[b])
            } else {
                0.0
            }
        };
        (0..l).map(|a| (0..l).map(|b| benefit(a, b)).collect()).collect()
    }
}

/// Half the L1 distance between two label marginals, in `f64`.
fn half_l1<A: Copy + Into<f64>, B: Copy + Into<f64>>(a: &[A], b: &[B]) -> f64 {
    0.5 * a.iter().zip(b).map(|(&x, &y)| (x.into() - y.into()).abs()).sum::<f64>()
}

/// Configuration of [`plan_migrations`].
#[derive(Clone, Copy, Debug)]
pub struct FleetPlannerConfig {
    /// Shortlist width: cross-LAN candidates sampled per participant, and
    /// the cap on retained candidates after scoring.
    pub top_m: usize,
    /// Cost weight λ trading distribution benefit against transfer cost.
    pub lambda: f64,
    /// Seed of the cross-LAN candidate sampling hash.
    pub seed: u64,
}

/// Plans this round's migrations over the active set. Inputs are indexed
/// by *active position* `0..n`: `lans[i]` / `marginals[i]` describe active
/// participant `i`, `desired_lan[i]` is the DDPG policy's destination LAN
/// for it, and `cost(i, j)` is the normalized transfer cost of moving
/// `i`'s model to `j` (the caller derives it from the fleet topology).
///
/// Returns a permutation `dest` of `0..n` (`dest[i] = i` means the model
/// stays home), mirroring the dense planner's contract.
pub fn plan_migrations(
    cfg: &FleetPlannerConfig,
    epoch: u64,
    lans: &[u32],
    marginals: &[&[f32]],
    desired_lan: &[u32],
    mut cost: impl FnMut(usize, usize) -> f64,
) -> Vec<usize> {
    let n = lans.len();
    assert_eq!(marginals.len(), n);
    assert_eq!(desired_lan.len(), n);
    if n == 0 {
        return Vec::new();
    }
    let num_lans = lans.iter().copied().max().unwrap() as usize + 1;
    let mut lan_groups: Vec<Vec<u32>> = vec![Vec::new(); num_lans];
    for (i, &lan) in lans.iter().enumerate() {
        lan_groups[lan as usize].push(i as u32);
    }

    // Score every shortlisted pair. Each participant contributes at most
    // `same-LAN actives + top_m` candidate evaluations and keeps its top_m.
    let mut scored: Vec<(f64, u32, u32)> = Vec::with_capacity(n * cfg.top_m);
    let mut mine: Vec<(f64, u32)> = Vec::new();
    for i in 0..n {
        mine.clear();
        // Scores `i -> j` unless `j` is `i` itself; says whether it did.
        let mut consider = |j: usize| {
            if j == i {
                return false;
            }
            let mut s = half_l1(marginals[i], marginals[j]) - cfg.lambda * cost(i, j);
            if lans[j] == desired_lan[i] {
                s += AGENT_BONUS;
            }
            mine.push((s, j as u32));
            true
        };
        // Same-LAN candidates: exhaustive for small groups, hash-sampled
        // down to `4·top_m` draws when a LAN's active group is large, so a
        // round concentrated in one giant LAN still plans in linear time.
        let group = &lan_groups[lans[i] as usize];
        let local_cap = 4 * cfg.top_m.max(1);
        let key = (i as u64) << 32;
        if group.len() <= local_cap + 1 {
            for &j in group {
                consider(j as usize);
            }
        } else {
            let seed = cfg.seed ^ epoch.wrapping_mul(0xA076_1D64_78BD_642F);
            sample(local_cap, seed, key | (1 << 31), group.len(), |x| consider(group[x] as usize));
        }
        // Hash-sampled cross-LAN candidates.
        let seed = cfg.seed ^ epoch.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        sample(cfg.top_m, seed, key, n, |j| lans[j] != lans[i] && consider(j));
        // Keep the participant's top_m best candidates (deterministic
        // tiebreak on the destination id).
        mine.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        mine.dedup_by_key(|c| c.1);
        scored.extend(mine.iter().take(cfg.top_m.max(1)).map(|&(s, j)| (s, i as u32, j)));
    }

    greedy_commit(n, scored, Some(0.0))
}

/// Feeds `accept` up to `2·cap` hash draws in `0..len`, deterministic in
/// `(seed, key + draw)`, until it has accepted `cap`: a pool that rejects
/// most draws cannot stall the sampler.
fn sample(cap: usize, seed: u64, key: u64, len: usize, mut accept: impl FnMut(usize) -> bool) {
    let mut picked = 0usize;
    for t in 0..2 * cap as u64 {
        if picked >= cap {
            break;
        }
        if accept((splitmix(seed, key | t) % len as u64) as usize) {
            picked += 1;
        }
    }
}

/// Score added to the agent's chosen destination before the greedy
/// commit: the dense planner adds it to the chosen client's cell, the
/// fleet planner to every shortlisted candidate in the chosen LAN.
pub const AGENT_BONUS: f64 = 0.25;

/// Greedy integer recovery, shared by the dense and the fleet planner:
/// commits `(score, source, destination)` triples best score first (by
/// `total_cmp`; ties go to the lower source, then the lower destination)
/// whenever the source is unassigned and the destination still free.
/// With a `floor`, commits stop at the first score `<= floor`. A source
/// left without a destination keeps its own slot when free, else takes the
/// first free host, so the result is always a permutation of `0..n`.
pub fn greedy_commit(n: usize, mut scored: Vec<(f64, u32, u32)>, floor: Option<f64>) -> Vec<usize> {
    scored.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    let mut dest: Vec<Option<usize>> = vec![None; n];
    let mut hosted = vec![false; n];
    for &(score, i, j) in &scored {
        if floor.is_some_and(|f| score <= f) {
            break;
        }
        let (i, j) = (i as usize, j as usize);
        if dest[i].is_none() && !hosted[j] {
            dest[i] = Some(j);
            hosted[j] = true;
        }
    }
    for i in 0..n {
        if dest[i].is_none() && !hosted[i] {
            dest[i] = Some(i);
            hosted[i] = true;
        }
    }
    let mut free = (0..n).filter(|&j| !hosted[j]);
    let out: Vec<usize> = (0..n)
        .map(|i| dest[i].unwrap_or_else(|| free.next().expect("host counts must balance")))
        .collect();
    debug_assert!(is_permutation(&out));
    out
}

fn is_permutation(dest: &[usize]) -> bool {
    let mut seen = vec![false; dest.len()];
    dest.iter().all(|&d| d < seen.len() && !std::mem::replace(&mut seen[d], true))
}

/// Splitmix-style finalizer over a (seed, payload) pair.
fn splitmix(seed: u64, x: u64) -> u64 {
    let mut z = seed ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FleetPlannerConfig {
        FleetPlannerConfig { top_m: 4, lambda: 0.3, seed: 9 }
    }

    /// n actives spread round-robin over `l` LANs with hash-varied
    /// two-class marginals.
    fn fixture(n: usize, l: usize) -> (Vec<u32>, Vec<Vec<f32>>) {
        let lans: Vec<u32> = (0..n).map(|i| (i % l) as u32).collect();
        let marginals: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let p = (splitmix(3, i as u64) % 1000) as f32 / 1000.0;
                vec![p, 1.0 - p]
            })
            .collect();
        (lans, marginals)
    }

    fn refs(m: &[Vec<f32>]) -> Vec<&[f32]> {
        m.iter().map(|v| v.as_slice()).collect()
    }

    #[test]
    fn plan_is_always_a_permutation() {
        for (n, l) in [(1usize, 1usize), (2, 1), (7, 3), (50, 4), (333, 10)] {
            let (lans, marginals) = fixture(n, l);
            let desired: Vec<u32> = (0..n).map(|i| ((i + 1) % l) as u32).collect();
            let dest = plan_migrations(&cfg(), 3, &lans, &refs(&marginals), &desired, |_, _| 0.1);
            assert!(is_permutation(&dest), "n={n} l={l}: {dest:?}");
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let (lans, marginals) = fixture(64, 4);
        let desired = vec![1u32; 64];
        let a = plan_migrations(&cfg(), 5, &lans, &refs(&marginals), &desired, |i, j| {
            ((i + j) % 7) as f64 * 0.05
        });
        let b = plan_migrations(&cfg(), 5, &lans, &refs(&marginals), &desired, |i, j| {
            ((i + j) % 7) as f64 * 0.05
        });
        assert_eq!(a, b);
    }

    #[test]
    fn desired_lan_boost_steers_the_plan() {
        // Two LANs, identical marginals everywhere (no distribution
        // signal), zero cost: only the boost differentiates candidates, so
        // every migration the plan commits lands in the desired LAN.
        let n = 20;
        let lans: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
        let marginals = vec![vec![0.5f32, 0.5]; n];
        let desired: Vec<u32> = lans.iter().map(|&l| 1 - l).collect();
        let dest = plan_migrations(&cfg(), 1, &lans, &refs(&marginals), &desired, |_, _| 0.0);
        let moved = dest.iter().enumerate().filter(|&(i, &d)| d != i).count();
        assert!(moved > 0, "boost must commit some moves");
        for (i, &d) in dest.iter().enumerate() {
            if d != i {
                assert_eq!(lans[d], desired[i], "move {i}->{d} ignored the desired LAN");
            }
        }
    }

    #[test]
    fn high_cost_suppresses_migration() {
        let (lans, marginals) = fixture(30, 3);
        let desired = lans.clone(); // no boost anywhere (stay home)
        let dest = plan_migrations(
            &FleetPlannerConfig { top_m: 4, lambda: 100.0, seed: 1 },
            0,
            &lans,
            &refs(&marginals),
            &desired,
            |_, _| 1.0,
        );
        // Self is never a candidate; with every pair scored negative the
        // greedy pass commits nothing and everyone stays home.
        assert!(dest.iter().enumerate().all(|(i, &d)| d == i), "{dest:?}");
    }

    #[test]
    fn shortlists_bound_scored_pairs() {
        // The linear-cost contract: the planner evaluates O(n·(lan_active
        // + top_m)) pairs, never n².
        let (lans, marginals) = fixture(400, 40); // 10 actives per LAN
        let desired = vec![0u32; 400];
        let mut evals = 0usize;
        let _ = plan_migrations(&cfg(), 2, &lans, &refs(&marginals), &desired, |_, _| {
            evals += 1;
            0.0
        });
        // Per source: ≤ 9 same-LAN + ≤ 4 sampled cross-LAN = 13, far
        // below n = 400.
        assert!(evals <= 400 * 13, "evaluated {evals} pairs");
    }

    #[test]
    fn one_giant_lan_still_plans_in_linear_time() {
        // Everyone active in a single LAN: without the same-LAN sampling
        // cap this would score n² pairs.
        let (lans, marginals) = fixture(400, 1);
        let desired = vec![0u32; 400];
        let mut evals = 0usize;
        let dest = plan_migrations(&cfg(), 2, &lans, &refs(&marginals), &desired, |_, _| {
            evals += 1;
            0.0
        });
        // Per source: ≤ 2·(4·top_m) same-LAN draws + ≤ 2·top_m cross-LAN
        // attempts (all rejected — there is no other LAN).
        assert!(evals <= 400 * 32, "evaluated {evals} pairs");
        assert!(is_permutation(&dest));
    }

    #[test]
    fn no_floor_commits_every_score_and_a_minus_infinity_floor_none() {
        // The dense planner passes no floor: a −∞ score still commits. A
        // floor of −∞ would stop at it and leave both sources at home.
        let scored = || vec![(f64::NEG_INFINITY, 0, 1), (f64::NEG_INFINITY, 1, 0)];
        assert_eq!(greedy_commit(2, scored(), None), vec![1, 0]);
        assert_eq!(greedy_commit(2, scored(), Some(f64::NEG_INFINITY)), vec![0, 1]);
    }

    #[test]
    fn a_displaced_source_takes_the_first_free_host() {
        // 0 -> 1 commits above the floor; 1 -> 0 and 2 -> 2 never score,
        // so 1, whose own slot is taken, is sent to 0, the first free host,
        // and 2 stays home.
        let dest = greedy_commit(3, vec![(1.0, 0, 1), (-1.0, 1, 0)], Some(0.0));
        assert_eq!(dest, vec![1, 0, 2]);
    }

    #[test]
    fn lan_profile_aggregates_and_distances() {
        let lans = vec![0u32, 0, 1];
        let m0 = vec![1.0f32, 0.0];
        let m1 = vec![0.0f32, 1.0];
        let m2 = vec![0.5f32, 0.5];
        let profile = LanProfile::build(&lans, &[&m0, &m1, &m2], 3, 2);
        assert_eq!(profile.counts, vec![2, 1, 0]);
        assert_eq!(profile.mean_marginal[0], vec![0.5, 0.5]);
        assert_eq!(profile.mean_marginal[1], vec![0.5, 0.5]);
        let row = profile.distance_row(&m0);
        assert!((row[0] - 0.5).abs() < 1e-9);
        assert_eq!(row[2], 0.0, "empty LAN contributes zero distance");
        let b = profile.benefit_matrix();
        assert_eq!(b[0][1], b[1][0]);
        assert!(b[2].iter().all(|&v| v == 0.0));
    }
}
