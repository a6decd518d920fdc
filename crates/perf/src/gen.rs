//! Seeded input generators: splitmix64, Zipf weights, and the graph and
//! relation builders the four workloads load.
//!
//! Everything here is plain data — a [`Tuple`] is a relation name and
//! `u64` arguments — so the program under test receives only generated
//! facts and the workload cannot move when the program's own helpers
//! (`parlog_mpc::datagen`, `parlog_serve::harness`) do.
//!
//! The builders are **stratified**: sizes, degree sequences and request
//! proportions are fixed by the arguments, and the seed only chooses
//! *which* values and in *what order*. Two seeds therefore give inputs of
//! the same shape and cost, which is what lets the benchmark's spread
//! across seeds stay inside its regression bounds.

/// One generated fact: relation name and arguments.
pub type Tuple = (&'static str, Vec<u64>);

/// One splitmix64 output step.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded splitmix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`; `salt` separates the independent streams a
    /// workload draws from one seed.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(splitmix64(seed ^ splitmix64(salt)))
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Zipf(s) over ranks `0..n`, rank 0 hottest.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n ≥ 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n.max(1)).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Split `total` over the ranks in exact Zipf proportion (largest
    /// remainder), every rank getting at least `floor`. The counts sum to
    /// `total` and do not depend on any seed.
    pub fn apportion(&self, total: usize, floor: usize) -> Vec<usize> {
        let n = self.cdf.len();
        assert!(total >= n * floor, "total too small for the floor");
        let spare = (total - n * floor) as f64;
        let mut prev = 0.0;
        let shares: Vec<f64> = self
            .cdf
            .iter()
            .map(|&c| {
                let w = (c - prev) * spare;
                prev = c;
                w
            })
            .collect();
        let mut counts: Vec<usize> = shares.iter().map(|w| floor + w.floor() as usize).collect();
        let mut rest: Vec<usize> = (0..n).collect();
        rest.sort_by(|&a, &b| {
            let (fa, fb) = (shares[a].fract(), shares[b].fract());
            fb.total_cmp(&fa).then(a.cmp(&b))
        });
        let short = total - counts.iter().sum::<usize>();
        for &k in rest.iter().take(short) {
            counts[k] += 1;
        }
        counts
    }
}

/// A shuffled deck holding rank `k` exactly `counts[k]` times.
pub fn deck(counts: &[usize], rng: &mut Rng) -> Vec<usize> {
    let mut d: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(k, &c)| std::iter::repeat_n(k, c))
        .collect();
    rng.shuffle(&mut d);
    d
}

/// `m` distinct pairs over `0..domain`, uniformly drawn.
pub fn random_pairs(rel: &'static str, m: usize, domain: u64, rng: &mut Rng) -> Vec<Tuple> {
    assert!((m as u64) <= domain * domain / 2, "domain too small");
    let mut seen = std::collections::BTreeSet::new();
    while seen.len() < m {
        seen.insert((rng.below(domain), rng.below(domain)));
    }
    let mut out: Vec<Tuple> = seen.into_iter().map(|(a, b)| (rel, vec![a, b])).collect();
    rng.shuffle(&mut out);
    out
}

/// A random permutation of `0..n`.
pub fn permutation(n: u64, rng: &mut Rng) -> Vec<u64> {
    let mut p: Vec<u64> = (0..n).collect();
    rng.shuffle(&mut p);
    p
}

/// The serving base instance of E27: a path `E` over `0..=n` (so the
/// transitive closure and the reachability fixpoint have a fixed size),
/// `n/4` planted `R`/`S`/`T` triangles, `n/4` loose `R` and `S` edges,
/// and the `Src(0)` marker. `shape` draws the `R`/`S`/`T` structure and
/// `labels` (a permutation of `0..n`) names its nodes: with `shape`
/// fixed, every `labels` gives an isomorphic instance — the same join
/// sizes under different values.
pub fn serving_base(n: u64, shape: &mut Rng, labels: &[u64]) -> Vec<Tuple> {
    let mut node = || labels[shape.below(n) as usize];
    let mut out: Vec<Tuple> = (0..n).map(|i| ("E", vec![i, i + 1])).collect();
    for _ in 0..n / 4 {
        let (a, b, c) = (node(), node(), node());
        out.push(("R", vec![a, b]));
        out.push(("S", vec![b, c]));
        out.push(("T", vec![c, a]));
    }
    for _ in 0..n / 4 {
        out.push(("R", vec![node(), node()]));
        out.push(("S", vec![node(), node()]));
    }
    out.push(("Src", vec![0]));
    out
}

/// A chain `rel(1,2), …, rel(n-1,n)` (E25's recursive workload).
pub fn chain(rel: &'static str, n: u64) -> Vec<Tuple> {
    (1..n).map(|i| (rel, vec![i, i + 1])).collect()
}

/// E25's join cascade data: `a` fans `n` sources into 16 hubs, `f` fans
/// the hubs out to `n` sinks.
pub fn cascade(a: &'static str, f: &'static str, n: u64) -> Vec<Tuple> {
    (0..n)
        .flat_map(|i| [(a, vec![1000 + i, i % 16]), (f, vec![i % 16, 5000 + i])])
        .collect()
}

/// E22's adversarial triangle: three hub-and-spoke relations whose
/// pairwise joins have `n²` tuples while only `planted` triangles exist.
/// Seed-free by construction.
pub fn hub_triangle(
    r: &'static str,
    s: &'static str,
    t: &'static str,
    n: u64,
    planted: u64,
) -> Vec<Tuple> {
    let (alpha, beta, gamma) = (1u64, 2, 3);
    let (x0, y0, z0) = (100, 100 + n, 100 + 2 * n);
    let mut out = Vec::with_capacity((6 * n + 3 * planted) as usize);
    for i in 0..n {
        out.push((r, vec![x0 + i, beta]));
        out.push((r, vec![alpha, y0 + i]));
        out.push((s, vec![y0 + i, gamma]));
        out.push((s, vec![beta, z0 + i]));
        out.push((t, vec![z0 + i, alpha]));
        out.push((t, vec![gamma, x0 + i]));
    }
    let p0 = 100 + 3 * n;
    for j in 0..planted {
        let (u, v, w) = (p0 + 3 * j, p0 + 3 * j + 1, p0 + 3 * j + 2);
        out.push((r, vec![u, v]));
        out.push((s, vec![v, w]));
        out.push((t, vec![w, u]));
    }
    out
}

/// The triangles [`hub_triangle`] plants, as `head(u,v,w)` tuples — the
/// whole answer of the triangle query on that instance, by construction.
pub fn planted_triangles(head: &'static str, n: u64, planted: u64) -> Vec<Tuple> {
    let p0 = 100 + 3 * n;
    (0..planted)
        .map(|j| (head, vec![p0 + 3 * j, p0 + 3 * j + 1, p0 + 3 * j + 2]))
        .collect()
}

/// A binary relation of `m` facts whose column `pos` follows an exact
/// Zipf(s) frequency sequence over `domain` values (value `k` occurs
/// `apportion(m)[k]` times); the other column is a distinct value per
/// fact, scattered over `other_lo..other_lo + 2³²` (sequential ids make
/// the program's Fx-hashed sets cluster, a cliff no workload should sit
/// on by accident). The seed permutes which value carries which
/// frequency and picks the other column, never the frequency sequence.
pub fn zipf_column(
    rel: &'static str,
    m: usize,
    domain: usize,
    s: f64,
    pos: usize,
    other_lo: u64,
    rng: &mut Rng,
) -> Vec<Tuple> {
    let counts = Zipf::new(domain, s).apportion(m, 0);
    let mut values: Vec<u64> = (0..domain as u64).collect();
    rng.shuffle(&mut values);
    let mut others = std::collections::BTreeSet::new();
    while others.len() < m {
        others.insert(other_lo + rng.below(1 << 32));
    }
    let mut others: Vec<u64> = others.into_iter().collect();
    rng.shuffle(&mut others);
    let mut out = Vec::with_capacity(m);
    for (k, &c) in counts.iter().enumerate() {
        for _ in 0..c {
            let other = others.pop().expect("one per fact");
            let mut args = vec![other, other];
            args[pos] = values[k];
            out.push((rel, args));
        }
    }
    rng.shuffle(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_and_rng_are_seed_stable() {
        // Reference value of splitmix64's first output for state 0.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        let a: Vec<u64> = {
            let mut r = Rng::new(11, 3);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(11, 3);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut other = Rng::new(11, 4);
        assert_ne!(a[0], other.next_u64(), "salt separates streams");
    }

    #[test]
    fn apportion_is_exact_and_seed_free() {
        let z = Zipf::new(9, 1.1);
        let c = z.apportion(800, 2);
        assert_eq!(c.iter().sum::<usize>(), 800);
        assert!(c.windows(2).all(|w| w[0] >= w[1]));
        assert!(c.iter().all(|&k| k >= 2));
        // The Zipf "sampler" is this deck: exact counts, seeded order.
        let d = deck(&c, &mut Rng::new(1, 0));
        assert_eq!(d.len(), 800);
        assert_eq!(d.iter().filter(|&&k| k == 0).count(), c[0]);
        assert_eq!(d, deck(&c, &mut Rng::new(1, 0)), "same seed, same order");
        assert_ne!(
            d,
            deck(&c, &mut Rng::new(2, 0)),
            "another seed, another order"
        );
    }

    #[test]
    fn builders_have_fixed_shape() {
        let a = zipf_column("R", 500, 50, 1.0, 1, 10_000, &mut Rng::new(1, 0));
        let b = zipf_column("R", 500, 50, 1.0, 1, 10_000, &mut Rng::new(2, 0));
        let freq = |ts: &[Tuple]| {
            let mut m = std::collections::BTreeMap::new();
            for (_, args) in ts {
                *m.entry(args[1]).or_insert(0usize) += 1;
            }
            let mut f: Vec<usize> = m.into_values().collect();
            f.sort_unstable();
            f
        };
        assert_eq!(freq(&a), freq(&b), "frequency sequence is seed-free");
        assert_ne!(a, b, "but the seed moves the values");
        assert_eq!(random_pairs("R", 100, 40, &mut Rng::new(3, 0)).len(), 100);
        assert_eq!(hub_triangle("R", "S", "T", 8, 3).len(), 6 * 8 + 9);
    }
}
