//! Correctness checkers written from the definitions, independent of the
//! program's own `dse::ParetoFront`, `dse::Adrs` and `dse::area`: an
//! O(n²) Pareto front, ADRS, MAPE against the `hlsim` oracle, and the
//! search-ledger invariants. Each `check_*` returns the first discrepancy.

use hier_hls_qor::hlsim::Qor;

/// ZCU102 capacities that collapse LUT/FF/DSP into the DSE area objective.
const LUT_CAP: f64 = 274_080.0;
const FF_CAP: f64 = 548_160.0;
const DSP_CAP: f64 = 2_520.0;

/// Normalized area of a QoR point.
pub fn area(q: &Qor) -> f64 {
    q.lut as f64 / LUT_CAP + q.ff as f64 / FF_CAP + q.dsp as f64 / DSP_CAP
}

/// The `(latency, area)` objective point of a QoR.
pub fn point(q: &Qor) -> (f64, f64) {
    (q.latency as f64, area(q))
}

/// `a` is no worse than `b` in both objectives and better in one.
fn dominates(a: (f64, f64), b: (f64, f64)) -> bool {
    a.0 <= b.0 && a.1 <= b.1 && (a.0 < b.0 || a.1 < b.1)
}

/// Indices of the non-dominated points, ascending, by comparing every
/// pair. Of several equal points only the first is kept.
pub fn pareto_indices(points: &[(f64, f64)]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| {
            let p = points[i];
            !points
                .iter()
                .enumerate()
                .any(|(j, &q)| dominates(q, p) || (j < i && q == p))
        })
        .collect()
}

/// ADRS (a fraction): the mean, over the exact front `Γ` of `reference`,
/// of `min_{ω∈approx} max(0, (ω_lat − γ_lat)/γ_lat, (ω_area − γ_area)/γ_area)`.
/// Zero when either set is empty.
pub fn adrs(reference: &[(f64, f64)], approx: &[(f64, f64)]) -> f64 {
    let front = pareto_indices(reference);
    if front.is_empty() || approx.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for &i in &front {
        let g = reference[i];
        let best = approx
            .iter()
            .map(|w| {
                let d_lat = (w.0 - g.0) / g.0;
                let d_area = (w.1 - g.1) / g.1;
                d_lat.max(d_area).max(0.0)
            })
            .fold(f64::INFINITY, f64::min);
        total += best;
    }
    total / front.len() as f64
}

/// The claimed front must list exactly the non-dominated indices.
pub fn check_front(points: &[(f64, f64)], claimed: &[usize]) -> Result<(), String> {
    let expected = pareto_indices(points);
    if expected == claimed {
        Ok(())
    } else {
        Err(format!(
            "front {claimed:?} differs from the non-dominated set {expected:?}"
        ))
    }
}

/// The claimed ADRS must equal the definition's value bit for bit.
pub fn check_adrs(
    reference: &[(f64, f64)],
    approx: &[(f64, f64)],
    claimed: f64,
) -> Result<f64, String> {
    let expected = adrs(reference, approx);
    if expected.to_bits() == claimed.to_bits() {
        Ok(expected)
    } else {
        Err(format!(
            "ADRS {claimed} differs from the definition's {expected}"
        ))
    }
}

/// Invariants of one finished search job: no fingerprint twice in the
/// ledger, the budget fully spent (or the whole space), and the front
/// equal to the non-dominated subset of the ledger, in ledger order.
pub fn check_ledger(
    fingerprints: &[u64],
    points: &[(f64, f64)],
    front: &[(f64, f64)],
    budget: u64,
    space_size: usize,
) -> Result<(), String> {
    let mut sorted = fingerprints.to_vec();
    sorted.sort_unstable();
    if sorted.windows(2).any(|w| w[0] == w[1]) {
        return Err("ledger repeats a fingerprint".to_string());
    }
    let want = budget.min(space_size as u64);
    if fingerprints.len() as u64 != want {
        return Err(format!(
            "spent {} but min(budget, |space|) is {want}",
            fingerprints.len()
        ));
    }
    let expected: Vec<(f64, f64)> = pareto_indices(points)
        .into_iter()
        .map(|i| points[i])
        .collect();
    if expected != front {
        return Err(format!(
            "front of {} points differs from the ledger's non-dominated set of {}",
            front.len(),
            expected.len()
        ));
    }
    Ok(())
}

/// A served or swept QoR must equal the uncached reference bit for bit.
pub fn check_same_qor(what: &str, got: &Qor, reference: &Qor) -> Result<(), String> {
    if got == reference {
        Ok(())
    } else {
        Err(format!(
            "{what}: got {got:?}, uncached predict gives {reference:?}"
        ))
    }
}

/// Running MAPE of predictions against the oracle, per QoR component.
/// Pairs whose true value is zero carry no relative error and are
/// skipped, as in the program's own training metric.
#[derive(Debug, Default, Clone)]
pub struct Mape {
    sums: [f64; 4],
    counts: [u64; 4],
}

impl Mape {
    pub fn add(&mut self, predicted: &Qor, truth: &Qor) {
        let pairs = [
            (predicted.latency, truth.latency),
            (predicted.lut, truth.lut),
            (predicted.ff, truth.ff),
            (predicted.dsp, truth.dsp),
        ];
        for (k, (p, t)) in pairs.into_iter().enumerate() {
            if t != 0 {
                self.sums[k] += (p as f64 - t as f64).abs() / t as f64;
                self.counts[k] += 1;
            }
        }
    }

    fn pct(&self, k: usize) -> f64 {
        if self.counts[k] == 0 {
            0.0
        } else {
            100.0 * self.sums[k] / self.counts[k] as f64
        }
    }

    /// Latency MAPE in percent.
    pub fn latency_pct(&self) -> f64 {
        self.pct(0)
    }

    /// Mean of the LUT, FF and DSP MAPEs, in percent.
    pub fn resource_pct(&self) -> f64 {
        (self.pct(1) + self.pct(2) + self.pct(3)) / 3.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(latency: u64, lut: u64, ff: u64, dsp: u64) -> Qor {
        Qor {
            latency,
            lut,
            ff,
            dsp,
        }
    }

    const POINTS: [(f64, f64); 6] = [
        (1.0, 10.0),
        (2.0, 5.0),
        (2.5, 5.0),
        (3.0, 1.0),
        (4.0, 4.0),
        (2.0, 5.0),
    ];

    #[test]
    fn front_by_hand() {
        // (2.5,5) and (4,4) are dominated; the second (2,5) repeats index 1
        assert_eq!(pareto_indices(&POINTS), vec![0, 1, 3]);
        assert!(check_front(&POINTS, &[0, 1, 3]).is_ok());
        assert!(pareto_indices(&[]).is_empty());
    }

    #[test]
    fn corrupted_front_is_rejected() {
        assert!(check_front(&POINTS, &[0, 1, 2, 3]).is_err());
        assert!(check_front(&POINTS, &[0, 3]).is_err());
        assert!(check_front(&POINTS, &[0, 1, 3, 5]).is_err());
    }

    #[test]
    fn adrs_by_hand() {
        // exact front {(10,3),(20,1),(15,2)}; (30,3) is dominated
        let reference = [(10.0, 3.0), (20.0, 1.0), (15.0, 2.0), (30.0, 3.0)];
        let approx = [(11.0, 3.0), (20.0, 1.5)];
        // per γ: min(0.1, 1.0) = 0.1; min(2.0, 0.5) = 0.5; min(0.5, 1/3) = 1/3
        let want = (0.1 + 0.5 + 1.0 / 3.0) / 3.0;
        assert!((adrs(&reference, &approx) - want).abs() < 1e-15);
        assert_eq!(adrs(&reference, &reference), 0.0);
        assert_eq!(adrs(&reference, &[]), 0.0);
        // the program's implementation agrees bit for bit
        let program = hier_hls_qor::dse::Adrs::compute(&reference, &approx).value();
        assert!(check_adrs(&reference, &approx, program).is_ok());
    }

    #[test]
    fn corrupted_adrs_is_rejected() {
        let reference = [(10.0, 3.0), (20.0, 1.0)];
        let approx = [(12.0, 3.0)];
        let good = adrs(&reference, &approx);
        assert!(check_adrs(&reference, &approx, good).is_ok());
        assert!(check_adrs(&reference, &approx, good * (1.0 + 1e-12)).is_err());
        assert!(check_adrs(&reference, &approx, 0.0).is_err());
    }

    #[test]
    fn ledger_invariants_by_hand() {
        let fps = [11, 12, 13, 14];
        let pts = [(3.0, 1.0), (1.0, 3.0), (2.0, 2.0), (3.0, 3.0)];
        let front = [(3.0, 1.0), (1.0, 3.0), (2.0, 2.0)];
        assert!(check_ledger(&fps, &pts, &front, 4, 100).is_ok());
        // budget above the space size: the whole space is the target
        assert!(check_ledger(&fps, &pts, &front, 9, 4).is_ok());
    }

    #[test]
    fn corrupted_ledgers_are_rejected() {
        let pts = [(3.0, 1.0), (1.0, 3.0), (2.0, 2.0), (3.0, 3.0)];
        let front = [(3.0, 1.0), (1.0, 3.0), (2.0, 2.0)];
        assert!(check_ledger(&[11, 12, 12, 14], &pts, &front, 4, 100).is_err());
        assert!(check_ledger(&[11, 12, 13, 14], &pts, &front, 5, 100).is_err());
        let missing = [(3.0, 1.0), (1.0, 3.0)];
        assert!(check_ledger(&[11, 12, 13, 14], &pts, &missing, 4, 100).is_err());
        let dominated = [(3.0, 1.0), (1.0, 3.0), (2.0, 2.0), (3.0, 3.0)];
        assert!(check_ledger(&[11, 12, 13, 14], &pts, &dominated, 4, 100).is_err());
    }

    #[test]
    fn mape_by_hand() {
        let mut m = Mape::default();
        m.add(&q(110, 50, 200, 0), &q(100, 100, 100, 0));
        m.add(&q(90, 100, 100, 3), &q(100, 100, 100, 2));
        // latency: (0.1 + 0.1) / 2; lut: (0.5 + 0) / 2; ff: (1.0 + 0) / 2;
        // dsp: only the non-zero truth counts, 0.5 / 1
        assert!((m.latency_pct() - 10.0).abs() < 1e-12);
        assert!((m.resource_pct() - (25.0 + 50.0 + 50.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn corrupted_predictions_are_rejected() {
        let reference = q(100, 10, 20, 1);
        assert!(check_same_qor("x", &reference, &reference).is_ok());
        assert!(check_same_qor("x", &q(101, 10, 20, 1), &reference).is_err());
        // one corrupted prediction moves the MAPE away from the clean value
        let mut clean = Mape::default();
        let mut dirty = Mape::default();
        clean.add(&reference, &reference);
        dirty.add(&q(100, 10, 20, 2), &reference);
        assert_eq!(clean.resource_pct(), 0.0);
        assert!(dirty.resource_pct() > 0.0);
    }

    #[test]
    fn area_matches_the_program_objective() {
        let qor = q(10, 1234, 5678, 9);
        assert_eq!(
            area(&qor).to_bits(),
            hier_hls_qor::dse::area(&qor).to_bits()
        );
    }
}
