//! Deterministic load generation: every request the server sees is a
//! pure function of the workload seed (and of the session ids the
//! server hands out, which are themselves deterministic for a given
//! request sequence). Lines and frames are encoded here, ahead of the
//! timer.

use whatif_core::bulk::ScenarioSpec;
use whatif_core::perturbation::{Perturbation, PerturbationSet};
use whatif_server::v3::specs_to_grid;
use whatif_server::{Envelope, Request};
use whatif_wire::frame::encode_frame;
use whatif_wire::{Compression, FrameType, RequestBody, WireRequest};

/// Slider stops, in percent: the twelve positions of the analyst's
/// sensitivity slider in the Figure 2 walkthrough.
pub const SLIDER_POSITIONS: [f64; 12] = [
    -50.0, -40.0, -30.0, -20.0, -10.0, 0.0, 10.0, 20.0, 40.0, 60.0, 80.0, 120.0,
];

/// The marketing-mix spend channels a budget reallocation moves.
pub const CHANNELS: [&str; 5] = ["Internet", "Facebook", "YouTube", "TV", "Radio"];

/// SplitMix64: a small, well-mixed, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label, so independent uses of
    /// one workload seed do not share draws.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One slider lap: every `(driver, stop)` pair once, in a seeded order.
#[must_use]
pub fn slider_lap(drivers: &[String], seed: u64) -> Vec<(String, f64)> {
    let mut moves: Vec<(String, f64)> = drivers
        .iter()
        .flat_map(|d| SLIDER_POSITIONS.iter().map(move |&p| (d.clone(), p)))
        .collect();
    Rng::new(seed, 1).shuffle(&mut moves);
    moves
}

/// The sensitivity request for one slider move.
#[must_use]
pub fn slider_request(session: u64, driver: &str, pct: f64) -> Request {
    Request::SensitivityView {
        session,
        perturbations: vec![Perturbation::percentage(driver, pct)],
    }
}

/// The perturbation set the engine builds for [`slider_request`].
#[must_use]
pub fn slider_set(driver: &str, pct: f64) -> PerturbationSet {
    PerturbationSet::new(vec![Perturbation::percentage(driver, pct)])
}

/// Grid `index` of a scenario-grid workload: `n` budget reallocations,
/// each moving all five channels by percentages that sum to zero.
#[must_use]
pub fn budget_grid(seed: u64, index: u64, n: usize) -> Vec<ScenarioSpec> {
    let mut rng = Rng::new(seed, 1000 + index);
    (0..n)
        .map(|i| {
            let raw: Vec<f64> = CHANNELS.iter().map(|_| rng.unit() * 80.0 - 40.0).collect();
            let mean = raw.iter().sum::<f64>() / raw.len() as f64;
            let perturbations = CHANNELS
                .iter()
                .zip(&raw)
                .map(|(channel, r)| Perturbation::percentage(*channel, r - mean))
                .collect();
            ScenarioSpec::new(format!("g{index}-{i}"), PerturbationSet::new(perturbations))
        })
        .collect()
}

/// Seed of the dataset behind iteration `i` of a workload.
#[must_use]
pub fn iteration_seed(seed: u64, i: u64) -> u64 {
    Rng::new(seed, i.wrapping_add(2000)).next_u64() >> 16
}

/// A v2 envelope line, newline-terminated.
///
/// # Panics
/// Only if the JSON encoder rejects a request the protocol defines.
#[must_use]
pub fn v2_line(id: u64, request: Request) -> Vec<u8> {
    let mut line = serde_json::to_string(&Envelope::new(id, request))
        .expect("protocol requests always encode")
        .into_bytes();
    line.push(b'\n');
    line
}

/// A v3 request frame carrying a v2 envelope as its JSON body, with the
/// compression preference every v3 client here uses.
///
/// # Panics
/// Only if a request exceeds the wire frame cap.
#[must_use]
pub fn v3_json_frame(id: u64, request: Request) -> Vec<u8> {
    let json = serde_json::to_string(&Envelope::new(id, request))
        .expect("protocol requests always encode");
    frame(&WireRequest {
        id,
        body: RequestBody::Json(json),
        deadline_ms: 0,
    })
}

/// A v3 columnar scenario-grid request frame.
#[must_use]
pub fn v3_grid_frame(id: u64, session: u64, specs: &[ScenarioSpec], n_threads: usize) -> Vec<u8> {
    frame(&WireRequest {
        id,
        body: RequestBody::Scenarios(specs_to_grid(session, specs, false, Some(n_threads))),
        deadline_ms: 0,
    })
}

fn frame(request: &WireRequest) -> Vec<u8> {
    encode_frame(FrameType::Request, &request.encode(), Compression::Lz4Like)
        .expect("benchmark requests fit one frame")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes() {
        let drivers: Vec<String> = ["Call", "Chat", "Meeting"].map(String::from).to_vec();
        let lines = |seed| -> Vec<Vec<u8>> {
            slider_lap(&drivers, seed)
                .iter()
                .enumerate()
                .map(|(i, (d, p))| v2_line(i as u64, slider_request(3, d, *p)))
                .collect()
        };
        assert_eq!(lines(5), lines(5));
        assert_ne!(lines(5), lines(6), "the seed changes the lap order");

        let frames = |seed| -> Vec<u8> {
            let specs = budget_grid(seed, 2, 64);
            let mut out = v3_grid_frame(1, 9, &specs, 2);
            out.extend(v3_json_frame(2, slider_request(9, "Call", 10.0)));
            out.extend(v2_line(
                3,
                Request::EvaluateScenarios {
                    session: 9,
                    scenarios: specs,
                    record: false,
                    n_threads: Some(2),
                },
            ));
            out
        };
        assert_eq!(frames(11), frames(11));
        assert_ne!(frames(11), frames(12));
    }

    #[test]
    fn laps_cover_every_move_once() {
        let drivers: Vec<String> = ["a", "b"].map(String::from).to_vec();
        let mut lap = slider_lap(&drivers, 1);
        assert_eq!(lap.len(), 2 * SLIDER_POSITIONS.len());
        lap.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.total_cmp(&y.1)));
        lap.dedup();
        assert_eq!(lap.len(), 2 * SLIDER_POSITIONS.len());
    }

    #[test]
    fn reallocations_are_budget_neutral_and_distinct_per_grid() {
        let a = budget_grid(4, 0, 100);
        let b = budget_grid(4, 1, 100);
        for spec in &a {
            let total: f64 = spec
                .perturbations
                .perturbations
                .iter()
                .map(|p| match p.kind {
                    whatif_core::PerturbationKind::Percentage(pct) => pct,
                    whatif_core::PerturbationKind::Absolute(_) => f64::NAN,
                })
                .sum();
            assert!(total.abs() < 1e-9);
            assert_eq!(spec.perturbations.perturbations.len(), CHANNELS.len());
        }
        assert_ne!(a[0].perturbations, b[0].perturbations);
    }

    #[test]
    fn iteration_seeds_differ() {
        assert_ne!(iteration_seed(1, 0), iteration_seed(1, 1));
        assert_eq!(iteration_seed(1, 3), iteration_seed(1, 3));
    }
}
