//! `expected.json`: simulated statistics pinned at one seed and size.
//!
//! The simulator is seeded and deterministic, so `cost_ratio`,
//! `rounds`, the stream counts and the traced run's event counts repeat
//! bit for bit across runs and `DLB_THREADS`. A change meant only to
//! make the simulator faster must leave them identical; a change to the
//! modelled design moves them and re-records the file (`e2e pins`,
//! `layers pins`) in the same commit, which is then visible in review.
//! For any other seed or size there is nothing to compare with and the
//! invariant checks carry the run alone.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::workloads::{PINNED_SEED, RUN_SECONDS};

/// The file as built into the binaries, so a run needs no path.
const EMBEDDED: &str = include_str!("../expected.json");

/// Where `pins` commands rewrite it.
const PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");

/// One binary's named values for one workload.
pub type Values = Vec<(String, f64)>;

#[derive(Debug, Clone, PartialEq)]
pub struct Pins {
    seed: u64,
    seconds: f64,
    /// section (`e2e`, `layers`) → workload → name → value.
    sections: BTreeMap<String, BTreeMap<String, BTreeMap<String, f64>>>,
}

impl Pins {
    pub fn embedded() -> Result<Pins, String> {
        Pins::parse(EMBEDDED)
    }

    /// The file on disk, to be re-recorded. Empty if it is missing or
    /// does not parse (it is about to be overwritten anyway), and if it
    /// was recorded at another seed or size (every section is stale).
    pub fn on_disk() -> Pins {
        std::fs::read_to_string(PATH)
            .ok()
            .and_then(|text| Pins::parse(&text).ok())
            .filter(|pins| pins.applies(PINNED_SEED, f64::from(RUN_SECONDS)))
            .unwrap_or_else(Pins::empty)
    }

    /// Writes the file back to where `on_disk` reads it.
    pub fn save(&self) -> Result<(), String> {
        std::fs::write(PATH, self.render()).map_err(|e| format!("{PATH}: {e}"))?;
        println!("# wrote {PATH}");
        Ok(())
    }

    /// An empty file for the pinned seed and size.
    pub fn empty() -> Pins {
        Pins {
            seed: PINNED_SEED,
            seconds: f64::from(RUN_SECONDS),
            sections: BTreeMap::new(),
        }
    }

    pub fn parse(text: &str) -> Result<Pins, String> {
        let doc = Json::parse(text)?;
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("expected.json: '{key}' missing"))
        };
        let mut pins = Pins {
            seed: num("seed")? as u64,
            seconds: num("seconds")?,
            sections: BTreeMap::new(),
        };
        for section in ["e2e", "layers"] {
            let Some(workloads) = doc.get(section).and_then(Json::as_obj) else {
                continue;
            };
            for (workload, values) in workloads {
                let values = values.as_obj().ok_or(format!(
                    "expected.json: {section}.{workload} is not an object"
                ))?;
                for (name, value) in values {
                    let value = value.as_f64().ok_or(format!(
                        "expected.json: {section}.{workload}.{name} is not a number"
                    ))?;
                    pins.sections
                        .entry(section.to_string())
                        .or_default()
                        .entry(workload.clone())
                        .or_default()
                        .insert(name.clone(), value);
                }
            }
        }
        Ok(pins)
    }

    pub fn render(&self) -> String {
        let mut top = vec![
            ("seed".to_string(), Json::Num(self.seed as f64)),
            ("seconds".to_string(), Json::Num(self.seconds)),
        ];
        for (section, workloads) in &self.sections {
            let body = Json::obj(workloads.iter().map(|(w, values)| {
                (
                    w.clone(),
                    Json::obj(values.iter().map(|(k, v)| (k.clone(), Json::Num(*v)))),
                )
            }));
            top.push((section.clone(), body));
        }
        Json::obj(top).render_pretty()
    }

    /// Pins exist for exactly one seed and one size.
    pub fn applies(&self, seed: u64, seconds: f64) -> bool {
        seed == self.seed && seconds == self.seconds
    }

    /// Compares measured values with the pins, exactly. Returns one
    /// line per mismatch, stating old and new; a pinned name that was
    /// not measured is a mismatch too, and so is a workload with no
    /// pins at all (an unrecorded file must not pass for a checked one).
    pub fn check(&self, section: &str, workload: &str, measured: &Values) -> Vec<String> {
        let Some(pinned) = self.sections.get(section).and_then(|s| s.get(workload)) else {
            return vec![format!("{section}/{workload}: no pins recorded")];
        };
        let mut problems = Vec::new();
        for (name, old) in pinned {
            match measured.iter().find(|(n, _)| n == name) {
                None => problems.push(format!("{workload}/{name}: pinned {old}, not measured")),
                Some((_, new)) if new.to_bits() != old.to_bits() => {
                    problems.push(format!("{workload}/{name}: pinned {old}, measured {new}"));
                }
                Some(_) => {}
            }
        }
        problems
    }

    /// Replaces one workload's pins in one section.
    pub fn record(&mut self, section: &str, workload: &str, measured: &Values) {
        self.sections
            .entry(section.to_string())
            .or_default()
            .insert(workload.to_string(), measured.iter().cloned().collect());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(pairs: &[(&str, f64)]) -> Values {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn pins_round_trip_through_the_file_format_bit_for_bit() {
        let mut pins = Pins::empty();
        pins.record(
            "e2e",
            "exact_m5000",
            &values(&[("cost_ratio", 0.904_540_370_517_834_9), ("rounds", 30.0)]),
        );
        pins.record(
            "layers",
            "topk_m100k",
            &values(&[("runtime.event_hash", 8.1e15)]),
        );
        let back = Pins::parse(&pins.render()).unwrap();
        assert_eq!(back, pins);
        assert!(back
            .check(
                "e2e",
                "exact_m5000",
                &values(&[("cost_ratio", 0.904_540_370_517_834_9), ("rounds", 30.0)])
            )
            .is_empty());
    }

    #[test]
    fn a_mismatch_names_old_and_new() {
        let mut pins = Pins::empty();
        pins.record(
            "e2e",
            "w",
            &values(&[("rounds", 30.0), ("cost_ratio", 0.5)]),
        );
        let problems = pins.check("e2e", "w", &values(&[("rounds", 31.0)]));
        assert_eq!(problems.len(), 2);
        assert!(problems
            .iter()
            .any(|p| p.contains("pinned 30, measured 31")));
        assert!(problems
            .iter()
            .any(|p| p.contains("cost_ratio") && p.contains("not measured")));
        // One ulp is a mismatch.
        let near = f64::from_bits(0.5f64.to_bits() + 1);
        assert_eq!(
            pins.check(
                "e2e",
                "w",
                &values(&[("rounds", 30.0), ("cost_ratio", near)])
            )
            .len(),
            1
        );
    }

    #[test]
    fn unpinned_workloads_and_other_seeds_are_told_apart() {
        let pins = Pins::empty();
        assert_eq!(pins.check("e2e", "w", &values(&[])).len(), 1);
        assert!(pins.applies(PINNED_SEED, f64::from(RUN_SECONDS)));
        assert!(!pins.applies(PINNED_SEED + 1, f64::from(RUN_SECONDS)));
        assert!(!pins.applies(PINNED_SEED, 3.0));
    }

    #[test]
    fn the_committed_file_parses_and_covers_every_workload() {
        let pins = Pins::embedded().unwrap();
        assert!(pins.applies(PINNED_SEED, f64::from(RUN_SECONDS)));
        for w in &crate::workloads::WORKLOADS {
            for section in ["e2e", "layers"] {
                assert!(
                    pins.sections
                        .get(section)
                        .is_some_and(|s| s.contains_key(w.name)),
                    "{section}/{} has no pins",
                    w.name
                );
            }
            // The traced pass runs the job `e2e` repeats: the directly
            // driven executor or engine must land where the scenario
            // API does, bit for bit.
            let pin = |section: &str, name: &str| pins.sections[section][w.name][name].to_bits();
            assert_eq!(
                pin("layers", "trace.cost_ratio"),
                pin("e2e", "cost_ratio"),
                "{}",
                w.name
            );
            assert_eq!(
                pin("layers", "trace.rounds"),
                pin("e2e", "rounds"),
                "{}",
                w.name
            );
        }
    }
}
