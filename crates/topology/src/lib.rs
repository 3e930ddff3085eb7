//! # dlb-topology — latency-matrix substrates
//!
//! The paper evaluates on two kinds of networks (§VI-A): a homogeneous
//! network with `c_ij = 20` ms, and a heterogeneous network whose
//! latencies come from PlanetLab measurements (the iPlane dataset). That
//! dataset is not redistributable, so this crate provides (beside
//! `LatencyMatrix::homogeneous` itself):
//!
//! * [`euclidean::generate`] — random geometric latencies (a standard
//!   synthetic model; `net=euclid`),
//! * [`planetlab::generate`] — a synthetic PlanetLab-like generator
//!   with geographic clustering, jitter, asymmetry, and *incomplete
//!   measurements completed via shortest paths*, mirroring the paper's
//!   footnote 3 (`net=pl`),
//! * [`restricted`] — trust-restricted neighbor graphs (forbidden links
//!   become infinite latencies),
//! * [`nearest`] — delay-nearest-k candidate queries (the static half
//!   of the runtime's `select=topk:K` partner index).
//!
//! Both generators are functions of `(m, seed)` alone: their shape
//! parameters are module constants, so `net=euclid` and `net=pl` each
//! name one matrix per seed (a unit test pins their bits).
//!
//! The model takes those `c_ij` as known (§II); [`coords`] is the
//! substrate behind that assumption — Vivaldi network coordinates that
//! learn a latency matrix from a few probes per node, judged against
//! the generators above (`dlb estimate`, `ablation_latency_estimation`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coords;
pub mod euclidean;
pub mod nearest;
pub mod planetlab;
pub mod restricted;

pub use nearest::{k_nearest_row, k_nearest_wheel};
pub use restricted::{out_degree, restrict_to_k_nearest, restrict_to_neighbors};

#[cfg(test)]
mod tests {
    use dlb_core::LatencyMatrix;

    /// FNV-1a-64 over every entry's `f64::to_bits`, row-major.
    fn fnv64(lat: &LatencyMatrix) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..lat.len() {
            for j in 0..lat.len() {
                for byte in lat.get(i, j).to_bits().to_le_bytes() {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        hash
    }

    #[test]
    fn generator_output_is_pinned() {
        // Every `net=euclid` / `net=pl` record, golden hash and
        // benchmark pin rests on these matrices; a drift in any bit of
        // either generator fails here first. The sizes cover every
        // `m mod 4`, the remainders `metric_close`'s pivot blocks leave.
        for (m, seed, pl, euclid) in [
            (50, 7, 0xfc06_3667_516e_4718, 0x80bc_a56a_b06d_ca25),
            (300, 3, 0x31bf_49a3_98cf_cefc, 0x5eb1_3753_c74d_9e45),
            (7, 1, 0x8b8d_d0f5_534a_f7f3, 0x6182_ff7d_0b4b_6ead),
            (301, 2, 0xfb59_2417_bdb5_764c, 0x80c8_48df_c0cd_1d81),
        ] {
            assert_eq!(
                fnv64(&crate::planetlab::generate(m, seed)),
                pl,
                "pl m={m} seed={seed}"
            );
            assert_eq!(
                fnv64(&crate::euclidean::generate(m, seed)),
                euclid,
                "euclid m={m} seed={seed}"
            );
        }
    }
}
