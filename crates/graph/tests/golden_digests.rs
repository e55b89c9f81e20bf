//! Golden digests of the positioned geometric families.
//!
//! Each entry pins an FNV-1a digest of one `Family::instantiate_positioned`
//! result — node and edge counts, the CSR arrays, the point coordinates'
//! bit patterns and the radio ranges — at sizes well past the catalogue
//! fixture's n = 36, so any change to point sampling, the edge predicates,
//! the quasi gray-zone coin stream or the connectivity retry shows up as a
//! digest mismatch. The values were recorded with the all-pairs generators
//! that the spatial-grid pair sweep replaced.

use radionet_graph::families::{Family, GeometryRule};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *h ^= byte as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

fn digest(family: Family, n: usize) -> u64 {
    let p = family.instantiate_positioned(n, 1);
    let geo = p.geometry.expect("positioned family carries geometry");
    let mut h = FNV_OFFSET;
    fnv(&mut h, p.graph.n() as u64);
    fnv(&mut h, p.graph.m() as u64);
    let (offsets, neighbors) = p.graph.csr();
    offsets.iter().for_each(|&o| fnv(&mut h, o as u64));
    neighbors.iter().for_each(|v| fnv(&mut h, v.index() as u64));
    geo.points.iter().flatten().for_each(|c| fnv(&mut h, c.to_bits()));
    if let GeometryRule::Radio { ranges } = &geo.rule {
        ranges.iter().for_each(|r| fnv(&mut h, r.to_bits()));
    }
    h
}

/// `(family, n, digest)`. The geometric families seed their point streams
/// from `n` and the retry attempt alone, so the instance seed is immaterial.
const GOLDEN: [(Family, usize, u64); 13] = [
    (Family::UnitDisk, 64, 0x0e3e_2cd0_fe3d_324c),
    (Family::UnitDisk, 1_024, 0x65de_403a_a64b_aacc),
    (Family::UnitDisk, 4_096, 0xe218_7f12_f6c0_843c),
    (Family::UnitDisk, 16_400, 0xe40b_c0e0_22d1_8801),
    (Family::QuasiUnitDisk, 64, 0x3c72_f4b8_42d4_3a48),
    (Family::QuasiUnitDisk, 1_024, 0x9faf_3929_72d6_1063),
    (Family::QuasiUnitDisk, 4_096, 0x6ced_84ae_1a6e_9bee),
    (Family::UnitBall3, 64, 0x0a55_d095_20b8_a988),
    (Family::UnitBall3, 1_024, 0x97f7_947c_e701_0b9d),
    (Family::UnitBall3, 4_096, 0xa418_799f_ec2b_5fca),
    (Family::GeometricRadio, 64, 0xf774_e128_3826_d330),
    (Family::GeometricRadio, 1_024, 0x1df3_37ce_c306_1b53),
    (Family::GeometricRadio, 4_096, 0x63dd_42e7_7eff_9864),
];

#[test]
fn positioned_families_match_their_golden_digests() {
    let actual: Vec<u64> = GOLDEN.iter().map(|&(f, n, _)| digest(f, n)).collect();
    let table: String = GOLDEN
        .iter()
        .zip(&actual)
        .map(|(&(f, n, _), d)| format!("    ({f:?}, {n}, {d:#018x}),\n"))
        .collect();
    for (&(f, n, want), &got) in GOLDEN.iter().zip(&actual) {
        assert_eq!(got, want, "{f} n = {n}: digest moved; actual table:\n{table}");
    }
}
