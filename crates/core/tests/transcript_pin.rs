//! Pins the free text of trained design sessions.
//!
//! The benchmark digests only numbers (success, attempts, simulations,
//! billed seconds), so a retrieval pick that changes an answer's text
//! without changing the RNG stream would pass it unseen. These FNV-1a
//! hashes of whole chat transcripts catch that: a trained agent at the
//! paper's retrieval temperature (0.5) designs every Table 2 group at
//! four seeds, and each transcript must hash to its recorded value.

use artisan_agents::AgentConfig;
use artisan_core::{Artisan, ArtisanOptions};
use artisan_dataset::DatasetConfig;
use artisan_sim::wire::fnv1a64;
use artisan_sim::Spec;

/// `fnv1a64(transcript)` per group (G-1…G-5), for seeds 0–3.
const PINNED: [(&str, [u64; 4]); 5] = [
    (
        "G-1",
        [
            0x33bd_4353_bde0_397d,
            0xf8ad_7714_7a8e_f4ba,
            0x6abe_8d57_334a_7062,
            0x4c37_bf1f_fb68_0cf0,
        ],
    ),
    (
        "G-2",
        [
            0xda6f_9172_2882_3d79,
            0xeea1_331e_89d1_7cc2,
            0x356a_82c3_0abd_c646,
            0xb323_7edd_f092_5128,
        ],
    ),
    (
        "G-3",
        [
            0xb553_b21a_58f2_40df,
            0xdfc7_ec71_3e14_6992,
            0x3433_2cc6_ef83_ee5c,
            0x891e_c3a6_ab92_8765,
        ],
    ),
    (
        "G-4",
        [
            0xa103_d999_800a_c810,
            0xc8ca_af76_17c0_3145,
            0xa18f_297c_f4e5_ca4a,
            0x4da8_de4a_995c_7371,
        ],
    ),
    (
        "G-5",
        [
            0x07fc_996e_843a_1fd4,
            0xe9e7_bd89_b5b6_a3b4,
            0x3ef6_2242_7b8d_727d,
            0x3dc5_7682_f9cf_59c7,
        ],
    ),
];

#[test]
fn trained_session_transcripts_keep_their_bytes() {
    let mut options = ArtisanOptions::paper_default();
    options.dataset = Some(DatasetConfig::tiny());
    options.agent = AgentConfig::paper_default();
    let mut artisan = Artisan::new(options);
    assert!(artisan.is_trained());
    let mut got = Vec::new();
    for ((name, spec), (pinned_name, _)) in Spec::table2().into_iter().zip(PINNED) {
        assert_eq!(name, pinned_name);
        let hashes: Vec<u64> = (0..4)
            .map(|seed| {
                let text = artisan.design(&spec, seed).design.transcript.to_string();
                fnv1a64(text.as_bytes())
            })
            .collect();
        got.push((name, hashes));
    }
    let want: Vec<(&str, Vec<u64>)> = PINNED.iter().map(|(n, h)| (*n, h.to_vec())).collect();
    assert_eq!(
        got, want,
        "transcript hashes moved (got left, pinned right)"
    );
}
