//! Property tests for the JSON writer against the in-crate parser: any
//! value with finite numbers renders to text that
//! parses back to the same value, and `write_str` escapes any string —
//! quotes, backslashes, every control character below U+0020, non-ASCII
//! text — so that it parses back unchanged.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use psa_obs::json::{self, write_str, Json};

/// Characters the escaper must get right, plus ordinary ones.
const TRICKY: &[char] = &[
    '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', ' ', 'a', 'Z',
    '0', '{', ']', ':', ',', 'é', 'λ', '→', '\u{2028}', '😀',
];

fn char_strategy() -> BoxedStrategy<char> {
    prop_oneof![
        (0usize..TRICKY.len()).prop_map(|i| TRICKY[i]),
        (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
        (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
        (0xa0u32..0xd800).prop_map(|c| char::from_u32(c).unwrap()),
    ]
    .boxed()
}

fn string_strategy() -> BoxedStrategy<String> {
    pvec(char_strategy(), 0..12)
        .prop_map(|cs| cs.into_iter().collect())
        .boxed()
}

fn number_strategy() -> BoxedStrategy<f64> {
    prop_oneof![
        (-1_000_000i64..1_000_000).prop_map(|n| n as f64),
        -1e6f64..1e6,
        ((-1.0f64..1.0), (-300i32..300)).prop_map(|(m, e)| m * 10f64.powi(e)),
        Just(0.1),
        Just(-0.0),
        Just(u64::MAX as f64),
        Just(f64::MIN_POSITIVE),
    ]
    .boxed()
}

fn json_strategy() -> BoxedStrategy<Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        number_strategy().prop_map(Json::Num),
        string_strategy().prop_map(Json::Str),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            pvec(inner.clone(), 0..4).prop_map(Json::Array),
            pvec((string_strategy(), inner), 0..4).prop_map(Json::Object),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rendered_values_parse_back_unchanged(v in json_strategy()) {
        prop_assert_eq!(json::parse(&v.to_string()), Ok(v));
    }

    #[test]
    fn escaped_strings_parse_back_unchanged(s in string_strategy()) {
        let mut text = String::new();
        write_str(&mut text, &s);
        prop_assert!(text.chars().all(|c| c as u32 >= 0x20), "raw control character in {text:?}");
        prop_assert_eq!(json::parse(&text), Ok(Json::Str(s)));
    }
}
