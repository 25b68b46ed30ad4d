//! Built-in functions available to MiniC++ programs.
//!
//! Two groups:
//!
//! * **math** — the C math library surface the benchmarks use, in both
//!   double (`sqrt`, `exp`, …) and single precision (`sqrtf`, `expf`, …).
//!   Precision is real: the `f`-variants compute in `f32`, so the paper's
//!   "Employ SP Math Fns" transform changes results, not just labels.
//! * **memory** — `alloc_double/float/int` and `fill_random`, the minimal
//!   allocation story MiniC++ needs for self-contained runnable benchmarks
//!   (standing in for `new[]`/`std::vector` in the paper's C++ sources).
//!
//! `sink(x)` observes a value so benchmark results count as used.

use psa_minicpp::ast::Scalar;

/// A recognised intrinsic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intrinsic {
    Math(MathFn),
    /// `alloc_double(n)` etc. — allocate `n` zeroed elements.
    Alloc(Scalar),
    /// `fill_random(ptr, n, seed)` — deterministic uniform fill.
    FillRandom,
    /// `sink(x)` — observe a value so benchmark results are "used".
    Sink,
}

/// Math functions; `single` selects the `f32` variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MathFn {
    pub op: MathOp,
    pub single: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MathOp {
    Sqrt,
    Rsqrt,
    Exp,
    Log,
    Pow,
    Sin,
    Cos,
    Tanh,
    Erf,
    Fabs,
    Fmin,
    Fmax,
    Floor,
    Ceil,
}

impl MathOp {
    /// Number of arguments the function takes.
    pub fn arity(self) -> usize {
        match self {
            MathOp::Pow | MathOp::Fmin | MathOp::Fmax => 2,
            _ => 1,
        }
    }

    /// Whether the op is "transcendental" for cost purposes (sqrt is costed
    /// separately; cheap ops cost one FP op).
    pub fn cost_class(self) -> MathCost {
        match self {
            MathOp::Sqrt | MathOp::Rsqrt => MathCost::Sqrt,
            MathOp::Exp
            | MathOp::Log
            | MathOp::Pow
            | MathOp::Sin
            | MathOp::Cos
            | MathOp::Tanh
            | MathOp::Erf => MathCost::Transcendental,
            MathOp::Fabs | MathOp::Fmin | MathOp::Fmax | MathOp::Floor | MathOp::Ceil => {
                MathCost::Cheap
            }
        }
    }

    /// Evaluate in double precision.
    pub fn eval_f64(self, a: f64, b: f64) -> f64 {
        match self {
            MathOp::Sqrt => a.sqrt(),
            MathOp::Rsqrt => 1.0 / a.sqrt(),
            MathOp::Exp => a.exp(),
            MathOp::Log => a.ln(),
            MathOp::Pow => pow_f64(a, b),
            MathOp::Sin => a.sin(),
            MathOp::Cos => a.cos(),
            MathOp::Tanh => a.tanh(),
            MathOp::Erf => erf_approx(a),
            MathOp::Fabs => a.abs(),
            MathOp::Fmin => a.min(b),
            MathOp::Fmax => a.max(b),
            MathOp::Floor => a.floor(),
            MathOp::Ceil => a.ceil(),
        }
    }

    /// Evaluate in single precision.
    pub fn eval_f32(self, a: f32, b: f32) -> f32 {
        match self {
            MathOp::Sqrt => a.sqrt(),
            MathOp::Rsqrt => 1.0 / a.sqrt(),
            MathOp::Exp => a.exp(),
            MathOp::Log => a.ln(),
            MathOp::Pow => pow_f32(a, b),
            MathOp::Sin => a.sin(),
            MathOp::Cos => a.cos(),
            MathOp::Tanh => a.tanh(),
            MathOp::Erf => erf_approx(f64::from(a)) as f32,
            MathOp::Fabs => a.abs(),
            MathOp::Fmin => a.min(b),
            MathOp::Fmax => a.max(b),
            MathOp::Floor => a.floor(),
            MathOp::Ceil => a.ceil(),
        }
    }
}

/// Cost class of a math intrinsic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MathCost {
    Cheap,
    Sqrt,
    Transcendental,
}

/// Abramowitz & Stegun 7.1.26 rational approximation of erf, max abs error
/// 1.5e-7 — plenty for AdPredictor's probit updates.
/// `pow` with a fast path for small integral exponents: generated kernels
/// overwhelmingly raise to squares and small Bernstein powers, where
/// `powi`'s repeated squaring is an order of magnitude cheaper than the
/// general `powf`. Both engines share this routine, so they stay
/// bit-identical to each other.
#[inline]
pub fn pow_f64(a: f64, b: f64) -> f64 {
    if b.trunc() == b && (-32.0..=32.0).contains(&b) {
        a.powi(b as i32)
    } else {
        a.powf(b)
    }
}

/// Single-precision counterpart of [`pow_f64`].
#[inline]
pub fn pow_f32(a: f32, b: f32) -> f32 {
    if b.trunc() == b && (-32.0..=32.0).contains(&b) {
        a.powi(b as i32)
    } else {
        a.powf(b)
    }
}

pub fn erf_approx(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Resolve an intrinsic by call name. Names shadowable by user functions are
/// resolved *after* module lookup fails, mirroring C linkage.
pub fn lookup(name: &str) -> Option<Intrinsic> {
    let math = |op, single| Some(Intrinsic::Math(MathFn { op, single }));
    match name {
        "sqrt" => math(MathOp::Sqrt, false),
        "sqrtf" => math(MathOp::Sqrt, true),
        "rsqrt" => math(MathOp::Rsqrt, false),
        "rsqrtf" => math(MathOp::Rsqrt, true),
        "exp" => math(MathOp::Exp, false),
        "expf" => math(MathOp::Exp, true),
        "log" => math(MathOp::Log, false),
        "logf" => math(MathOp::Log, true),
        "pow" => math(MathOp::Pow, false),
        "powf" => math(MathOp::Pow, true),
        "sin" => math(MathOp::Sin, false),
        "sinf" => math(MathOp::Sin, true),
        "cos" => math(MathOp::Cos, false),
        "cosf" => math(MathOp::Cos, true),
        "tanh" => math(MathOp::Tanh, false),
        "tanhf" => math(MathOp::Tanh, true),
        "erf" => math(MathOp::Erf, false),
        "erff" => math(MathOp::Erf, true),
        "fabs" => math(MathOp::Fabs, false),
        "fabsf" => math(MathOp::Fabs, true),
        "fmin" => math(MathOp::Fmin, false),
        "fminf" => math(MathOp::Fmin, true),
        "fmax" => math(MathOp::Fmax, false),
        "fmaxf" => math(MathOp::Fmax, true),
        "floor" => math(MathOp::Floor, false),
        "ceil" => math(MathOp::Ceil, false),
        "alloc_double" => Some(Intrinsic::Alloc(Scalar::Double)),
        "alloc_float" => Some(Intrinsic::Alloc(Scalar::Float)),
        "alloc_int" => Some(Intrinsic::Alloc(Scalar::Int)),
        "fill_random" => Some(Intrinsic::FillRandom),
        "sink" => Some(Intrinsic::Sink),
        _ => None,
    }
}

/// The map from a double-precision math name to its single-precision
/// counterpart, used by the "Employ SP Math Fns" transform.
pub fn sp_variant(name: &str) -> Option<&'static str> {
    Some(match name {
        "sqrt" => "sqrtf",
        "rsqrt" => "rsqrtf",
        "exp" => "expf",
        "log" => "logf",
        "pow" => "powf",
        "sin" => "sinf",
        "cos" => "cosf",
        "tanh" => "tanhf",
        "erf" => "erff",
        "fabs" => "fabsf",
        "fmin" => "fminf",
        "fmax" => "fmaxf",
        _ => return None,
    })
}

/// SplitMix64: the deterministic generator behind `fill_random`.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform double in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_resolves_precision_variants() {
        let Some(Intrinsic::Math(f)) = lookup("sqrtf") else {
            panic!()
        };
        assert!(f.single);
        assert_eq!(f.op, MathOp::Sqrt);
        let Some(Intrinsic::Math(f)) = lookup("exp") else {
            panic!()
        };
        assert!(!f.single);
        assert!(lookup("not_a_fn").is_none());
    }

    #[test]
    fn sp_variant_is_total_over_math_names() {
        assert_eq!(sp_variant("sqrt"), Some("sqrtf"));
        assert_eq!(sp_variant("erf"), Some("erff"));
        assert_eq!(sp_variant("alloc_double"), None);
        // Every double-named math op maps to a name lookup() recognises.
        for name in [
            "sqrt", "exp", "log", "pow", "sin", "cos", "tanh", "erf", "fabs", "fmin", "fmax",
        ] {
            let sp = sp_variant(name).unwrap();
            assert!(lookup(sp).is_some(), "{sp} must be a known intrinsic");
        }
    }

    #[test]
    fn erf_matches_known_values() {
        assert!((erf_approx(0.0)).abs() < 1e-7);
        assert!((erf_approx(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf_approx(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf_approx(3.0) - 0.9999779095).abs() < 1e-6);
    }

    #[test]
    fn splitmix_is_deterministic_and_uniform_ish() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<f64> = (0..1000).map(|_| a.next_f64()).collect();
        let ys: Vec<f64> = (0..1000).map(|_| b.next_f64()).collect();
        assert_eq!(xs, ys);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} suspicious");
        assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn single_precision_math_really_is_f32() {
        let d = MathOp::Exp.eval_f64(1.0, 0.0);
        let s = MathOp::Exp.eval_f32(1.0, 0.0);
        assert_ne!(d, f64::from(s));
        assert!((d - f64::from(s)).abs() < 1e-6);
    }

    #[test]
    fn arity() {
        assert_eq!(MathOp::Pow.arity(), 2);
        assert_eq!(MathOp::Sqrt.arity(), 1);
        assert_eq!(MathOp::Fmin.arity(), 2);
    }
}
