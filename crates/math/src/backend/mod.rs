//! Runtime-dispatched SIMD backends for the hot kernels.
//!
//! This is the software analogue of CraterLake's vector-lane datapath: the
//! limb pool (`CL_THREADS`) parallelizes *across* residue polynomials, and
//! the backend selected here parallelizes *within* one — Harvey butterflies,
//! Shoup multiplies, Barrett products, automorphism gathers, the
//! residue-range scan and the base conversion all process 4 (AVX2) or 8
//! (AVX-512) residues per instruction.
//!
//! A backend is chosen once per process from `is_x86_feature_detected!`,
//! overridable with `CL_BACKEND=scalar|avx2|avx512` (tests can also switch
//! in-process via [`set_active_backend`]). Every backend is bit-exact: kernels with
//! canonical `[0, q)` outputs return identical words on all backends, and
//! lazy kernels obey the same `[0, 4q)` / `[0, 2q)` drift bounds the scalar
//! reference does, so the final correction sweeps land on identical words
//! too. Op-level telemetry (`cl-trace`) is recorded at the public entry
//! points, above the dispatch, so counts are backend-invariant by
//! construction.
//!
//! Layout: `scalar.rs` is the portable reference every backend must match;
//! `driver.rs` holds the one vector kernel source (slice kernels, the
//! residue-range scan, NTT passes, stage schedules, the base conversion),
//! which `avx2.rs` and `avx512.rs` instantiate at 4 and 8 lanes by
//! supplying their element primitives; this file selects the backend and
//! declares each dispatched kernel once (`kernels!`).

pub(crate) mod scalar;

#[cfg(target_arch = "x86_64")]
#[macro_use]
mod driver;

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512;

use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU8, Ordering};

use crate::Modulus;

/// The kernel implementations the dispatcher can route to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum BackendKind {
    /// Portable scalar reference kernels (always available).
    Scalar,
    /// 256-bit AVX2 kernels, 4 residues per instruction.
    Avx2,
    /// 512-bit AVX-512 (F+DQ+VL) kernels, 8 residues per instruction. For
    /// moduli below `2^50` on a CPU with `avx512ifma`, every multiply (NTT
    /// butterflies, Barrett and Shoup slice products) runs on the 52-bit
    /// IFMA multipliers; otherwise on emulated 64-bit products. Lazy
    /// results of the 52-bit products may be different representatives
    /// (same bound, same residue); canonical outputs are identical.
    Avx512,
}

impl BackendKind {
    /// Stable lowercase name, matching the `CL_BACKEND` values.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Avx2 => "avx2",
            BackendKind::Avx512 => "avx512",
        }
    }

    /// Parses a `CL_BACKEND` value.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "scalar" => Some(BackendKind::Scalar),
            "avx2" => Some(BackendKind::Avx2),
            "avx512" => Some(BackendKind::Avx512),
            _ => None,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            BackendKind::Scalar => 0,
            BackendKind::Avx2 => 1,
            BackendKind::Avx512 => 2,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            1 => BackendKind::Avx2,
            2 => BackendKind::Avx512,
            _ => BackendKind::Scalar,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Backends usable on this host, best-first. Always ends with `Scalar`.
pub fn supported_backends() -> Vec<BackendKind> {
    let mut v = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512dq")
            && is_x86_feature_detected!("avx512vl")
        {
            v.push(BackendKind::Avx512);
        }
        if is_x86_feature_detected!("avx2") {
            v.push(BackendKind::Avx2);
        }
    }
    v.push(BackendKind::Scalar);
    v
}

/// Host vector-ISA feature flags relevant to backend selection, for bench
/// metadata and diagnostics.
pub fn cpu_features() -> Vec<(&'static str, bool)> {
    #[cfg(target_arch = "x86_64")]
    {
        vec![
            ("avx2", is_x86_feature_detected!("avx2")),
            ("avx512f", is_x86_feature_detected!("avx512f")),
            ("avx512dq", is_x86_feature_detected!("avx512dq")),
            ("avx512vl", is_x86_feature_detected!("avx512vl")),
            ("avx512ifma", is_x86_feature_detected!("avx512ifma")),
        ]
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        vec![
            ("avx2", false),
            ("avx512f", false),
            ("avx512dq", false),
            ("avx512vl", false),
            ("avx512ifma", false),
        ]
    }
}

/// The most source or destination limbs one base conversion takes: the
/// kernels keep each limb's constants, and a block's `y_i`, in stack
/// arrays of this length, so a conversion allocates nothing but its
/// output.
pub(crate) const CRB_MAX_LIMBS: usize = 64;

/// Base conversion sums of at most this many terms (a rescale's `1 -> L`,
/// a Standard keyswitch's ModUp digit) take the Shoup-lazy sum on every
/// backend: with so few terms one wide reduction costs more than the lazy
/// products it saves.
pub(crate) const CRB_LAZY_TERMS: usize = 2;

const ACTIVE_UNSET: u8 = u8::MAX;
static ACTIVE: AtomicU8 = AtomicU8::new(ACTIVE_UNSET);

fn init_active() -> BackendKind {
    let supported = supported_backends();
    let chosen = match std::env::var("CL_BACKEND") {
        Ok(name) => match BackendKind::from_name(name.trim()) {
            Some(k) if supported.contains(&k) => k,
            Some(k) => {
                eprintln!(
                    "cl-math: CL_BACKEND={} not supported on this CPU; using {}",
                    k.name(),
                    supported[0].name()
                );
                supported[0]
            }
            None => {
                eprintln!(
                    "cl-math: unknown CL_BACKEND value {name:?} (expected scalar|avx2|avx512); \
                     using {}",
                    supported[0].name()
                );
                supported[0]
            }
        },
        Err(_) => supported[0],
    };
    // A racing initializer computes the same value; last store wins.
    ACTIVE.store(chosen.as_u8(), Ordering::Relaxed);
    chosen
}

/// The backend all dispatched kernels currently route to.
///
/// First call resolves `CL_BACKEND` (falling back to the best supported
/// backend); later calls are a single atomic load.
#[inline]
pub fn active_backend() -> BackendKind {
    let v = ACTIVE.load(Ordering::Relaxed);
    if v == ACTIVE_UNSET {
        init_active()
    } else {
        BackendKind::from_u8(v)
    }
}

/// Forces the dispatcher to `kind` for the rest of the process (or until the
/// next call). Intended for tests and benchmarks; returns `Err` with the
/// supported set if this host cannot run `kind`.
///
/// Because every backend is bit-exact, flipping the backend mid-run changes
/// performance only, never results — concurrent threads may observe either
/// backend during the switch and still compute identical values.
pub fn set_active_backend(kind: BackendKind) -> Result<(), Vec<BackendKind>> {
    let supported = supported_backends();
    if !supported.contains(&kind) {
        return Err(supported);
    }
    ACTIVE.store(kind.as_u8(), Ordering::Relaxed);
    Ok(())
}

// ---------------------------------------------------------------------------
// Dispatched kernels.
//
// `kernels!` is the one place a kernel's signature (return type included)
// and length preconditions are written. From each declaration it generates
// the dispatched wrapper — preconditions asserted once, then a route to the
// active backend, whose result it returns — and, for tests, a `forced::`
// twin that takes the backend (and optionally the portable products, see
// `Route`) explicitly and skips the preconditions (the vector kernels
// `debug_assert` them again, see `driver.rs`). The
// scalar implementations in `scalar.rs` are the semantic reference; the
// SAFETY obligation discharged at every `unsafe` call in `dispatch!` is
// "the required target features were runtime-detected",
// which `active_backend()` guarantees: Avx2/Avx512 are only ever stored
// after `supported_backends()` confirmed the features.
// ---------------------------------------------------------------------------

macro_rules! dispatch {
    ($backend_fn:ident($($arg:expr),*); $kind:expr) => {
        match $kind {
            BackendKind::Scalar => scalar::$backend_fn($($arg),*),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Avx2 is only active when runtime detection confirmed
            // the avx2 feature (see active_backend/set_active_backend).
            BackendKind::Avx2 => unsafe { avx2::$backend_fn($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Avx512 is only active when runtime detection confirmed
            // avx512f+dq+vl (see active_backend/set_active_backend).
            BackendKind::Avx512 => unsafe { avx512::$backend_fn($($arg),*) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => scalar::$backend_fn($($arg),*),
        }
    };
}

/// A test route through the dispatcher: a backend and, for vector backends
/// that list several products, whether every product kernel is pinned to
/// the last (portable) one — on an IFMA host the only way the 64-bit
/// AVX-512 products run for `q < 2^50`, as they always do on CPUs without
/// IFMA.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Route {
    pub(crate) kind: BackendKind,
    pub(crate) portable: bool,
}

#[cfg(test)]
impl From<BackendKind> for Route {
    fn from(kind: BackendKind) -> Self {
        Route { kind, portable: false }
    }
}

#[cfg(test)]
impl std::fmt::Display for Route {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.kind.name())?;
        if self.portable {
            f.write_str(" (portable products)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
thread_local! {
    static PORTABLE_ONLY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Holds `PORTABLE_ONLY` at one route's value for one `forced::` call and
/// restores the previous value on drop — also when the kernel panics, since
/// proptest catches the panic and keeps shrinking on the same thread.
#[cfg(test)]
struct PortableOnly(bool);

#[cfg(test)]
impl PortableOnly {
    fn set(portable: bool) -> Self {
        PortableOnly(PORTABLE_ONLY.replace(portable))
    }
}

#[cfg(test)]
impl Drop for PortableOnly {
    fn drop(&mut self) {
        PORTABLE_ONLY.set(self.0);
    }
}

/// Whether the vector product kernels must take their ISA's last (portable)
/// product even where an earlier one applies. Only a `forced::` twin sets
/// it, so outside tests this is the constant `false`.
#[inline(always)]
pub(crate) fn portable_products_only() -> bool {
    #[cfg(test)]
    {
        PORTABLE_ONLY.get()
    }
    #[cfg(not(test))]
    {
        false
    }
}

macro_rules! kernels {
    ($(
        $(#[$attr:meta])*
        fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $pre:block
    )*) => {
        $(
            $(#[$attr])*
            #[inline]
            pub(crate) fn $name($($arg: $ty),*) $(-> $ret)? {
                $pre
                dispatch!($name($($arg),*); active_backend())
            }
        )*

        /// Test-only dispatch with an explicit [`Route`], so differential
        /// tests can exercise every compiled backend and product without
        /// touching the process-wide choice. Callers must only pass routes
        /// from [`routes`] (or a bare kind from [`supported_backends`]) and
        /// arguments that meet the dispatched wrapper's preconditions.
        #[cfg(test)]
        pub(crate) mod forced {
            use super::*;

            $(
                $(#[$attr])*
                pub(crate) fn $name(route: impl Into<Route>, $($arg: $ty),*) $(-> $ret)? {
                    let route = route.into();
                    let _portable = PortableOnly::set(route.portable);
                    dispatch!($name($($arg),*); route.kind)
                }
            )*

            /// Every route a differential test should cover: each supported
            /// backend, and each one that lists more than one product once
            /// more pinned to its last (portable) product.
            pub(crate) fn routes() -> Vec<Route> {
                let mut v = Vec::new();
                for kind in supported_backends() {
                    v.push(Route::from(kind));
                    let products = match kind {
                        #[cfg(target_arch = "x86_64")]
                        BackendKind::Avx2 => avx2::PRODUCTS,
                        #[cfg(target_arch = "x86_64")]
                        BackendKind::Avx512 => avx512::PRODUCTS,
                        _ => 1,
                    };
                    if products > 1 {
                        v.push(Route { kind, portable: true });
                    }
                }
                v
            }
        }
    };
}

/// All operand slices of a kernel must agree in length.
macro_rules! same_len {
    ($a:expr, $($b:expr),+) => {
        $(assert_eq!($a.len(), $b.len(), "slice length mismatch");)+
    };
}

/// The gather kernels read `src[perm[i]]` unchecked on the vector backends.
/// Every permutation that reaches them belongs to an `AutomorphismTable`
/// (its values are a permutation of `0..perm.len()` by construction), so
/// `src` covering the table is exactly what keeps each index in range.
macro_rules! gather_in_range {
    ($src:expr, $perm:expr) => {
        assert_eq!($src.len(), $perm.len(), "gather source length mismatch");
    };
}

kernels! {
    /// `a[i] = (a[i] + b[i]) mod q`, canonical operands and output.
    fn add_mod_slice(m: &Modulus, a: &mut [u64], b: &[u64]) {
        same_len!(a, b);
    }

    /// `a[i] = (a[i] - b[i]) mod q`, canonical operands and output.
    fn sub_mod_slice(m: &Modulus, a: &mut [u64], b: &[u64]) {
        same_len!(a, b);
    }

    /// `a[i] = -a[i] mod q`, canonical operand and output.
    fn neg_mod_slice(m: &Modulus, a: &mut [u64]) {}

    /// `a[i] = a[i] * b[i] mod q` (variable × variable Barrett), canonical.
    fn mul_mod_slice(m: &Modulus, a: &mut [u64], b: &[u64]) {
        same_len!(a, b);
    }

    /// `acc[i] = (acc[i] + a[i] * b[i]) mod q`, canonical.
    fn mul_acc_mod_slice(m: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
        same_len!(acc, a, b);
    }

    /// `a[i] = a[i] * w mod q` for a fixed `w` with precomputed Shoup
    /// constant, canonical output. Every `a[i]` must be below `4q`
    /// (canonical or NTT-lazy): for `q < 2^50` that keeps it below the
    /// `2^52` the IFMA Shoup product accepts.
    fn mul_scalar_shoup_slice(m: &Modulus, a: &mut [u64], w: u64, w_shoup: u64) {}

    /// `a[i] = a[i] mod q` for arbitrary `u64` words — the seeded
    /// hint-expansion kernel (reduce a raw PRG word stream into residues).
    fn reduce_raw_slice(m: &Modulus, a: &mut [u64]) {}

    /// `out[i] = a[i] mod q` (the Euclidean residue) for signed words,
    /// canonical output — the encoder's reduction of rounded coefficients
    /// into each limb.
    fn reduce_signed_slice(m: &Modulus, a: &[i64], out: &mut [u64]) {
        same_len!(a, out);
    }

    /// `out[i] = src[perm[i]]` — the NTT-domain automorphism gather. `perm`
    /// must be an `AutomorphismTable` permutation.
    fn gather_slice(out: &mut [u64], src: &[u64], perm: &[u32]) {
        same_len!(out, perm);
        gather_in_range!(src, perm);
    }

    /// Fused automorphism + multiply-accumulate:
    /// `acc[i] = (acc[i] + src[perm[i]] * b[i]) mod q`, canonical. `perm`
    /// must be an `AutomorphismTable` permutation.
    fn gather_mul_acc_slice(m: &Modulus, acc: &mut [u64], src: &[u64], perm: &[u32], b: &[u64]) {
        same_len!(acc, perm, b);
        gather_in_range!(src, perm);
    }

    /// Paired fused automorphism + multiply-accumulate, sharing one gather:
    /// `acc0[i] += src[perm[i]] * b0[i]`, `acc1[i] += src[perm[i]] * b1[i]`,
    /// both mod q, canonical. `perm` must be an `AutomorphismTable`
    /// permutation.
    #[allow(clippy::too_many_arguments)]
    fn gather_mul_acc_pair_slice(
        m: &Modulus,
        acc0: &mut [u64],
        acc1: &mut [u64],
        src: &[u64],
        perm: &[u32],
        b0: &[u64],
        b1: &[u64],
    ) {
        same_len!(perm, acc0, acc1, b0, b1);
        gather_in_range!(src, perm);
    }

    /// The index of the first word of `x` at or above `bound`, if any — the
    /// residue-range scan (`bound = q`: the first non-canonical residue).
    fn first_at_or_above(x: &[u64], bound: u64) -> Option<usize> {}

    /// Forward lazy NTT pass over `a` using `table`, excluding telemetry
    /// (the caller records it and asserts `a.len() == table.n()`). Output
    /// canonical, bit-identical across backends.
    fn ntt_forward(table: &crate::NttTable, a: &mut [u64]) {}

    /// Inverse lazy NTT pass (including the `n^{-1}` sweep), telemetry and
    /// length assertion likewise with the caller.
    fn ntt_inverse(table: &crate::NttTable, a: &mut [u64]) {}

    /// Fast RNS base conversion, the CRB (see [`crate::BaseConvTable`]):
    /// `x` holds the table's source limbs limb-major, every word canonical
    /// for its modulus; every word of `out`, the destination limbs over the
    /// same coefficients, is written once, canonical, so identical on every
    /// backend.
    fn base_conv(t: &crate::BaseConvTable, x: &[u64], out: &mut [MaybeUninit<u64>], exact: bool) {
        let n = x.len() / t.src().len();
        assert_eq!(x.len(), n * t.src().len(), "source slab is not whole limbs");
        assert_eq!(out.len(), n * t.dst().len(), "output slab length mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for k in [BackendKind::Scalar, BackendKind::Avx2, BackendKind::Avx512] {
            assert_eq!(BackendKind::from_name(k.name()), Some(k));
        }
        assert_eq!(BackendKind::from_name("neon"), None);
    }

    #[test]
    fn supported_always_includes_scalar() {
        let s = supported_backends();
        assert_eq!(s.last(), Some(&BackendKind::Scalar));
        // Best-first ordering: the active default is the head.
        assert!(!s.is_empty());
    }

    /// The residue-range scan on every route against a plain `position`:
    /// every length through four vectors of the widest backend plus a
    /// three-word tail, and two ring degrees; one violation planted at
    /// every position, then two at once (the first must win); words at and
    /// around the bound and at the top of the word range; bounds at both
    /// ends of the range and on both sides of the sign bit, where AVX2's
    /// signed compare needs its bias.
    #[test]
    fn first_at_or_above_matches_position_on_every_route() {
        const WIDEST: usize = 8;
        // 35_184_371_613_697: the largest 45-bit prime q = 1 (mod 2^14),
        // the limb width every workload runs.
        let bounds = [0, 1, 35_184_371_613_697, 1 << 63, (1 << 63) + 1, u64::MAX];
        let planted = |bound: u64| [bound.wrapping_sub(1), bound, bound.wrapping_add(1), 1 << 63, u64::MAX];
        let pairs = bounds.len() * planted(0).len();
        let lengths = (0..=4 * WIDEST + 3).chain([1024, 8192]);
        let routes = forced::routes();
        let check = |x: &[u64], bound: u64| {
            let want = x.iter().position(|&w| w >= bound);
            for &route in &routes {
                let got = forced::first_at_or_above(route, x, bound);
                assert_eq!(got, want, "{route}, len {}, bound {bound:#x}", x.len());
            }
        };
        for len in lengths {
            // Short runs try every (bound, planted word) pair at every
            // position; the ring degrees cycle through the pairs, so each
            // position still sees one.
            let short = len <= 4 * WIDEST + 3;
            for (b, &bound) in bounds.iter().enumerate() {
                // Background words below the bound, its largest one among
                // them (none exist for bound 0, which every word meets).
                let below = |i: usize| match bound {
                    0 => 0,
                    _ if i.is_multiple_of(3) => bound - 1,
                    _ => (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) % bound,
                };
                let clean: Vec<u64> = (0..len).map(below).collect();
                check(&clean, bound);
                for (k, &word) in planted(bound).iter().enumerate() {
                    for p in 0..len {
                        if !short && (p + b * planted(0).len() + k) % pairs != 0 {
                            continue;
                        }
                        let mut x = clean.clone();
                        x[p] = word;
                        check(&x, bound);
                        let second = p + 1 + (len - p) / 2;
                        if second < len {
                            x[second] = bound;
                            check(&x, bound);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn set_active_rejects_unsupported_only() {
        let supported = supported_backends();
        for k in [BackendKind::Scalar, BackendKind::Avx2, BackendKind::Avx512] {
            let r = set_active_backend(k);
            assert_eq!(r.is_ok(), supported.contains(&k), "backend {k}");
        }
        // Restore the default for other tests in this process.
        set_active_backend(supported[0]).expect("default backend must be supported");
    }
}
