//! The one SIMD kernel source, instantiated once per vector ISA.
//!
//! CraterLake replicates one vector datapath across its lanes; this file is
//! the software counterpart: every slice kernel, the residue-range scan,
//! every vector-wide NTT pass and the greedy stage schedules of both
//! transforms, and the base conversion are written once, in terms of a
//! vector type, a lane count and a short list of element primitives, and
//! [`simd_driver!`] stamps that source into an ISA module (`avx2.rs`: 4
//! lanes, `avx512.rs`: 8 lanes). That is fifteen kernels: seven that
//! use no product (add, sub, neg, the raw and the signed reduction, the
//! gather and the scan), compiled with the module's own feature set, and the eight
//! product kernels below.
//!
//! It is a `macro_rules!` stamp rather than a trait-generic driver because
//! every function that touches an intrinsic must itself carry
//! `#[target_feature]`, and that attribute is per function, not per
//! monomorphization: a generic `fn pass<I: Isa>` has no way to be compiled
//! once with `avx2` and once with `avx512f` enabled. The macro takes the
//! feature string as a literal and repeats it on every function it emits.
//!
//! # What an ISA module supplies
//!
//! Macro arguments: the `target_feature` literal, the vector type, the lane
//! count, the unaligned load/store and 64-bit add/sub intrinsics, and the
//! list of canonical *products* (below). Items the driver calls by name,
//! each `#[target_feature]`-gated with the module's own feature set:
//!
//! | item | contract |
//! |---|---|
//! | `splat(u64) -> V` | broadcast |
//! | `mulhi64`, `mullo64` | halves of the unsigned 64×64 product |
//! | `Consts` (fields `q`, `two_q`), `consts(&Modulus)` | broadcast reduction constants |
//! | `csub_q(c, x)`, `csub_2q(c, x)` | one conditional subtract of `q` / `2q` |
//! | `ge_mask(v, bound) -> u32` | bit `l` set iff lane `l` of `v` is `>=` lane `l` of `bound` (unsigned) |
//! | `gather(src, perm, i) -> V` | `src[perm[i + l]]` per lane |
//! | `SmallIdx` (`Copy`), `small_idx(t)` | the lane shuffles of sub-vector NTT stride `t < LANES` |
//! | `sub_split(v0, v1, idx, w, sh, bits, k0)` | a `2 * LANES` run as its all-`x` and all-`y` vectors, plus their [`Tw`] twiddles from entry `k0`, companions in radix `2^bits` |
//! | `sub_knit(x, y, idx)` | the inverse shuffle of `sub_split` |
//! | `hps_alpha(ys, inv_q) -> [V; B]` | the exact base conversion's `floor(Σ_i y_i inv_q[i] + 1/2)` per lane for `B` vectors, in the scalar loop's `f64` operation order |
//!
//! A *product* is `{ feature, when, consts, mul, mul_acc, shoup_bits,
//! shoup_lazy }`, optionally followed by a wide sum `crb_fits, crb_mac,
//! crb_reduce`, usable for moduli where `when(&Modulus)` holds on a CPU
//! with `feature`: `mul(c, x, y)` is the canonical `x * y mod q` and
//! `mul_acc(c, s, x, y)` the canonical `s + x * y mod q` for canonical
//! lanes; `shoup_lazy(c, x, w, ws)` is a lazy Shoup product in `[0, 2q)` in
//! radix `2^shoup_bits` — `ws` is the scalar companion
//! ([`Modulus::shoup_precompute`]) shifted right by `64 - shoup_bits` —
//! for operands `x` below `2^shoup_bits`. The wide sum is the base
//! conversion's accumulator, `acc` a pair of vectors starting at zero:
//!
//! | item | contract |
//! |---|---|
//! | `crb_mac(c, acc, y, w, ws) -> acc` | adds `y * w` (`ws` the companion in radix `2^shoup_bits`) without reducing |
//! | `crb_reduce(c, acc, fold, one_sh) -> V` | the canonical residue mod `q` of the sum, reduced once with the radix-`2^52` fold constants of `BaseConvTable` |
//! | `crb_fits(bound, terms) -> bool` | whether sums of `terms` products totalling at most `bound` stay exact |
//!
//! The eight product kernels — five slice kernels, the two transforms and
//! the base conversion — try the list in order, taking the first whose
//! `when` holds and, for the Shoup slice kernel, the transforms (whose
//! butterfly operands stay below `4q`) and the base conversion, whose radix
//! covers the kernel's operand bound; the last entry must accept every
//! modulus ([`any_modulus`]) and every operand (`shoup_bits: 64`). A base
//! conversion whose product lists no wide sum, or whose sum `crb_fits`
//! rejects, or that has at most `CRB_LAZY_TERMS` terms, sums with
//! `shoup_lazy` in `[0, 2q)` instead. Each entry's loop is compiled with
//! that entry's feature set — for a transform or the base conversion, its
//! whole `body`: the Harvey butterflies, every pass that calls them and the
//! fused sub-vector stages, or the conversion's products, sums and
//! reductions — which is how the 52-bit IFMA products get inlined into
//! their loops without widening the feature set of the whole module. The ISA's helpers inline into any of these
//! bodies, whose feature sets contain the module's. The test-only
//! `forced::` twins can pin every call to the last entry, so the portable
//! products stay under test on CPUs where a faster one applies.
//!
//! A new width (NEON, a 256-bit IFMA variant) is a new module that supplies
//! this list and one `simd_driver!` invocation, plus its `BackendKind` arm in
//! `mod.rs`; nothing here changes.
//!
//! # Bounds
//!
//! All vector memory traffic goes through [`ld`]/[`st`], which
//! `debug_assert` that the `LANES` words they touch lie inside the slice
//! they are given; operands whose kernel contract bounds their values load
//! through [`ld_below`], which also checks each word against that bound;
//! and every kernel `debug_assert`s the operand-length and tile-shape
//! preconditions its loop relies on — so the debug-profile test
//! run checks every instantiation, including through the assert-free
//! `forced::` test entry points. Release builds rely on the assertions in
//! the dispatcher (`mod.rs`) and on the tile arithmetic documented at each
//! `SAFETY` comment.

macro_rules! simd_driver {
    (
        feature: $tf:literal,
        vector: $V:ty,
        lanes: $lanes:literal,
        load: $load:path,
        store: $store:path,
        add: $add:path,
        sub: $sub:path,
        products: [$({
            feature: $ptf:literal,
            when: $when:path,
            consts: $pconsts:path,
            mul: $mul:path,
            mul_acc: $mul_acc:path,
            shoup_bits: $sbits:literal,
            shoup_lazy: $shoup:path
            $(, crb_fits: $crb_fits:path, crb_mac: $crb_mac:path, crb_reduce: $crb_reduce:path)? $(,)?
        }),+ $(,)?] $(,)?
    ) => {
        const LANES: usize = $lanes;

        /// How many products the ISA lists.
        pub(crate) const PRODUCTS: usize = [$($sbits),+].len();

        /// An NTT twiddle per lane: the factor and its Shoup companion in
        /// the radix of the transform's product.
        #[derive(Clone, Copy)]
        struct Tw {
            w: $V,
            sh: $V,
        }

        /// Twiddle `k` broadcast, its companion taken into radix `2^bits`.
        #[inline]
        #[target_feature(enable = $tf)]
        fn load_tw(w: &[u64], sh: &[u64], bits: u32, k: usize) -> Tw {
            Tw {
                w: splat(w[k]),
                sh: splat(shoup_in_radix(bits, sh[k])),
            }
        }

        /// The `when` of a product that applies to every modulus.
        #[inline]
        fn any_modulus(_m: &Modulus) -> bool {
            true
        }

        /// Whether a product kernel takes the product `rank` entries before
        /// the end of the list (0: the last): it must `apply`, and only the
        /// last may serve a call the `forced::` twins pinned to it.
        #[inline]
        fn chosen(rank: usize, applies: bool) -> bool {
            applies && (rank == 0 || !super::portable_products_only())
        }

        /// Whether a Shoup product in radix `2^bits` accepts every operand
        /// below `bound`.
        #[inline]
        fn shoup_covers(bits: u32, bound: u64) -> bool {
            u128::from(bound) <= 1u128 << bits
        }

        /// The Shoup companion `floor(w * 2^bits / q)` of a radix-`2^bits`
        /// product, from the 64-bit one: dropping the low `64 - bits` bits of
        /// `floor(w * 2^64 / q)` is exact.
        #[inline]
        fn shoup_in_radix(bits: u32, w_shoup: u64) -> u64 {
            w_shoup >> (64 - bits)
        }

        /// Loads `s[i..i + LANES]`.
        ///
        /// # Safety
        ///
        /// `i + LANES <= s.len()`.
        #[inline]
        #[target_feature(enable = $tf)]
        unsafe fn ld(s: &[u64], i: usize) -> $V {
            debug_assert!(i + LANES <= s.len(), "vector load past the slice");
            // SAFETY: the caller guarantees LANES words from i are in bounds.
            unsafe { $load(s.as_ptr().add(i).cast()) }
        }

        /// Stores `v` to `s[i..i + LANES]`.
        ///
        /// # Safety
        ///
        /// `i + LANES <= s.len()`.
        #[inline]
        #[target_feature(enable = $tf)]
        unsafe fn st(s: &mut [u64], i: usize, v: $V) {
            debug_assert!(i + LANES <= s.len(), "vector store past the slice");
            // SAFETY: the caller guarantees LANES words from i are in bounds.
            unsafe { $store(s.as_mut_ptr().add(i).cast(), v) }
        }

        /// [`ld`] of an operand its kernel's contract bounds: debug builds
        /// also check every loaded word is below `bound`.
        ///
        /// # Safety
        ///
        /// As [`ld`].
        #[inline]
        #[target_feature(enable = $tf)]
        unsafe fn ld_below(s: &[u64], i: usize, bound: u64) -> $V {
            // SAFETY: forwarded from the caller.
            let v = unsafe { ld(s, i) };
            debug_assert!(s[i..i + LANES].iter().all(|&x| x < bound), "operand past the kernel's bound");
            v
        }

        /// `src[perm[i + l]]` for each lane `l`, with the index range
        /// checked in debug builds.
        ///
        /// # Safety
        ///
        /// `i + LANES <= perm.len()` and every one of those `LANES` indices
        /// is below `src.len()`.
        #[inline]
        #[target_feature(enable = $tf)]
        unsafe fn gather_checked(src: &[u64], perm: &[u32], i: usize) -> $V {
            debug_assert!(
                perm[i..i + LANES].iter().all(|&s| (s as usize) < src.len()),
                "gather index past the source"
            );
            // SAFETY: forwarded from the caller.
            unsafe { gather(src, perm, i) }
        }

        // -------------------------------------------------------------------
        // Slice kernels: the vector body over whole-LANES chunks, the scalar
        // reference (identical semantics) over the tail.
        // -------------------------------------------------------------------

        #[target_feature(enable = $tf)]
        pub(crate) fn add_mod_slice(m: &Modulus, a: &mut [u64], b: &[u64]) {
            debug_assert_eq!(a.len(), b.len());
            let c = consts(m);
            let n = a.len() - a.len() % LANES;
            for i in (0..n).step_by(LANES) {
                // SAFETY: i + LANES <= n <= a.len() == b.len().
                unsafe {
                    let r = csub_q(c, $add(ld(a, i), ld(b, i)));
                    st(a, i, r);
                }
            }
            scalar::add_mod_slice(m, &mut a[n..], &b[n..]);
        }

        #[target_feature(enable = $tf)]
        pub(crate) fn sub_mod_slice(m: &Modulus, a: &mut [u64], b: &[u64]) {
            debug_assert_eq!(a.len(), b.len());
            let c = consts(m);
            let n = a.len() - a.len() % LANES;
            for i in (0..n).step_by(LANES) {
                // SAFETY: i + LANES <= n <= a.len() == b.len().
                unsafe {
                    // x + q - y is in (0, 2q); one conditional subtract
                    // canonicalizes.
                    let r = $sub($add(ld(a, i), c.q), ld(b, i));
                    st(a, i, csub_q(c, r));
                }
            }
            scalar::sub_mod_slice(m, &mut a[n..], &b[n..]);
        }

        #[target_feature(enable = $tf)]
        pub(crate) fn neg_mod_slice(m: &Modulus, a: &mut [u64]) {
            let c = consts(m);
            let n = a.len() - a.len() % LANES;
            for i in (0..n).step_by(LANES) {
                // SAFETY: i + LANES <= n <= a.len().
                unsafe {
                    // q - x is in (0, q]; the conditional subtract maps q
                    // (x = 0) to 0.
                    let r = csub_q(c, $sub(c.q, ld(a, i)));
                    st(a, i, r);
                }
            }
            scalar::neg_mod_slice(m, &mut a[n..]);
        }

        /// Reduces arbitrary `u64` words into canonical `[0, q)`.
        ///
        /// Quotient estimate with `minv = floor(2^64 / q)`:
        /// `qhat = mulhi64(x, minv)` underestimates `floor(x/q)` by at most
        /// 1 (the discarded term `x * (2^64 mod q) / (q * 2^64)` is below
        /// 1), so `x - qhat*q < 2q` and one conditional subtract
        /// canonicalizes. The word-sized `barrett_mu` constant cannot be
        /// used here: it only bounds inputs below `2^{2k}`, which is less
        /// than `2^64` for small moduli.
        #[target_feature(enable = $tf)]
        pub(crate) fn reduce_raw_slice(m: &Modulus, a: &mut [u64]) {
            let c = consts(m);
            let minv = splat(((1u128 << 64) / m.value() as u128) as u64);
            let n = a.len() - a.len() % LANES;
            for i in (0..n).step_by(LANES) {
                // SAFETY: i + LANES <= n <= a.len().
                unsafe {
                    let x = ld(a, i);
                    let r = $sub(x, mullo64(mulhi64(x, minv), c.q));
                    st(a, i, csub_q(c, r));
                }
            }
            scalar::reduce_raw_slice(m, &mut a[n..]);
        }

        /// Reduces signed words into canonical `[0, q)`: `out[i]` is the
        /// Euclidean residue of `a[i]`.
        ///
        /// Each word is biased into the unsigned range, `x + 2^63` (exact
        /// for every `i64`), reduced as in [`reduce_raw_slice`] to `r`, and
        /// the bias taken back off: `x = r - (2^63 mod q) (mod q)`, so
        /// `r + (q - 2^63 mod q)` lies in `(0, 2q)` and one conditional
        /// subtract canonicalizes. No lane needs its sign.
        #[target_feature(enable = $tf)]
        pub(crate) fn reduce_signed_slice(m: &Modulus, a: &[i64], out: &mut [u64]) {
            debug_assert_eq!(a.len(), out.len());
            // SAFETY: `i64` and `u64` have the same size and alignment, and
            // every bit pattern is a valid value of both.
            let words: &[u64] = unsafe { ::core::slice::from_raw_parts(a.as_ptr().cast(), a.len()) };
            let c = consts(m);
            let q = m.value();
            let minv = splat(((1u128 << 64) / q as u128) as u64);
            let bias = splat(1 << 63);
            let unbias = splat(q - (1u64 << 63) % q);
            let n = a.len() - a.len() % LANES;
            for i in (0..n).step_by(LANES) {
                // SAFETY: i + LANES <= n <= words.len() == out.len().
                unsafe {
                    let x = $add(ld(words, i), bias);
                    let r = csub_q(c, $sub(x, mullo64(mulhi64(x, minv), c.q)));
                    st(out, i, csub_q(c, $add(r, unbias)));
                }
            }
            scalar::reduce_signed_slice(m, &a[n..], &mut out[n..]);
        }

        #[target_feature(enable = $tf)]
        pub(crate) fn gather_slice(out: &mut [u64], src: &[u64], perm: &[u32]) {
            debug_assert_eq!(out.len(), perm.len());
            let n = out.len() - out.len() % LANES;
            for i in (0..n).step_by(LANES) {
                // SAFETY: i + LANES <= n <= out.len() == perm.len(); perm is
                // an AutomorphismTable permutation of 0..perm.len() and the
                // dispatcher asserted src.len() == perm.len().
                unsafe { st(out, i, gather_checked(src, perm, i)) };
            }
            scalar::gather_slice(&mut out[n..], src, &perm[n..]);
        }

        /// The index of the first word of `x` at or above `bound`: the
        /// residue-range scan. Blocks of four vectors are compared whole
        /// and their lane masks ORed, so a block in range costs four
        /// compares and one test; only the failing block runs the
        /// trailing-zero count that places the word.
        #[target_feature(enable = $tf)]
        pub(crate) fn first_at_or_above(x: &[u64], bound: u64) -> Option<usize> {
            const BLOCK: usize = 4 * LANES;
            let b = splat(bound);
            let n = x.len() - x.len() % BLOCK;
            for i in (0..n).step_by(BLOCK) {
                // SAFETY: i + 4*LANES <= n <= x.len().
                let mask = unsafe {
                    ge_mask(ld(x, i), b)
                        | ge_mask(ld(x, i + LANES), b) << LANES
                        | ge_mask(ld(x, i + 2 * LANES), b) << (2 * LANES)
                        | ge_mask(ld(x, i + 3 * LANES), b) << (3 * LANES)
                };
                if mask != 0 {
                    return Some(i + mask.trailing_zeros() as usize);
                }
            }
            scalar::first_at_or_above(&x[n..], bound).map(|j| n + j)
        }

        // The five product slice kernels (the transforms and the base
        // conversion below are the other three). Each tries the ISA's products in order (`chosen`,
        // counting `rank` down to the last entry) and runs its one loop
        // compiled with the chosen product's feature set. `body` is an
        // `unsafe fn` whose one requirement is that the CPU has that feature
        // set: `when` detects whatever it adds to the module's own.

        #[target_feature(enable = $tf)]
        pub(crate) fn mul_mod_slice(m: &Modulus, a: &mut [u64], b: &[u64]) {
            debug_assert_eq!(a.len(), b.len());
            let mut rank = PRODUCTS;
            $(rank -= 1; if chosen(rank, $when(m)) {
                #[target_feature(enable = $ptf)]
                unsafe fn body(m: &Modulus, a: &mut [u64], b: &[u64]) {
                    let c = $pconsts(m);
                    let n = a.len() - a.len() % LANES;
                    for i in (0..n).step_by(LANES) {
                        // SAFETY: i + LANES <= n <= a.len() == b.len().
                        unsafe {
                            let r = $mul(c, ld(a, i), ld(b, i));
                            st(a, i, r);
                        }
                    }
                    scalar::mul_mod_slice(m, &mut a[n..], &b[n..]);
                }
                // SAFETY: `when` runtime-detected what this product's
                // feature set adds to the module's.
                return unsafe { body(m, a, b) };
            })+
            unreachable!("the last product accepts every modulus");
        }

        #[target_feature(enable = $tf)]
        pub(crate) fn mul_acc_mod_slice(m: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
            debug_assert!(acc.len() == a.len() && acc.len() == b.len());
            let mut rank = PRODUCTS;
            $(rank -= 1; if chosen(rank, $when(m)) {
                #[target_feature(enable = $ptf)]
                unsafe fn body(m: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
                    let c = $pconsts(m);
                    let n = acc.len() - acc.len() % LANES;
                    for i in (0..n).step_by(LANES) {
                        // SAFETY: i + LANES <= n and all three slices have
                        // equal length.
                        unsafe {
                            let r = $mul_acc(c, ld(acc, i), ld(a, i), ld(b, i));
                            st(acc, i, r);
                        }
                    }
                    scalar::mul_acc_mod_slice(m, &mut acc[n..], &a[n..], &b[n..]);
                }
                // SAFETY: as mul_mod_slice.
                return unsafe { body(m, acc, a, b) };
            })+
            unreachable!("the last product accepts every modulus");
        }

        #[allow(clippy::too_many_arguments)]
        #[target_feature(enable = $tf)]
        pub(crate) fn gather_mul_acc_pair_slice(
            m: &Modulus,
            acc0: &mut [u64],
            acc1: &mut [u64],
            src: &[u64],
            perm: &[u32],
            b0: &[u64],
            b1: &[u64],
        ) {
            debug_assert!(acc0.len() == perm.len() && acc1.len() == perm.len());
            debug_assert!(b0.len() == perm.len() && b1.len() == perm.len());
            let mut rank = PRODUCTS;
            $(rank -= 1; if chosen(rank, $when(m)) {
                #[allow(clippy::too_many_arguments)]
                #[target_feature(enable = $ptf)]
                unsafe fn body(
                    m: &Modulus,
                    acc0: &mut [u64],
                    acc1: &mut [u64],
                    src: &[u64],
                    perm: &[u32],
                    b0: &[u64],
                    b1: &[u64],
                ) {
                    let c = $pconsts(m);
                    let n = acc0.len() - acc0.len() % LANES;
                    for i in (0..n).step_by(LANES) {
                        // SAFETY: i + LANES <= n and all five slices have
                        // equal length; perm indexes src as in gather_slice.
                        unsafe {
                            let v = gather_checked(src, perm, i);
                            let r0 = $mul_acc(c, ld(acc0, i), v, ld(b0, i));
                            let r1 = $mul_acc(c, ld(acc1, i), v, ld(b1, i));
                            st(acc0, i, r0);
                            st(acc1, i, r1);
                        }
                    }
                    scalar::gather_mul_acc_pair_slice(
                        m,
                        &mut acc0[n..],
                        &mut acc1[n..],
                        src,
                        &perm[n..],
                        &b0[n..],
                        &b1[n..],
                    );
                }
                // SAFETY: as mul_mod_slice.
                return unsafe { body(m, acc0, acc1, src, perm, b0, b1) };
            })+
            unreachable!("the last product accepts every modulus");
        }

        /// Operands below `4q`; canonical output.
        #[target_feature(enable = $tf)]
        pub(crate) fn mul_scalar_shoup_slice(m: &Modulus, a: &mut [u64], w: u64, w_shoup: u64) {
            let bound = 4 * m.value();
            let mut rank = PRODUCTS;
            $(rank -= 1; if chosen(rank, $when(m) && shoup_covers($sbits, bound)) {
                #[target_feature(enable = $ptf)]
                unsafe fn body(m: &Modulus, a: &mut [u64], w: u64, w_shoup: u64, bound: u64) {
                    let (c, pc) = (consts(m), $pconsts(m));
                    let (wv, wsv) = (splat(w), splat(shoup_in_radix($sbits, w_shoup)));
                    let n = a.len() - a.len() % LANES;
                    for i in (0..n).step_by(LANES) {
                        // SAFETY: i + LANES <= n <= a.len().
                        unsafe {
                            let r = csub_q(c, $shoup(pc, ld_below(a, i, bound), wv, wsv));
                            st(a, i, r);
                        }
                    }
                    scalar::mul_scalar_shoup_slice(m, &mut a[n..], w, w_shoup);
                }
                // SAFETY: as mul_mod_slice.
                return unsafe { body(m, a, w, w_shoup, bound) };
            })+
            unreachable!("the last product accepts every modulus");
        }

        // -------------------------------------------------------------------
        // NTT: the sixth and seventh product kernels. Each transform picks
        // its product like the Shoup slice kernel (butterfly operands stay
        // below 4q) and runs one `body` compiled with that product's feature
        // set. The Harvey butterflies are closures over the product's
        // `$shoup`, and every pass that calls them is stamped inside the
        // body, so no butterfly is an out-of-line call.
        // -------------------------------------------------------------------

        /// How many stages have a stride below `LANES`: the ones the ISA's
        /// `sub_split` / `sub_knit` shuffle in-register.
        const SUB_STAGES: usize = LANES.trailing_zeros() as usize;

        /// The shuffles of the sub-vector strides `LANES/2, ..., 2, 1`, in
        /// that order.
        #[inline]
        #[target_feature(enable = $tf)]
        fn sub_stages() -> [SmallIdx; SUB_STAGES] {
            let mut idx = [small_idx(1); SUB_STAGES];
            for (s, i) in idx.iter_mut().enumerate() {
                *i = small_idx(LANES >> (s + 1));
            }
            idx
        }

        /// Forward lazy NTT as a greedy multi-stage descent: each pass over
        /// the array retires up to three vector-wide stages (all tiles of
        /// one pass complete their stage group before the next pass
        /// starts), and the stages with stride `<= LANES` plus the canonical
        /// correction run in the fused `fwd_tail`. At 8 lanes and n = 8192
        /// that is four memory round trips for all 13 stages. Multi-stage
        /// tiles double as cache blocks, so no separate strided/blocked
        /// split is needed.
        #[target_feature(enable = $tf)]
        pub(crate) fn ntt_forward(table: &NttTable, a: &mut [u64]) {
            let n = table.n();
            if n < 2 * LANES {
                return scalar::ntt_forward(table, a);
            }
            debug_assert!(n.is_power_of_two() && a.len() == n);
            let m = table.modulus();
            let mut rank = PRODUCTS;
            $(rank -= 1; if chosen(rank, $when(m) && shoup_covers($sbits, 4 * m.value())) {
                #[target_feature(enable = $ptf)]
                unsafe fn body(table: &NttTable, a: &mut [u64]) {
                    let (n, m) = (table.n(), table.modulus());
                    let (c, pc) = (consts(m), $pconsts(m));
                    let (w, sh) = (table.root_pows(), table.root_pows_shoup());
                    debug_assert!(w.len() == n && sh.len() == n);
                    let tw = |k: usize| load_tw(w, sh, $sbits, k);
                    // Harvey (CT/DIT) butterfly: x, y in [0, 4q); x reduced
                    // to [0, 2q) plus or minus the twiddle product v in
                    // [0, 2q), so both outputs stay below 4q.
                    let bf = move |x: $V, y: $V, t: Tw| {
                        let xr = csub_2q(c, x);
                        let v = $shoup(pc, y, t.w, t.sh);
                        ($add(xr, v), $sub($add(xr, c.two_q), v))
                    };

                    /// One butterfly group with stride `x.len() >= LANES`:
                    /// `x`/`y` are the group's two halves, single twiddle.
                    ///
                    /// # Safety
                    ///
                    /// `x.len() == y.len()`, a multiple of `LANES`.
                    #[target_feature(enable = $ptf)]
                    unsafe fn fwd_pass_large(bf: impl Fn($V, $V, Tw) -> ($V, $V), x: &mut [u64], y: &mut [u64], wt: Tw) {
                        debug_assert!(x.len() == y.len() && x.len().is_multiple_of(LANES));
                        for j in (0..x.len()).step_by(LANES) {
                            // SAFETY: j + LANES <= x.len() == y.len().
                            unsafe {
                                let (nx, ny) = bf(ld(x, j), ld(y, j), wt);
                                st(x, j, nx);
                                st(y, j, ny);
                            }
                        }
                    }

                    /// Two fused stages over one stage-A group (`tile`, four
                    /// quarters of `e` elements held in registers): stage A
                    /// pairs quarters `(0,2)`/`(1,3)` at stride `2e`, stage B
                    /// finishes both halves at stride `e` — half the
                    /// loads/stores of two separate passes.
                    ///
                    /// # Safety
                    ///
                    /// `tile.len()` is a multiple of `4 * LANES`.
                    #[target_feature(enable = $ptf)]
                    unsafe fn fwd_pass_large2(bf: impl Fn($V, $V, Tw) -> ($V, $V), tile: &mut [u64], wa: Tw, wb0: Tw, wb1: Tw) {
                        let e = tile.len() / 4;
                        debug_assert!(tile.len() == 4 * e && e.is_multiple_of(LANES));
                        for j in (0..e).step_by(LANES) {
                            // SAFETY: j + 3e + LANES <= 4e; four disjoint
                            // in-bounds quarters.
                            unsafe {
                                let mut v0 = ld(tile, j);
                                let mut v1 = ld(tile, j + e);
                                let mut v2 = ld(tile, j + 2 * e);
                                let mut v3 = ld(tile, j + 3 * e);
                                (v0, v2) = bf(v0, v2, wa);
                                (v1, v3) = bf(v1, v3, wa);
                                (v0, v1) = bf(v0, v1, wb0);
                                (v2, v3) = bf(v2, v3, wb1);
                                st(tile, j, v0);
                                st(tile, j + e, v1);
                                st(tile, j + 2 * e, v2);
                                st(tile, j + 3 * e, v3);
                            }
                        }
                    }

                    /// Three fused stages over one stage-A group (`tile`,
                    /// eight octants of `e` elements): stage A at stride
                    /// `4e`, stage B at `2e`, stage C at `e`, all on eight
                    /// vectors held in registers.
                    ///
                    /// # Safety
                    ///
                    /// `tile.len()` is a multiple of `8 * LANES`.
                    #[allow(clippy::too_many_arguments)]
                    #[target_feature(enable = $ptf)]
                    unsafe fn fwd_pass_large3(
                        bf: impl Fn($V, $V, Tw) -> ($V, $V),
                        tile: &mut [u64],
                        wa: Tw,
                        wb0: Tw,
                        wb1: Tw,
                        wc0: Tw,
                        wc1: Tw,
                        wc2: Tw,
                        wc3: Tw,
                    ) {
                        let e = tile.len() / 8;
                        debug_assert!(tile.len() == 8 * e && e.is_multiple_of(LANES));
                        for j in (0..e).step_by(LANES) {
                            // SAFETY: j + 7e + LANES <= 8e; eight disjoint
                            // in-bounds octants.
                            unsafe {
                                let mut v0 = ld(tile, j);
                                let mut v1 = ld(tile, j + e);
                                let mut v2 = ld(tile, j + 2 * e);
                                let mut v3 = ld(tile, j + 3 * e);
                                let mut v4 = ld(tile, j + 4 * e);
                                let mut v5 = ld(tile, j + 5 * e);
                                let mut v6 = ld(tile, j + 6 * e);
                                let mut v7 = ld(tile, j + 7 * e);
                                (v0, v4) = bf(v0, v4, wa);
                                (v1, v5) = bf(v1, v5, wa);
                                (v2, v6) = bf(v2, v6, wa);
                                (v3, v7) = bf(v3, v7, wa);
                                (v0, v2) = bf(v0, v2, wb0);
                                (v1, v3) = bf(v1, v3, wb0);
                                (v4, v6) = bf(v4, v6, wb1);
                                (v5, v7) = bf(v5, v7, wb1);
                                (v0, v1) = bf(v0, v1, wc0);
                                (v2, v3) = bf(v2, v3, wc1);
                                (v4, v5) = bf(v4, v5, wc2);
                                (v6, v7) = bf(v6, v7, wc3);
                                st(tile, j, v0);
                                st(tile, j + e, v1);
                                st(tile, j + 2 * e, v2);
                                st(tile, j + 3 * e, v3);
                                st(tile, j + 4 * e, v4);
                                st(tile, j + 5 * e, v5);
                                st(tile, j + 6 * e, v6);
                                st(tile, j + 7 * e, v7);
                            }
                        }
                    }

                    /// Every stage with stride `<= LANES` plus the canonical
                    /// correction, in one load/store round trip per
                    /// `2 * LANES`-element run: the stride-`LANES` stage on
                    /// whole vectors with a broadcast twiddle, then each
                    /// sub-vector stride `t` shuffled in-register. Stride `t`
                    /// has twiddle base `n / (2t)` and `LANES / t` groups per
                    /// run; `llen = n / (2 * LANES)`.
                    #[target_feature(enable = $ptf)]
                    fn fwd_tail(bf: impl Fn($V, $V, Tw) -> ($V, $V), c: Consts, a: &mut [u64], w: &[u64], sh: &[u64], llen: usize) {
                        debug_assert!(a.len() == 2 * LANES * llen && w.len() == a.len() && sh.len() == a.len());
                        let idx = sub_stages();
                        for r in 0..llen {
                            let j = 2 * LANES * r;
                            // SAFETY: j + 2*LANES <= a.len(); every twiddle
                            // load ends within the n-entry tables (the
                            // deepest stage's last load ends exactly at
                            // entry n - 1).
                            unsafe {
                                let (mut v0, mut v1) = (ld(a, j), ld(a, j + LANES));
                                (v0, v1) = bf(v0, v1, load_tw(w, sh, $sbits, llen + r));
                                for (s, ix) in idx.iter().enumerate() {
                                    let groups = 2 << s;
                                    let (x, y, t) = sub_split(v0, v1, ix, w, sh, $sbits, groups * (llen + r));
                                    let (mut nx, mut ny) = bf(x, y, t);
                                    if s + 1 == SUB_STAGES {
                                        // The global last stage: reduce
                                        // [0, 4q) to canonical.
                                        (nx, ny) = (csub_q(c, csub_2q(c, nx)), csub_q(c, csub_2q(c, ny)));
                                    }
                                    (v0, v1) = sub_knit(nx, ny, ix);
                                }
                                st(a, j, v0);
                                st(a, j + LANES, v1);
                            }
                        }
                    }

                    // Stage at stride lt has llen groups (tiles) of 2*lt
                    // elements; stage level llen is also its twiddle-table
                    // base. With m = log2(lt / LANES), triples run while
                    // m >= 3, a pair handles m == 2, a single m == 1, so the
                    // descent always lands on lt == LANES for the fused
                    // tail.
                    let mut lt = n >> 1;
                    let mut llen = 1usize;
                    while lt > LANES {
                        debug_assert_eq!(2 * lt * llen, n);
                        let tiles = a.chunks_exact_mut(2 * lt).enumerate();
                        if lt >= 8 * LANES {
                            // Triple: stages at strides lt, lt/2, lt/4.
                            // Stage-B twiddles 2g, 2g+1 and stage-C
                            // twiddles 4g..4g+3 of the next levels.
                            for (g, tile) in tiles {
                                let (wb, wc) = (2 * llen + 2 * g, 4 * llen + 4 * g);
                                // SAFETY: tile.len() == 2*lt, a multiple of
                                // 16*LANES.
                                unsafe {
                                    fwd_pass_large3(
                                        bf,
                                        tile,
                                        tw(llen + g),
                                        tw(wb),
                                        tw(wb + 1),
                                        tw(wc),
                                        tw(wc + 1),
                                        tw(wc + 2),
                                        tw(wc + 3),
                                    )
                                };
                            }
                            llen <<= 3;
                            lt >>= 3;
                        } else if lt >= 4 * LANES {
                            // Pair: stages at strides lt and lt/2.
                            for (g, tile) in tiles {
                                let wb = 2 * llen + 2 * g;
                                // SAFETY: tile.len() == 2*lt == 8*LANES.
                                unsafe { fwd_pass_large2(bf, tile, tw(llen + g), tw(wb), tw(wb + 1)) };
                            }
                            llen <<= 2;
                            lt >>= 2;
                        } else {
                            for (g, tile) in tiles {
                                let (x, y) = tile.split_at_mut(lt);
                                // SAFETY: both halves have lt == 2*LANES
                                // elements.
                                unsafe { fwd_pass_large(bf, x, y, tw(llen + g)) };
                            }
                            llen <<= 1;
                            lt >>= 1;
                        }
                    }
                    // The stride-LANES stage (twiddle base
                    // llen = n / (2*LANES)) and every sub-vector stage below
                    // it, plus the canonical correction, in one pass.
                    debug_assert_eq!(lt, LANES);
                    fwd_tail(bf, c, a, w, sh, llen);
                }
                // SAFETY: as mul_mod_slice.
                return unsafe { body(table, a) };
            })+
            unreachable!("the last product accepts every modulus");
        }

        /// Inverse lazy NTT, mirror of [`ntt_forward`]: the fused `inv_head`
        /// opens with the stages of stride `<= LANES`, a greedy multi-stage
        /// ascent retires up to three vector-wide stages per pass, and the
        /// final stride-`n/2` stage is fused with the `n^{-1}` sweep and
        /// canonicalization.
        #[target_feature(enable = $tf)]
        pub(crate) fn ntt_inverse(table: &NttTable, a: &mut [u64]) {
            let n = table.n();
            if n < 2 * LANES {
                return scalar::ntt_inverse(table, a);
            }
            debug_assert!(n.is_power_of_two() && a.len() == n);
            let m = table.modulus();
            let mut rank = PRODUCTS;
            $(rank -= 1; if chosen(rank, $when(m) && shoup_covers($sbits, 4 * m.value())) {
                #[target_feature(enable = $ptf)]
                unsafe fn body(table: &NttTable, a: &mut [u64]) {
                    let (n, m) = (table.n(), table.modulus());
                    let (c, pc) = (consts(m), $pconsts(m));
                    let (w, sh) = (table.inv_root_pows(), table.inv_root_pows_shoup());
                    debug_assert!(w.len() == n && sh.len() == n);
                    let tw = |k: usize| load_tw(w, sh, $sbits, k);
                    // Harvey (GS/DIF) butterfly: u, v in [0, 2q); returns
                    // the reduced sum and the twiddle product of the lifted
                    // difference u + 2q - v < 4q, both in [0, 2q).
                    let bf = move |u: $V, v: $V, t: Tw| {
                        let s = csub_2q(c, $add(u, v));
                        let d = $sub($add(u, c.two_q), v);
                        (s, $shoup(pc, d, t.w, t.sh))
                    };

                    /// # Safety
                    ///
                    /// As `fwd_pass_large`.
                    #[target_feature(enable = $ptf)]
                    unsafe fn inv_pass_large(bf: impl Fn($V, $V, Tw) -> ($V, $V), x: &mut [u64], y: &mut [u64], wt: Tw) {
                        debug_assert!(x.len() == y.len() && x.len().is_multiple_of(LANES));
                        for j in (0..x.len()).step_by(LANES) {
                            // SAFETY: j + LANES <= x.len() == y.len().
                            unsafe {
                                let (nx, ny) = bf(ld(x, j), ld(y, j), wt);
                                st(x, j, nx);
                                st(y, j, ny);
                            }
                        }
                    }

                    /// Two fused stages over one stage-B group (`tile`, four
                    /// quarters of `e` elements): stage A pairs quarters
                    /// `(0,1)`/`(2,3)` at stride `e`, stage B pairs
                    /// `(0,2)`/`(1,3)` at stride `2e`.
                    ///
                    /// # Safety
                    ///
                    /// As `fwd_pass_large2`.
                    #[target_feature(enable = $ptf)]
                    unsafe fn inv_pass_large2(bf: impl Fn($V, $V, Tw) -> ($V, $V), tile: &mut [u64], wa0: Tw, wa1: Tw, wb: Tw) {
                        let e = tile.len() / 4;
                        debug_assert!(tile.len() == 4 * e && e.is_multiple_of(LANES));
                        for j in (0..e).step_by(LANES) {
                            // SAFETY: j + 3e + LANES <= 4e; four disjoint
                            // in-bounds quarters.
                            unsafe {
                                let mut v0 = ld(tile, j);
                                let mut v1 = ld(tile, j + e);
                                let mut v2 = ld(tile, j + 2 * e);
                                let mut v3 = ld(tile, j + 3 * e);
                                (v0, v1) = bf(v0, v1, wa0);
                                (v2, v3) = bf(v2, v3, wa1);
                                (v0, v2) = bf(v0, v2, wb);
                                (v1, v3) = bf(v1, v3, wb);
                                st(tile, j, v0);
                                st(tile, j + e, v1);
                                st(tile, j + 2 * e, v2);
                                st(tile, j + 3 * e, v3);
                            }
                        }
                    }

                    /// Three fused stages over one stage-C group (`tile`,
                    /// eight octants of `e` elements): stage A at stride `e`,
                    /// stage B at `2e`, stage C at `4e`; mirror of
                    /// `fwd_pass_large3`.
                    ///
                    /// # Safety
                    ///
                    /// As `fwd_pass_large3`.
                    #[allow(clippy::too_many_arguments)]
                    #[target_feature(enable = $ptf)]
                    unsafe fn inv_pass_large3(
                        bf: impl Fn($V, $V, Tw) -> ($V, $V),
                        tile: &mut [u64],
                        wa0: Tw,
                        wa1: Tw,
                        wa2: Tw,
                        wa3: Tw,
                        wb0: Tw,
                        wb1: Tw,
                        wc: Tw,
                    ) {
                        let e = tile.len() / 8;
                        debug_assert!(tile.len() == 8 * e && e.is_multiple_of(LANES));
                        for j in (0..e).step_by(LANES) {
                            // SAFETY: j + 7e + LANES <= 8e; eight disjoint
                            // in-bounds octants.
                            unsafe {
                                let mut v0 = ld(tile, j);
                                let mut v1 = ld(tile, j + e);
                                let mut v2 = ld(tile, j + 2 * e);
                                let mut v3 = ld(tile, j + 3 * e);
                                let mut v4 = ld(tile, j + 4 * e);
                                let mut v5 = ld(tile, j + 5 * e);
                                let mut v6 = ld(tile, j + 6 * e);
                                let mut v7 = ld(tile, j + 7 * e);
                                (v0, v1) = bf(v0, v1, wa0);
                                (v2, v3) = bf(v2, v3, wa1);
                                (v4, v5) = bf(v4, v5, wa2);
                                (v6, v7) = bf(v6, v7, wa3);
                                (v0, v2) = bf(v0, v2, wb0);
                                (v1, v3) = bf(v1, v3, wb0);
                                (v4, v6) = bf(v4, v6, wb1);
                                (v5, v7) = bf(v5, v7, wb1);
                                (v0, v4) = bf(v0, v4, wc);
                                (v1, v5) = bf(v1, v5, wc);
                                (v2, v6) = bf(v2, v6, wc);
                                (v3, v7) = bf(v3, v7, wc);
                                st(tile, j, v0);
                                st(tile, j + e, v1);
                                st(tile, j + 2 * e, v2);
                                st(tile, j + 3 * e, v3);
                                st(tile, j + 4 * e, v4);
                                st(tile, j + 5 * e, v5);
                                st(tile, j + 6 * e, v6);
                                st(tile, j + 7 * e, v7);
                            }
                        }
                    }

                    /// The stages of stride `1, 2, ..., LANES/2` and, with
                    /// `with_top`, `LANES`, in one round trip per
                    /// `2 * LANES`-element run; mirror of `fwd_tail`.
                    #[target_feature(enable = $ptf)]
                    fn inv_head(bf: impl Fn($V, $V, Tw) -> ($V, $V), a: &mut [u64], w: &[u64], sh: &[u64], with_top: bool) {
                        let n = a.len();
                        debug_assert!(n.is_multiple_of(2 * LANES) && w.len() == n && sh.len() == n);
                        let idx = sub_stages();
                        let top = n / (2 * LANES);
                        for r in 0..top {
                            let j = 2 * LANES * r;
                            // SAFETY: as fwd_tail.
                            unsafe {
                                let (mut v0, mut v1) = (ld(a, j), ld(a, j + LANES));
                                for (s, ix) in idx.iter().enumerate().rev() {
                                    let groups = 2 << s;
                                    let (x, y, t) = sub_split(v0, v1, ix, w, sh, $sbits, groups * (top + r));
                                    let (nx, ny) = bf(x, y, t);
                                    (v0, v1) = sub_knit(nx, ny, ix);
                                }
                                if with_top {
                                    (v0, v1) = bf(v0, v1, load_tw(w, sh, $sbits, top + r));
                                }
                                st(a, j, v0);
                                st(a, j + LANES, v1);
                            }
                        }
                    }

                    /// The final stage (stride `n/2`, single twiddle) fused
                    /// with the `n^{-1}` sweep: the sum path multiplies by
                    /// `n^{-1}` directly (`wn`), the difference path by the
                    /// precombined `w_1 * n^{-1}` (`wd`), and both outputs
                    /// are canonicalized in-register. Saves the whole
                    /// closing `n^{-1}` pass; output is canonical, hence
                    /// bit-identical to the unfused sequence.
                    ///
                    /// # Safety
                    ///
                    /// As `fwd_pass_large`.
                    #[target_feature(enable = $ptf)]
                    unsafe fn inv_final_pass(
                        mul: impl Fn($V, Tw) -> $V,
                        c: Consts,
                        x: &mut [u64],
                        y: &mut [u64],
                        wd: Tw,
                        wn: Tw,
                    ) {
                        debug_assert!(x.len() == y.len() && x.len().is_multiple_of(LANES));
                        for j in (0..x.len()).step_by(LANES) {
                            // SAFETY: j + LANES <= x.len() == y.len().
                            unsafe {
                                let (u, v) = (ld(x, j), ld(y, j));
                                // The butterfly, but the products fold in
                                // n^{-1}.
                                let s = csub_2q(c, $add(u, v));
                                let d = $sub($add(u, c.two_q), v);
                                st(x, j, csub_q(c, mul(s, wn)));
                                st(y, j, csub_q(c, mul(d, wd)));
                            }
                        }
                    }

                    // Stages of stride 1..=LANES in one opening pass. The
                    // stride-LANES stage is deferred to the fused final pass
                    // when it is the global last stage (n == 2*LANES).
                    inv_head(bf, a, w, sh, n > 2 * LANES);
                    // Greedy ascent to (but excluding) the final stride-n/2
                    // stage: a triple is exact while its largest stride
                    // stays below n/2, and the remainder
                    // (log2(n / (4*LANES)) stages) is finished by a pair or
                    // single.
                    let mut lt = 2 * LANES;
                    let mut llen = n / (4 * LANES);
                    while 2 * lt < n {
                        debug_assert_eq!(2 * lt * llen, n);
                        if 8 * lt < n {
                            // Triple: stages at strides lt, 2*lt, 4*lt.
                            // Stage-A twiddles 4g..4g+3, stage-B 2g, 2g+1
                            // of the next levels.
                            for (g, tile) in a.chunks_exact_mut(8 * lt).enumerate() {
                                let (wa, wb) = (llen + 4 * g, llen / 2 + 2 * g);
                                // SAFETY: tile.len() == 8*lt, lt a multiple
                                // of LANES.
                                unsafe {
                                    inv_pass_large3(
                                        bf,
                                        tile,
                                        tw(wa),
                                        tw(wa + 1),
                                        tw(wa + 2),
                                        tw(wa + 3),
                                        tw(wb),
                                        tw(wb + 1),
                                        tw(llen / 4 + g),
                                    )
                                };
                            }
                            lt <<= 3;
                            llen >>= 3;
                        } else if 4 * lt < n {
                            // Pair: stages at strides lt and 2*lt.
                            for (g, tile) in a.chunks_exact_mut(4 * lt).enumerate() {
                                let wa = llen + 2 * g;
                                // SAFETY: tile.len() == 4*lt, lt a multiple
                                // of LANES.
                                unsafe { inv_pass_large2(bf, tile, tw(wa), tw(wa + 1), tw(llen / 2 + g)) };
                            }
                            lt <<= 2;
                            llen >>= 2;
                        } else {
                            for (g, tile) in a.chunks_exact_mut(2 * lt).enumerate() {
                                let (x, y) = tile.split_at_mut(lt);
                                // SAFETY: both halves have lt elements, a
                                // multiple of LANES.
                                unsafe { inv_pass_large(bf, x, y, tw(llen + g)) };
                            }
                            lt <<= 1;
                            llen >>= 1;
                        }
                    }
                    // Final stage (stride n/2, single twiddle w[1]) fused
                    // with the n^{-1} sweep: the sum path takes n^{-1}, the
                    // difference path the precombined w[1] * n^{-1}; outputs
                    // are canonical.
                    let n_inv = table.n_inv();
                    let wd_val = m.mul(w[1], n_inv);
                    let wn = Tw {
                        w: splat(n_inv),
                        sh: splat(shoup_in_radix($sbits, table.n_inv_shoup())),
                    };
                    let wd = Tw {
                        w: splat(wd_val),
                        sh: splat(shoup_in_radix($sbits, m.shoup_precompute(wd_val))),
                    };
                    let (x, y) = a.split_at_mut(n / 2);
                    // SAFETY: both halves have n/2 >= LANES elements, a
                    // multiple of LANES.
                    unsafe { inv_final_pass(move |x, t: Tw| $shoup(pc, x, t.w, t.sh), c, x, y, wd, wn) };
                }
                // SAFETY: as mul_mod_slice.
                return unsafe { body(table, a) };
            })+
            unreachable!("the last product accepts every modulus");
        }

        // -------------------------------------------------------------------
        // Base conversion: the eighth product kernel, the software CRB.
        // -------------------------------------------------------------------

        /// Vectors of coefficients one CRB block holds per source limb: the
        /// accumulator chains in flight per destination limb.
        const CRB_VECS: usize = 4;

        /// The first `len` elements of `buf`.
        ///
        /// # Safety
        ///
        /// The caller initialized them, and `len <= N`.
        #[inline(always)]
        unsafe fn init_prefix<T, const N: usize>(buf: &[::core::mem::MaybeUninit<T>; N], len: usize) -> &[T] {
            debug_assert!(len <= N);
            // SAFETY: MaybeUninit<T> has T's layout, and the caller
            // initialized the first len <= N elements.
            unsafe { ::core::slice::from_raw_parts(buf.as_ptr().cast(), len) }
        }

        /// Stores `v` to `s[i..i + LANES]`, initializing those words.
        ///
        /// # Safety
        ///
        /// `i + LANES <= s.len()`.
        #[inline]
        #[target_feature(enable = $tf)]
        unsafe fn st_uninit(s: &mut [::core::mem::MaybeUninit<u64>], i: usize, v: $V) {
            debug_assert!(i + LANES <= s.len(), "vector store past the slice");
            // SAFETY: the caller guarantees LANES words from i are in bounds.
            unsafe { $store(s.as_mut_ptr().add(i).cast(), v) }
        }

        /// Fast RNS base conversion in one pass, a block of
        /// `CRB_VECS * LANES` coefficients at a time: every source limb's
        /// `y_i = [x_i (Q/q_i)^{-1}]_{q_i}` into an L1 tile (each input word
        /// read once), the exact path's `alpha` lane-parallel in `f64`
        /// ([`hps_alpha`], the scalar loop's operation order), then per
        /// destination limb `b_j` the sum `Σ_i y_i [Q/q_i]_{b_j}` — plus
        /// `alpha [−Q]_{b_j}` as one more term — accumulated in registers
        /// and reduced and stored once, canonical.
        ///
        /// A product that lists a wide sum (`crb_mac` / `crb_reduce`) uses
        /// it when `crb_fits` accepts the table's sum bound and there are
        /// more than [`super::CRB_LAZY_TERMS`] terms; otherwise, and for the
        /// products that list none, the sum is the product's Shoup-lazy one
        /// in `[0, 2b)`. The product must apply to every source and
        /// destination modulus, and its Shoup radix must cover the `y`
        /// pass's canonical operands.
        #[target_feature(enable = $tf)]
        pub(crate) fn base_conv(
            t: &crate::BaseConvTable,
            x: &[u64],
            out: &mut [::core::mem::MaybeUninit<u64>],
            exact: bool,
        ) {
            let mut rank = PRODUCTS;
            $(rank -= 1;
            let mut applies = true;
            for m in t.src().iter().chain(t.dst()) {
                applies &= $when(m);
            }
            for m in t.src() {
                applies &= shoup_covers($sbits, m.value());
            }
            if chosen(rank, applies) {
                #[target_feature(enable = $ptf)]
                unsafe fn body(
                    t: &crate::BaseConvTable,
                    x: &[u64],
                    out: &mut [::core::mem::MaybeUninit<u64>],
                    exact: bool,
                ) {
                    const BLOCK: usize = CRB_VECS * LANES;
                    let (src, dst) = (t.src(), t.dst());
                    let ls = src.len();
                    let n = x.len() / ls;
                    debug_assert!(x.len() == ls * n && out.len() == dst.len() * n);
                    if n == 0 {
                        return;
                    }
                    let terms = ls + usize::from(exact);
                    let wide = false $(|| terms > super::CRB_LAZY_TERMS && $crb_fits(t.sum_bound(), terms))?;
                    // The per-limb constants and the tile live on the stack:
                    // heap temporaries in every call fragmented the
                    // allocator's per-thread arenas (peak RSS rose by 1 %).
                    // Per source limb: reduction constants, the y multiplier
                    // and its companion in the product's radix, the limb.
                    let (yw, yws) = t.y_consts();
                    let mut ys = [const { ::core::mem::MaybeUninit::uninit() }; super::CRB_MAX_LIMBS];
                    for (i, (slot, m)) in ys.iter_mut().zip(src).enumerate() {
                        let (w, ws) = (splat(yw[i]), splat(shoup_in_radix($sbits, yws[i])));
                        slot.write((consts(m), $pconsts(m), w, ws, &x[i * n..(i + 1) * n], m.value()));
                    }
                    // SAFETY: the loop initialized the first ls slots.
                    let ys = unsafe { init_prefix(&ys, ls) };
                    // The Shoup-lazy sum's per-destination constants.
                    let mut lazy = [const { ::core::mem::MaybeUninit::uninit() }; super::CRB_MAX_LIMBS];
                    let lazy_len = if wide { 0 } else { dst.len() };
                    for (slot, m) in lazy.iter_mut().zip(&dst[..lazy_len]) {
                        slot.write($pconsts(m));
                    }
                    // SAFETY: the loop initialized the first lazy_len slots.
                    let lazy = unsafe { init_prefix(&lazy, lazy_len) };
                    // One block's y_0..y_{L-1} and alpha, term-major.
                    let mut tile = [[splat(0); CRB_VECS]; super::CRB_MAX_LIMBS + 1];
                    let nb = n - n % BLOCK;
                    for b in (0..nb).step_by(BLOCK) {
                        for (row, &(c, pc, w, ws, xi, q)) in tile.iter_mut().zip(ys) {
                            for (v, y) in row.iter_mut().enumerate() {
                                // SAFETY: b + BLOCK <= nb <= n == xi.len().
                                let xv = unsafe { ld_below(xi, b + v * LANES, q) };
                                *y = csub_q(c, $shoup(pc, xv, w, ws));
                            }
                        }
                        if exact {
                            let alpha = hps_alpha(&tile[..ls], t.inv_q_f64());
                            tile[ls] = alpha;
                        }
                        for (j, (bj, oj)) in dst.iter().zip(out.chunks_exact_mut(n)).enumerate() {
                            let c = consts(bj);
                            let (row, row_s) = t.row(j);
                            let mut sum = [splat(0); CRB_VECS];
                            if wide {
                                $(let mut acc = [(splat(0), splat(0)); CRB_VECS];
                                for ((yv, &w), &ws) in tile[..terms].iter().zip(row).zip(row_s) {
                                    let (w, ws) = (splat(w), splat(shoup_in_radix($sbits, ws)));
                                    for (a, &y) in acc.iter_mut().zip(yv) {
                                        *a = $crb_mac(c, *a, y, w, ws);
                                    }
                                }
                                let f = t.fold(j);
                                let fold = Tw { w: splat(f.r52), sh: splat(shoup_in_radix($sbits, f.r52_shoup)) };
                                let one_sh = splat(shoup_in_radix($sbits, f.one_shoup));
                                for (s, a) in sum.iter_mut().zip(acc) {
                                    *s = $crb_reduce(c, a, fold, one_sh);
                                })?
                            } else {
                                let pc = lazy[j];
                                for ((yv, &w), &ws) in tile[..terms].iter().zip(row).zip(row_s) {
                                    let (w, ws) = (splat(w), splat(shoup_in_radix($sbits, ws)));
                                    for (s, &y) in sum.iter_mut().zip(yv) {
                                        // Both below 2b: one conditional
                                        // subtract keeps [0, 2b).
                                        *s = csub_2q(c, $add(*s, $shoup(pc, y, w, ws)));
                                    }
                                }
                                for s in &mut sum {
                                    *s = csub_q(c, *s);
                                }
                            }
                            for (v, &s) in sum.iter().enumerate() {
                                // SAFETY: b + BLOCK <= nb <= n == oj.len().
                                unsafe { st_uninit(oj, b + v * LANES, s) };
                            }
                        }
                    }
                    scalar::base_conv_cols(t, x, out, exact, nb..n);
                }
                // SAFETY: as mul_mod_slice.
                return unsafe { body(t, x, out, exact) };
            })+
            unreachable!("the last product accepts every modulus");
        }
    };
}
