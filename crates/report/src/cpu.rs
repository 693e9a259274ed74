//! Startup guard: does this CPU run the instructions the build was compiled
//! for?
//!
//! The repository builds for `x86-64-v3` (`.cargo/config.toml` at its root),
//! so the compiler may emit AVX2 and FMA instructions anywhere. A CPU that
//! lacks them would stop such a binary with `SIGILL` at the first one.
//! `rage-server` and `report` call [`check`] first thing in `main` and exit
//! with code 2 and a message instead. AVX2 and FMA stand in for the whole
//! level: the CPUs that have both (Intel Haswell, AMD Excavator and later)
//! have its other extensions too.
//!
//! `is_x86_feature_detected!` cannot make this check: it is const-folded to
//! `true` for every feature enabled at compile time, so under this baseline
//! it would report AVX2 present on any CPU. [`check`] reads CPUID itself, and
//! requires only the features this build enabled: a build for plain
//! `x86-64` (`RUSTFLAGS="-C target-cpu=x86-64"`) passes on every CPU.

/// AVX2: CPUID leaf 7, sub-leaf 0, EBX bit 5.
const AVX2_LEAF7_EBX: u32 = 1 << 5;
/// FMA: CPUID leaf 1, ECX bit 12.
const FMA_LEAF1_ECX: u32 = 1 << 12;

/// `Err` with a message naming the missing features and the `RUSTFLAGS`
/// opt-out when the running CPU lacks AVX2 or FMA and this build was compiled
/// to use it; `Ok` otherwise, and always on other architectures.
///
/// Keep the failure path this small. The check is integer code, the
/// messages are static, and each binary leaves through
/// [`std::process::exit`] right after printing, so nothing before the exit
/// needs more than baseline x86-64; printing and exiting run in the
/// precompiled standard library. A return from `main` would pass a
/// `vzeroupper`, which faults on a CPU without AVX.
pub fn check() -> Result<(), &'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid_count;
        let max_leaf = __cpuid_count(0, 0).eax;
        let leaf1_ecx = __cpuid_count(1, 0).ecx;
        let leaf7_ebx = if max_leaf >= 7 {
            __cpuid_count(7, 0).ebx
        } else {
            0
        };
        verdict(
            leaf1_ecx,
            leaf7_ebx,
            cfg!(target_feature = "avx2"),
            cfg!(target_feature = "fma"),
        )
    }
    #[cfg(not(target_arch = "x86_64"))]
    Ok(())
}

/// The verdict for a CPU whose CPUID leaf 1 reports `leaf1_ecx` and leaf 7
/// reports `leaf7_ebx`, on a build that requires AVX2 if `avx2` and FMA if
/// `fma`.
fn verdict(leaf1_ecx: u32, leaf7_ebx: u32, avx2: bool, fma: bool) -> Result<(), &'static str> {
    let no_avx2 = avx2 && leaf7_ebx & AVX2_LEAF7_EBX == 0;
    let no_fma = fma && leaf1_ecx & FMA_LEAF1_ECX == 0;
    match (no_avx2, no_fma) {
        (false, false) => Ok(()),
        (true, false) => Err(
            "this build targets x86-64-v3 and uses AVX2, which this CPU lacks; \
             rebuild for plain x86-64 with RUSTFLAGS=\"-C target-cpu=x86-64\"",
        ),
        (false, true) => Err(
            "this build targets x86-64-v3 and uses FMA, which this CPU lacks; \
             rebuild for plain x86-64 with RUSTFLAGS=\"-C target-cpu=x86-64\"",
        ),
        (true, true) => Err(
            "this build targets x86-64-v3 and uses AVX2 and FMA, which this CPU lacks; \
             rebuild for plain x86-64 with RUSTFLAGS=\"-C target-cpu=x86-64\"",
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cpu_without_the_bits_misses_each_required_feature() {
        let message = |result: Result<(), &'static str>| {
            let message = result.expect_err("a missing feature must fail the check");
            assert!(message.contains("RUSTFLAGS=\"-C target-cpu=x86-64\""));
            message
        };
        assert!(message(verdict(0, 0, true, true)).contains("uses AVX2 and FMA,"));
        assert!(message(verdict(FMA_LEAF1_ECX, 0, true, true)).contains("uses AVX2,"));
        assert!(message(verdict(0, AVX2_LEAF7_EBX, true, true)).contains("uses FMA,"));
        assert_eq!(verdict(FMA_LEAF1_ECX, AVX2_LEAF7_EBX, true, true), Ok(()));
        // Other bits in the same registers do not stand in for these.
        let others = verdict(!FMA_LEAF1_ECX, !AVX2_LEAF7_EBX, true, true);
        assert!(message(others).contains("uses AVX2 and FMA,"));
    }

    #[test]
    fn only_the_features_the_build_enabled_are_required() {
        // A plain x86-64 build runs anywhere.
        assert_eq!(verdict(0, 0, false, false), Ok(()));
        assert!(verdict(0, 0, false, true).is_err());
        assert!(verdict(0, 0, true, false).is_err());
        // The CPU these tests run on runs this build.
        assert_eq!(check(), Ok(()));
    }
}
