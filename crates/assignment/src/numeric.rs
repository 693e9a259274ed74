//! Factorials and binomial coefficients.
//!
//! All counting functions saturate at `u128::MAX` instead of overflowing, because RAGE
//! only uses them to decide whether a perturbation space is small enough to enumerate
//! exhaustively — beyond ~10²⁰ candidates the exact count no longer matters.

/// `n!` with saturation at `u128::MAX`.
pub fn factorial(n: usize) -> u128 {
    let mut acc: u128 = 1;
    for i in 2..=n as u128 {
        acc = acc.saturating_mul(i);
    }
    acc
}

/// Binomial coefficient `C(n, k)` with saturation at `u128::MAX`.
pub fn binomial(n: usize, k: usize) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        // Multiply before dividing keeps the intermediate result integral because the
        // product of any `i + 1` consecutive integers is divisible by `(i + 1)!`.
        acc = acc.saturating_mul((n - i) as u128) / (i as u128 + 1);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_factorials() {
        assert_eq!(factorial(0), 1);
        assert_eq!(factorial(1), 1);
        assert_eq!(factorial(5), 120);
        assert_eq!(factorial(10), 3_628_800);
    }

    #[test]
    fn factorial_saturates() {
        assert_eq!(factorial(200), u128::MAX);
    }

    #[test]
    fn binomial_identities() {
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(10, 3), 120);
        assert_eq!(binomial(3, 5), 0);
        // Symmetry.
        for n in 0..12usize {
            for k in 0..=n {
                assert_eq!(binomial(n, k), binomial(n, n - k));
            }
        }
    }

    #[test]
    fn binomial_pascal_rule() {
        for n in 1..20usize {
            for k in 1..n {
                assert_eq!(binomial(n, k), binomial(n - 1, k - 1) + binomial(n - 1, k));
            }
        }
    }
}
