//! Direct number writers for the JSON replies: the shortest round-trip
//! form of an `f64` in `Display`'s layout, decimal integers, and
//! fixed-width hex.
//!
//! `write_f64` finds the digits with Ryū (Ulf Adams, "Ryū: fast
//! float-to-string conversion", PLDI 2018): the shortest decimal that
//! reads back as the same `f64`, and the one nearest the exact value when
//! several are that short. That is the digit string `format!("{x}")`
//! prints, down to its tie rule: of two candidates exactly as near, it
//! takes the larger magnitude (`2^-25` prints as `...695313`), where Ryū
//! as published takes the even last digit, so the writer drops that
//! step. It lays the digits out the way `Display` does, without an
//! exponent: `0.000123`, `12.5`, `1230000000000000000000`. The tests
//! hold it to `format!` byte for byte, on edge cases and on seeded random
//! bit patterns; `format!` survives only there, as the oracle.
//!
//! Ryū scales the binary value into a decimal one by multiplying with
//! 125-bit approximations of powers of five. The two tables of them are
//! computed by exact integer arithmetic when the crate compiles
//! (`pow5_split`, `pow5_inv_split`), so nothing is built at startup
//! and nothing is typed in by hand; a test re-derives every entry with a
//! separate big-integer implementation.

/// Bits of the binary significand an `f64` stores.
const MANTISSA_BITS: u32 = 52;
/// The exponent bias of `f64`.
const BIAS: i32 = 1023;
/// Bits of each power-of-five approximation.
const POW5_BITCOUNT: i32 = 125;
/// Bits of each inverse power-of-five approximation.
const POW5_INV_BITCOUNT: i32 = 125;

/// Entries of [`POW5_SPLIT`]: `5^i` for every `i` a finite `f64` below 1
/// needs (`i` ≤ 325, reached by the smallest subnormal).
const POW5_TABLE_SIZE: usize = 326;
/// Entries of [`POW5_INV_SPLIT`]: `5^-q` for every `q` a finite `f64`
/// above 1 needs (`q` ≤ 290, reached by `f64::MAX`).
const POW5_INV_TABLE_SIZE: usize = 292;

/// `POW5_SPLIT[i]`: the top 125 bits of `5^i`, that is
/// `floor(5^i / 2^(bits(5^i) - 125))` (shifted up when `5^i` has fewer
/// bits).
static POW5_SPLIT: [u128; POW5_TABLE_SIZE] = pow5_split();
/// `POW5_INV_SPLIT[q]`: `floor(2^(bits(5^q) - 1 + 125) / 5^q) + 1`, a
/// 125-bit approximation of `5^-q` from above.
static POW5_INV_SPLIT: [u128; POW5_INV_TABLE_SIZE] = pow5_inv_split();

/// Limbs of the compile-time big integers: enough for `2^832`, the
/// dividend [`pow5_inv_split`] starts from.
const LIMBS: usize = 14;

/// Bits `[s, s + 128)` of a little-endian limb array.
const fn bits128(x: &[u64; LIMBS], s: u32) -> u128 {
    let (limb, off) = ((s / 64) as usize, s % 64);
    let mut out = 0u128;
    let mut k = 0;
    // Three limbs cover any 128-bit window.
    while k < 3 && limb + k < LIMBS {
        let v = x[limb + k] as u128;
        let at = 64 * k as u32;
        if at >= off {
            let shift = at - off;
            if shift < 128 {
                out |= v << shift;
            }
        } else {
            out |= v >> (off - at);
        }
        k += 1;
    }
    out
}

/// The bit length of a limb array.
const fn bit_length(x: &[u64; LIMBS]) -> u32 {
    let mut k = LIMBS;
    while k > 0 {
        k -= 1;
        if x[k] != 0 {
            return 64 * k as u32 + 64 - x[k].leading_zeros();
        }
    }
    0
}

/// Builds [`POW5_SPLIT`] from `5^i`, multiplied up by five each step.
const fn pow5_split() -> [u128; POW5_TABLE_SIZE] {
    let mut table = [0u128; POW5_TABLE_SIZE];
    let mut pow = [0u64; LIMBS];
    pow[0] = 1;
    let mut i = 0;
    while i < POW5_TABLE_SIZE {
        let len = bit_length(&pow);
        table[i] = if len >= POW5_BITCOUNT as u32 {
            bits128(&pow, len - POW5_BITCOUNT as u32)
        } else {
            bits128(&pow, 0) << (POW5_BITCOUNT as u32 - len)
        };
        // pow *= 5
        let mut carry = 0u128;
        let mut k = 0;
        while k < LIMBS {
            let v = pow[k] as u128 * 5 + carry;
            pow[k] = v as u64;
            carry = v >> 64;
            k += 1;
        }
        i += 1;
    }
    table
}

/// Builds [`POW5_INV_SPLIT`]. Floor division nests, `floor(floor(a / b)
/// / c) = floor(a / (b c))`, so `floor(2^j / 5^q)` is `floor(2^832 /
/// 5^q)` shifted down by `832 - j`, and `floor(2^832 / 5^q)` is one
/// division by five after `floor(2^832 / 5^(q-1))`.
const fn pow5_inv_split() -> [u128; POW5_INV_TABLE_SIZE] {
    const TOP: u32 = 64 * (LIMBS as u32 - 1);
    let mut table = [0u128; POW5_INV_TABLE_SIZE];
    let mut quot = [0u64; LIMBS];
    quot[LIMBS - 1] = 1;
    let mut pow = [0u64; LIMBS];
    pow[0] = 1;
    let mut q = 0;
    while q < POW5_INV_TABLE_SIZE {
        let j = bit_length(&pow) - 1 + POW5_INV_BITCOUNT as u32;
        table[q] = bits128(&quot, TOP - j) + 1;
        // quot /= 5, pow *= 5
        let mut rem = 0u128;
        let mut k = LIMBS;
        while k > 0 {
            k -= 1;
            let v = (rem << 64) | quot[k] as u128;
            quot[k] = (v / 5) as u64;
            rem = v % 5;
        }
        let mut carry = 0u128;
        let mut k = 0;
        while k < LIMBS {
            let v = pow[k] as u128 * 5 + carry;
            pow[k] = v as u64;
            carry = v >> 64;
            k += 1;
        }
        q += 1;
    }
    table
}

/// `ceil(log2(5^e))` for `e` > 0, and 1 for `e` = 0: the bit length of
/// `5^e` (valid for `e` ≤ 3528).
fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `floor(log10(2^e))` (valid for `e` ≤ 1650).
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `floor(log10(5^e))` (valid for `e` ≤ 2620).
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// Whether `5^p` divides `v` (`v` > 0).
fn multiple_of_power_of_5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// `floor(v · mul / 2^j)` for `v` = `4 m2`, `4 m2 + 2` and
/// `4 m2 - 1 - mm_shift`, from one product `P = 2 m2 · mul` (below 2^180,
/// held as `hi · 2^64 + lo`): the three are `P`, `P + mul` and either
/// `P - mul` shifted by `j - 1`, or `2P - mul` shifted by `j`. Both
/// branches of [`shortest`] shift by 115 to 125, so every shift drops `lo`.
fn mul_shift_all(m2: u64, mul: u128, j: i32, mm_shift: u64) -> (u64, u64, u64) {
    let (mul_lo, mul_hi) = (mul as u64, mul >> 64);
    let low = (2 * m2) as u128 * mul_lo as u128;
    let lo = low as u64;
    let hi = (low >> 64) + (2 * m2) as u128 * mul_hi;
    let s = (j - 65) as u32;
    let vr = (hi >> s) as u64;
    let (_, carry) = lo.overflowing_add(mul_lo);
    let vp = ((hi + mul_hi + carry as u128) >> s) as u64;
    let vm = if mm_shift == 1 {
        let (_, borrow) = lo.overflowing_sub(mul_lo);
        ((hi - mul_hi - borrow as u128) >> s) as u64
    } else {
        let (lo2, carry2) = lo.overflowing_add(lo);
        let (_, borrow) = lo2.overflowing_sub(mul_lo);
        ((2 * hi + carry2 as u128 - mul_hi - borrow as u128) >> (s + 1)) as u64
    };
    (vr, vp, vm)
}

/// The shortest decimal `(digits, exponent)` with `digits · 10^exponent`
/// reading back as the finite, nonzero `f64` of these IEEE fields.
#[inline]
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    // Two extra bits below the significand hold the interval bounds.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - BIAS - MANTISSA_BITS as i32 - 2,
            (1u64 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // An even significand rounds to itself from both interval bounds.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // The lower bound is closer when the significand is a power of two.
    let mm_shift = (ieee_mantissa != 0 || ieee_exponent <= 1) as u64;

    // The value `mv` and its bounds `mv + 2`, `mv - 1 - mm_shift`, scaled
    // to `vr`, `vp`, `vm` · 10^e10.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - (e2 > 3) as u32;
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5bits(q as i32) - 1;
        let i = -e2 + q as i32 + k;
        let mul = POW5_INV_SPLIT[q as usize];
        (vr, vp, vm) = mul_shift_all(m2, mul, i, mm_shift);
        // At most one of mv, mp and mm is a multiple of 5. An exact vr
        // changes nothing, since a tie rounds up; an exact bound matters.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_power_of_5(mv - 1 - mm_shift, q);
            } else {
                vp -= multiple_of_power_of_5(mv + 2, q) as u64;
            }
        }
    } else {
        let q = log10_pow5(-e2) - (-e2 > 1) as u32;
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i) - POW5_BITCOUNT;
        let j = q as i32 - k;
        let mul = POW5_SPLIT[i as usize];
        (vr, vp, vm) = mul_shift_all(m2, mul, j, mm_shift);
        if q <= 1 {
            // mp has at least one trailing zero bit, mm one iff mm_shift.
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the bounds still differ above them.
    let mut removed = 0;
    let output = if vm_is_trailing_zeros {
        // The rare case of an exact lower bound, set only when the bounds
        // are acceptable: keep dropping while it ends in zeros.
        let mut last_removed_digit = 0;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm.is_multiple_of(10);
            last_removed_digit = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm.is_multiple_of(10) {
                last_removed_digit = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        let outside = vr == vm && !vm_is_trailing_zeros;
        vr + (outside || last_removed_digit >= 5) as u64
    } else {
        // Only the last digit dropped decides the rounding, so drop the
        // most the bounds allow in steps of eight, four, two and one: a
        // short result like `0.5` drops sixteen digits in four steps.
        let mut round_up = false;
        for (p, k) in [(100_000_000, 8), (10_000, 4), (100, 2), (10, 1)] {
            while vp / p > vm / p {
                round_up = vr % p >= p / 2;
                vr /= p;
                vp /= p;
                vm /= p;
                removed += k;
            }
        }
        vr + (vr == vm || round_up) as u64
    };
    (output, e10 + removed)
}

/// The eight ASCII digits of `v` < 10^8, most significant first, with
/// leading zeros. Splits into lanes in one `u64` and divides every lane
/// at once by multiplying with a scaled reciprocal: `v` into two 4-digit
/// lanes, each of those into two 2-digit lanes, each of those into tens
/// and ones. The reciprocals are exact for the lane ranges they see
/// (`x · 10486 >> 20` is `x / 100` for `x` < 10^4, `x · 103 >> 10` is
/// `x / 10` for `x` < 100), and no lane's product reaches the next lane.
fn eight_digits(v: u32) -> [u8; 8] {
    let v = v as u64;
    let x = (v / 10_000) | ((v % 10_000) << 32);
    let hundreds = ((x * 10_486) >> 20) & 0x0000_007f_0000_007f;
    let y = hundreds | ((x - hundreds * 100) << 16);
    let tens = ((y * 103) >> 10) & 0x000f_000f_000f_000f;
    let z = tens | ((y - tens * 10) << 8);
    (z | 0x3030_3030_3030_3030).to_le_bytes()
}

/// Writes the decimal digits of `n` into `buf` so that they end at
/// `end`; they start at `end - decimal_length(n)`.
fn digits_into(mut n: u64, buf: &mut [u8], end: usize) {
    let mut at = end;
    while n >= 100_000_000 {
        at -= 8;
        buf[at..at + 8].copy_from_slice(&eight_digits((n % 100_000_000) as u32));
        n /= 100_000_000;
    }
    let lead = decimal_length(n);
    buf[at - lead..at].copy_from_slice(&eight_digits(n as u32)[8 - lead..]);
}

/// The number of decimal digits of `n`.
fn decimal_length(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |l| l as usize + 1)
}

/// ASCII bytes as text.
fn ascii(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("the writers emit ASCII")
}

/// Writes `n` in decimal, as `format!("{n}")` does.
pub fn write_u64(n: u64, out: &mut String) {
    let mut buf = [0u8; 20];
    let len = decimal_length(n);
    digits_into(n, &mut buf, len);
    out.push_str(ascii(&buf[..len]));
}

/// Writes `n` in decimal, as `format!("{n}")` does.
pub(crate) fn write_i64(n: i64, out: &mut String) {
    if n < 0 {
        out.push('-');
    }
    write_u64(n.unsigned_abs(), out);
}

/// Writes `n` as 32 lowercase hex digits, as `format!("{n:032x}")` does.
pub fn write_hex128(n: u128, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut buf = [0u8; 32];
    for (k, b) in buf.iter_mut().enumerate() {
        *b = HEX[(n >> (124 - 4 * k)) as usize & 0xf];
    }
    out.push_str(ascii(&buf));
}

/// Writes a finite `x` as `format!("{x}")` does: the shortest digits
/// that read back as `x`, in plain decimal with no exponent.
pub(crate) fn write_f64(x: f64, out: &mut String) {
    debug_assert!(x.is_finite(), "{x} is not finite");
    let bits = x.to_bits();
    if bits >> 63 != 0 {
        out.push('-');
    }
    let ieee_mantissa = bits & ((1u64 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as u32;
    if ieee_mantissa == 0 && ieee_exponent == 0 {
        out.push('0');
        return;
    }
    let (mantissa, exponent) = shortest(ieee_mantissa, ieee_exponent);
    let n = decimal_length(mantissa);
    // The value is 0.<digits> · 10^point: `0.00ddd`, `dd.ddd` or
    // `ddd00`, laid out in a buffer of zeros. Every value between 1e-40
    // and 1e60 fits the one on the stack.
    let point = exponent + n as i32;
    let len = if point <= 0 {
        2 + point.unsigned_abs() as usize + n
    } else {
        (point as usize).max(n + 1)
    };
    let mut small = [b'0'; 64];
    let mut large;
    let buf: &mut [u8] = if len <= small.len() {
        &mut small
    } else {
        large = vec![b'0'; len];
        &mut large
    };
    let len = if point <= 0 {
        buf[1] = b'.';
        digits_into(mantissa, buf, len);
        len
    } else if (point as usize) < n {
        // The digits go one place right, then the integer part moves
        // back over the gap to make room for the point.
        let p = point as usize;
        digits_into(mantissa, buf, n + 1);
        for k in 0..p {
            buf[k] = buf[k + 1];
        }
        buf[p] = b'.';
        n + 1
    } else {
        digits_into(mantissa, buf, n);
        point as usize
    };
    out.push_str(ascii(&buf[..len]));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// splitmix64: seeded bit patterns for the differential tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// `write_num` spelled out through `format!`: the oracle. `null` for
    /// non-finite values, `x as i64` for integers below 1e15 (so `-0.0`
    /// prints `0`), `format!` for the rest.
    fn old_write_num(x: f64) -> String {
        if !x.is_finite() {
            "null".to_string()
        } else if x == x.trunc() && x.abs() < 1e15 {
            format!("{}", x as i64)
        } else {
            format!("{x}")
        }
    }

    /// Holds `write_f64` to `format!` and `write_num` to its oracle on
    /// one value.
    fn check(x: f64, out: &mut String) {
        if x.is_finite() {
            out.clear();
            write_f64(x, out);
            assert_eq!(
                *out,
                format!("{x}"),
                "write_f64, bits {:#018x}",
                x.to_bits()
            );
        }
        out.clear();
        crate::report::write_num(x, out);
        assert_eq!(
            *out,
            old_write_num(x),
            "write_num, bits {:#018x}",
            x.to_bits()
        );
    }

    /// Checks `n` seeded bit patterns: every other one uniform over all
    /// bit patterns, the rest with exponents near 1, where replies'
    /// numbers live.
    fn differential(seed: u64, n: u64) {
        let mut rng = Rng(seed);
        let mut out = String::new();
        for k in 0..n {
            let mut bits = rng.next();
            if k % 2 == 1 {
                let exp = 1023 - 40 + (bits >> 52) % 80;
                bits = (bits & (((1 << 52) - 1) | (1 << 63))) | (exp << 52);
            }
            check(f64::from_bits(bits), &mut out);
        }
    }

    /// A little-endian base-2^32 big integer, independent of the
    /// compile-time generator's fixed limb arrays.
    fn big_mul_small(x: &mut Vec<u32>, m: u32) {
        let mut carry = 0u64;
        for limb in x.iter_mut() {
            let v = *limb as u64 * m as u64 + carry;
            *limb = v as u32;
            carry = v >> 32;
        }
        if carry > 0 {
            x.push(carry as u32);
        }
    }

    fn big_from_u128(v: u128) -> Vec<u32> {
        let mut x: Vec<u32> = (0..4).map(|k| (v >> (32 * k)) as u32).collect();
        while x.len() > 1 && x.last() == Some(&0) {
            x.pop();
        }
        x
    }

    fn big_shl(x: &[u32], s: u32) -> Vec<u32> {
        let mut out = vec![0u32; (s / 32) as usize];
        let bits = s % 32;
        let mut carry = 0u32;
        for &limb in x {
            out.push((limb << bits) | carry);
            carry = if bits == 0 { 0 } else { limb >> (32 - bits) };
        }
        out.push(carry);
        out
    }

    fn big_bits(x: &[u32]) -> u32 {
        let top = x.iter().rposition(|&l| l != 0).unwrap_or(0);
        32 * top as u32 + 32 - x[top].leading_zeros()
    }

    fn big_cmp(a: &[u32], b: &[u32]) -> std::cmp::Ordering {
        let len = a.len().max(b.len());
        for k in (0..len).rev() {
            let (x, y) = (
                a.get(k).copied().unwrap_or(0),
                b.get(k).copied().unwrap_or(0),
            );
            if x != y {
                return x.cmp(&y);
            }
        }
        std::cmp::Ordering::Equal
    }

    /// `a · b` for a big `a` and a `u128` `b`.
    fn big_mul(a: &[u32], b: u128) -> Vec<u32> {
        let b = big_from_u128(b);
        let mut out = vec![0u32; a.len() + b.len() + 1];
        for (i, &x) in a.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &y) in b.iter().enumerate() {
                let v = out[i + j] as u64 + x as u64 * y as u64 + carry;
                out[i + j] = v as u32;
                carry = v >> 32;
            }
            let mut k = i + b.len();
            while carry > 0 {
                let v = out[k] as u64 + carry;
                out[k] = v as u32;
                carry = v >> 32;
                k += 1;
            }
        }
        out
    }

    #[test]
    fn every_table_entry_is_exact() {
        use std::cmp::Ordering::*;
        let mut pow = vec![1u32];
        for i in 0..POW5_TABLE_SIZE.max(POW5_INV_TABLE_SIZE) {
            let len = big_bits(&pow);
            assert_eq!(pow5bits(i as i32) as u32, len, "bits of 5^{i}");
            if i < POW5_TABLE_SIZE {
                // entry · 2^s ≤ 5^i < (entry + 1) · 2^s, s = len - 125
                // (or entry = 5^i · 2^(125 - len) exactly).
                let e = POW5_SPLIT[i];
                if len >= 125 {
                    let s = len - 125;
                    assert_ne!(big_cmp(&big_shl(&big_from_u128(e), s), &pow), Greater);
                    assert_eq!(big_cmp(&big_shl(&big_from_u128(e + 1), s), &pow), Greater);
                } else {
                    let shifted = big_shl(&pow, 125 - len);
                    assert_eq!(big_cmp(&big_from_u128(e), &shifted), Equal, "5^{i}");
                }
            }
            if i < POW5_INV_TABLE_SIZE {
                // (entry - 1) · 5^i ≤ 2^j < entry · 5^i, j = len - 1 + 125.
                let e = POW5_INV_SPLIT[i];
                let two_j = big_shl(&[1], len - 1 + 125);
                assert_ne!(big_cmp(&big_mul(&pow, e - 1), &two_j), Greater, "5^-{i}");
                assert_eq!(big_cmp(&big_mul(&pow, e), &two_j), Greater, "5^-{i}");
            }
            big_mul_small(&mut pow, 5);
        }
    }

    #[test]
    fn edge_cases_match_the_oracles() {
        let mut cases = vec![
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0,
            -7.0,
            999_999_999_999_999.0,
            -999_999_999_999_999.0,
            0.5,
            -0.5,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            f64::from_bits(1),
            f64::from_bits(2),
            f64::from_bits((1 << 52) - 1),
            f64::from_bits(1 << 52),
            1e15,
            1e15f64.next_up(),
            1e15f64.next_down(),
            -1e15f64.next_down(),
            9007199254740992.0,
            9007199254740993.0,
            9007199254740991.0,
            0.1,
            0.2 + 0.1,
            1.0 / 3.0,
            2.0 / 3.0,
            123456789012345.6,
            1234567890123456.7,
            0.30000000000000004,
            5e-324,
            1.7976931348623157e308,
            2.2250738585072014e-308,
            2.225073858507201e-308,
            1e23,
            8.41e21,
            5.0e-310,
            9.5e-5,
            0.000123,
        ];
        for e in -1074..=1023 {
            cases.push(2f64.powi(e));
            cases.push(-(2f64.powi(e)));
        }
        for e in -323..=308 {
            let p: f64 = format!("1e{e}").parse().unwrap();
            cases.extend([
                p,
                p.next_up(),
                p.next_down(),
                3.0 * p,
                9.999999999999999 * p,
            ]);
        }
        let mut out = String::new();
        for x in cases {
            check(x, &mut out);
        }
        // Shortest forms of 15, 16 and 17 significant digits.
        for x in [0.123456789012345, 0.1234567890123456, 0.12345678901234568] {
            check(x, &mut out);
            let digits = out.trim_start_matches("0.").len();
            assert!((15..=17).contains(&digits), "{x}");
        }
    }

    #[test]
    fn seeded_patterns_match_the_oracles() {
        differential(0x5eed, 1_000_000);
    }

    /// The release-mode run of the differential test, over 5·10^7 seeded
    /// bit patterns:
    ///
    /// ```text
    /// cargo test --release -p grophecy --lib numfmt -- --ignored
    /// ```
    #[test]
    #[ignore = "minutes in a debug build; ci.sh runs it in release"]
    fn fifty_million_seeded_patterns_match_the_oracles() {
        differential(0x2a2a_2a2a, 50_000_000);
    }

    #[test]
    fn integers_and_hex_match_format() {
        let mut rng = Rng(7);
        let mut values: Vec<u64> = (0..10_000)
            .map(|_| rng.next() >> (rng.next() % 64))
            .collect();
        values.extend([0, 1, 9, 10, 99, 100, 999, u64::MAX, u64::MAX - 1, 1 << 63]);
        for v in values {
            let mut out = String::new();
            write_u64(v, &mut out);
            assert_eq!(out, format!("{v}"));
            for i in [v as i64, (v as i64).wrapping_neg(), i64::MIN, i64::MAX] {
                out.clear();
                write_i64(i, &mut out);
                assert_eq!(out, format!("{i}"));
            }
            let h = (v as u128) << (v % 64) | v as u128;
            out.clear();
            write_hex128(h, &mut out);
            assert_eq!(out, format!("{h:032x}"));
        }
    }
}
