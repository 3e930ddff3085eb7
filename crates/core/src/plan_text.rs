//! The one typed-value grammar. Every number a user types — a scenario
//! value (`lat=`, `detect=timeout:MS`), a plan primitive (`faults=`,
//! `arrivals=`) or a CLI flag (`--ticks`, `--from`) — is read by one
//! range-checked [`Reader`]; the plan texts share one `KIND:VALUE,…`
//! walker, [`Primitives`]; and every refusal is one error, [`SpecError`].

use std::fmt;
use std::str::FromStr;

/// The input error: text that does not read (a scenario, a plan, a
/// flag, a frame log) or a run that cannot write what it names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// The largest time a text may name, in ms, and the largest `lat=`.
/// With factors at most [`MAX_FACTOR`] a frame's delay stays under
/// 1e9 × 1e6 × 1e6 ms, so the exchange timeout and a run's virtual
/// clock, sums of such delays, holds and windows, stay finite; `1e308`
/// turned both into `inf` and `NaN`.
pub const MAX_MS: f64 = 1e9;

/// The largest `Fx` delay factor (see [`MAX_MS`]).
const MAX_FACTOR: f64 = 1e6;

/// The low end of a number's range, which also words its refusal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Floor {
    /// Any finite value: `must be finite`.
    Any,
    /// Zero or more: `must be finite and non-negative`.
    Zero,
    /// More than zero: `must be finite and positive`.
    Positive,
}

/// A reader of one typed value: its name, what its text should have
/// been, and the range it accepts.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    what: &'a str,
    noun: &'a str,
    floor: Floor,
    max: f64,
    refusal: Option<&'a str>,
}

impl<'a> Reader<'a> {
    /// Text that does not parse is `{what}: '{text}' is not {noun}`;
    /// any finite value from zero up is accepted.
    pub const fn new(what: &'a str, noun: &'a str) -> Self {
        Reader {
            what,
            noun,
            floor: Floor::Zero,
            max: f64::INFINITY,
            refusal: None,
        }
    }

    /// Sets the low end of the range.
    pub const fn floor(self, floor: Floor) -> Self {
        Reader { floor, ..self }
    }

    /// Sets the high end (`must be at most {max}`).
    pub const fn max(self, max: f64) -> Self {
        Reader { max, ..self }
    }

    /// Words a value that is not finite or under the floor as `message`.
    pub const fn refusal(self, message: &'a str) -> Self {
        Reader {
            refusal: Some(message),
            ..self
        }
    }

    /// Reads `text` as a number.
    pub fn number<T: FromStr>(&self, text: &str) -> Result<T, SpecError> {
        self.read(text, text)
    }

    /// Reads a time in ms, at most [`MAX_MS`]: one `ms` suffix is
    /// optional on input, and messages quote the text as typed.
    pub fn ms(&self, text: &str) -> Result<f64, SpecError> {
        self.max(MAX_MS).read(text, without_ms(text))
    }

    /// Reads a `FROMms..TOms` window whose end comes after its start.
    pub fn window(&self, text: &str) -> Result<(f64, f64), SpecError> {
        let what = self.what;
        let (a, b) = text
            .split_once("..")
            .ok_or_else(|| SpecError(format!("{what}: '{text}' is not 'FROMms..TOms'")))?;
        let (a, b) = (self.ms(a)?, self.ms(b)?);
        if b <= a {
            return Err(SpecError(format!(
                "{what}: end {b}ms must come after start {a}ms"
            )));
        }
        Ok((a, b))
    }

    /// Reads an `Fx` delay factor, from 1 up to [`MAX_FACTOR`].
    pub fn factor(&self, text: &str) -> Result<f64, SpecError> {
        let what = self.what;
        let digits = text
            .strip_suffix('x')
            .ok_or_else(|| SpecError(format!("{what} '{text}' needs an 'x' suffix")))?;
        let factor: f64 = self.floor(Floor::Any).max(MAX_FACTOR).number(digits)?;
        match factor >= 1.0 {
            true => Ok(factor),
            false => Err(SpecError(format!("{what} {factor} must be at least 1"))),
        }
    }

    fn read<T: FromStr>(&self, quoted: &str, digits: &str) -> Result<T, SpecError> {
        let what = self.what;
        let refuse = |why: String| Err(SpecError(format!("{what}: '{quoted}' {why}")));
        let Ok(value) = digits.parse::<T>() else {
            return refuse(format!("is not {}", self.noun));
        };
        // Whatever `T` is (an `f64` or an unsigned integer), its text
        // reads as an `f64` too, and the range is checked on that.
        let x: f64 = digits.parse().unwrap_or(f64::NAN);
        let (floored, words) = match self.floor {
            Floor::Any => (true, ""),
            Floor::Zero => (x >= 0.0, " and non-negative"),
            Floor::Positive => (x > 0.0, " and positive"),
        };
        match self.refusal {
            _ if x.is_finite() && floored && x <= self.max => Ok(value),
            _ if x.is_finite() && floored => refuse(format!("must be at most {:e}", self.max)),
            Some(message) => Err(SpecError(message.into())),
            None => refuse(format!("must be finite{words}")),
        }
    }
}

/// `text` without its optional `ms` suffix (one, not a run of them).
pub fn without_ms(text: &str) -> &str {
    text.strip_suffix("ms").unwrap_or(text)
}

/// Splits a primitive's `A@B` value; without the `@`, `{what} '{value}'
/// needs '@{needs}' (try '{example}')`.
pub fn split_at<'v>(
    what: &str,
    value: &'v str,
    needs: &str,
    example: &str,
) -> Result<(&'v str, &'v str), SpecError> {
    value.split_once('@').ok_or_else(|| {
        SpecError(format!(
            "{what} '{value}' needs '@{needs}' (try '{example}')"
        ))
    })
}

/// Reads one primitive's value into the plan.
pub type ReadPrimitive<P> = fn(&mut P, &str) -> Result<(), SpecError>;

/// The `KIND:VALUE,…` grammar of a plan text: comma-separated
/// primitives, at most one of each kind. It owns the split, the shape
/// and the duplicate- and unknown-kind refusals; each kind's reader
/// owns its value. Every message starts with `{key}: `.
pub struct Primitives<P: 'static> {
    /// The scenario key whose value the plan is (`faults`).
    pub key: &'static str,
    /// A primitive, in the shape refusal (`fault '…' is not KIND:VALUE`).
    pub item: &'static str,
    /// What the shape refusal suggests (`'poisson:80'`).
    pub example: &'static str,
    /// A kind, in the unknown-kind refusal (`unknown fault kind`).
    pub family: &'static str,
    /// Every kind, in text order, with the reader of its value.
    pub kinds: &'static [(&'static str, ReadPrimitive<P>)],
}

impl<P: Default> Primitives<P> {
    /// Reads a plan text. The empty text is the empty plan.
    pub fn parse(&self, text: &str) -> Result<P, SpecError> {
        let (key, mut plan) = (self.key, P::default());
        let mut seen = vec![false; self.kinds.len()];
        for part in text.split(',').filter(|_| !text.is_empty()) {
            let (kind, value) = part.split_once(':').ok_or_else(|| {
                let (item, example) = (self.item, self.example);
                SpecError(format!(
                    "{key}: {item} '{part}' is not KIND:VALUE (try {example})"
                ))
            })?;
            let Some(i) = self.kinds.iter().position(|(name, _)| *name == kind) else {
                let valid: Vec<&str> = self.kinds.iter().map(|(name, _)| *name).collect();
                let (family, valid) = (self.family, valid.join(" "));
                return Err(SpecError(format!(
                    "{key}: unknown {family} kind '{kind}' (valid: {valid})"
                )));
            };
            if std::mem::replace(&mut seen[i], true) {
                return Err(SpecError(format!("{key}: {kind} given twice")));
            }
            (self.kinds[i].1)(&mut plan, value)?;
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAT: Reader = Reader::new("lat", "a number").max(MAX_MS);

    #[test]
    fn numbers_are_finite_and_in_range() {
        assert_eq!(LAT.number::<f64>("20"), Ok(20.0));
        assert_eq!(LAT.number::<f64>("1e9"), Ok(MAX_MS));
        for (text, message) in [
            ("x", "lat: 'x' is not a number"),
            ("", "lat: '' is not a number"),
            ("NaN", "lat: 'NaN' must be finite and non-negative"),
            ("inf", "lat: 'inf' must be finite and non-negative"),
            ("-1", "lat: '-1' must be finite and non-negative"),
            ("1e308", "lat: '1e308' must be at most 1e9"),
        ] {
            assert_eq!(LAT.number::<f64>(text), Err(SpecError(message.into())));
        }
        let count = Reader::new("--ticks", "a non-negative integer");
        assert_eq!(count.number::<usize>("7"), Ok(7));
        assert_eq!(
            count.number::<usize>("-7"),
            Err(SpecError(
                "--ticks: '-7' is not a non-negative integer".into()
            ))
        );
        let rate = Reader::new("poisson rate", "a number").floor(Floor::Positive);
        assert_eq!(
            rate.number::<f64>("0"),
            Err(SpecError(
                "poisson rate: '0' must be finite and positive".into()
            ))
        );
        let k = Reader::new("select", "a count").floor(Floor::Positive);
        let k = k.refusal("select: at least 1");
        assert_eq!(
            k.number::<u32>("0"),
            Err(SpecError("select: at least 1".into()))
        );
    }

    #[test]
    fn times_take_one_optional_ms_suffix_and_stay_bounded() {
        let at = Reader::new("crash time", "a time in ms");
        assert_eq!(at.ms("500"), Ok(500.0));
        assert_eq!(at.ms("500ms"), Ok(500.0));
        for (text, message) in [
            ("5msms", "crash time: '5msms' is not a time in ms"),
            (
                "NaNms",
                "crash time: 'NaNms' must be finite and non-negative",
            ),
            ("1e10ms", "crash time: '1e10ms' must be at most 1e9"),
        ] {
            assert_eq!(at.ms(text), Err(SpecError(message.into())));
        }
        let window = Reader::new("part window", "a time in ms");
        assert_eq!(window.window("5..6ms"), Ok((5.0, 6.0)));
        for (text, message) in [
            ("5ms", "part window: '5ms' is not 'FROMms..TOms'"),
            ("6..5", "part window: end 5ms must come after start 6ms"),
            ("0..1e308ms", "part window: '1e308ms' must be at most 1e9"),
        ] {
            assert_eq!(window.window(text), Err(SpecError(message.into())));
        }
    }

    #[test]
    fn factors_need_their_suffix_and_stay_bounded() {
        let fx = Reader::new("spike factor", "a number");
        assert_eq!(fx.factor("4x"), Ok(4.0));
        assert_eq!(fx.factor("1e6x"), Ok(MAX_FACTOR));
        for (text, message) in [
            ("4", "spike factor '4' needs an 'x' suffix"),
            ("4xx", "spike factor: '4x' is not a number"),
            ("infx", "spike factor: 'inf' must be finite"),
            ("0.5x", "spike factor 0.5 must be at least 1"),
            ("1e308x", "spike factor: '1e308' must be at most 1e6"),
        ] {
            assert_eq!(fx.factor(text), Err(SpecError(message.into())));
        }
    }

    #[derive(Debug, Default, PartialEq)]
    struct Pair {
        a: Option<f64>,
        b: Option<f64>,
    }

    const PAIR: Primitives<Pair> = Primitives {
        key: "pair",
        item: "half",
        example: "'a:1'",
        family: "half",
        kinds: &[
            ("a", |p, v| {
                p.a = Some(Reader::new("pair: a", "a number").number(v)?);
                Ok(())
            }),
            ("b", |p, v| {
                p.b = Some(Reader::new("pair: b", "a number").number(v)?);
                Ok(())
            }),
        ],
    };

    #[test]
    fn the_walker_owns_shape_duplicates_and_unknown_kinds() {
        assert_eq!(PAIR.parse(""), Ok(Pair::default()));
        let both = Pair {
            a: Some(1.0),
            b: Some(2.0),
        };
        assert_eq!(PAIR.parse("b:2,a:1"), Ok(both));
        for (text, message) in [
            ("a", "pair: half 'a' is not KIND:VALUE (try 'a:1')"),
            ("a:1,", "pair: half '' is not KIND:VALUE (try 'a:1')"),
            ("c:1", "pair: unknown half kind 'c' (valid: a b)"),
            ("a:1,a:1", "pair: a given twice"),
            ("a:x", "pair: a: 'x' is not a number"),
        ] {
            assert_eq!(PAIR.parse(text), Err(SpecError(message.into())));
        }
    }
}
