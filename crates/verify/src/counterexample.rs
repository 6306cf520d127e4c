//! Replayable counterexample traces.
//!
//! A violation found by [`crate::check`] is reported as the full decision
//! log leading from the identity permutation to the failing interval.
//! Traces serialize to a line-oriented text format ([`Counterexample::encode`])
//! that round-trips through [`Counterexample::decode`], so a failing CI
//! run's output can be pasted straight into a regression test and re-run
//! with [`replay`].

use rtmac_mac::PairCoins;
use rtmac_model::Permutation;
use rtmac_phy::PhyProfile;

use crate::checker::{run_checked_step, CheckConfig, Property, StepInput};
use crate::subject::Subject;

/// One fully injected interval: the permutation it started from plus
/// every protocol decision (arrivals, candidate draw, coins, channel
/// outcome bits).
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Priority vector (`priorities()[link] = priority`) before the
    /// interval.
    pub sigma_before: Vec<usize>,
    /// Packets arriving per link.
    pub arrivals: Vec<u32>,
    /// Upper priorities of the drawn swap-candidate pairs.
    pub candidates: Vec<usize>,
    /// One coin pair per drawn candidate.
    pub coins: Vec<PairCoins>,
    /// The channel outcome of every transmission attempt, in order.
    pub bits: Vec<bool>,
}

/// A replayable violation trace: the bounded configuration, the violated
/// [`Property`], and the interval steps from the identity permutation to
/// the failure (the last step is the failing one).
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// The violated property.
    pub property: Property,
    /// Human-readable description of the violation.
    pub detail: String,
    /// Number of links.
    pub n: usize,
    /// Per-link arrival bound of the run that found this.
    pub a_max: u32,
    /// Payload size in bytes.
    pub payload_bytes: u32,
    /// Uniform debt requirement.
    pub q: f64,
    /// The SMC seed that produced this trace, when the statistical
    /// explorer found it (`None` for exhaustive traces).
    pub seed: Option<u64>,
    /// The interval steps; the last one exhibits the violation.
    pub steps: Vec<Step>,
}

impl Counterexample {
    /// The bounded configuration this trace was found under.
    #[must_use]
    pub fn config(&self) -> CheckConfig {
        CheckConfig {
            n: self.n,
            a_max: self.a_max,
            payload_bytes: self.payload_bytes,
            q: self.q,
        }
    }

    /// Serializes the trace to the `rtmac-verify counterexample v1` text
    /// format (inverse of [`Counterexample::decode`]).
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::from("rtmac-verify counterexample v1\n");
        out.push_str(&format!("property = {}\n", self.property.label()));
        out.push_str(&format!(
            "detail = {}\n",
            self.detail.replace(['\n', '\r'], " ")
        ));
        out.push_str(&format!("n = {}\n", self.n));
        out.push_str(&format!("a_max = {}\n", self.a_max));
        out.push_str(&format!("payload = {}\n", self.payload_bytes));
        out.push_str(&format!("q = {}\n", self.q));
        if let Some(seed) = self.seed {
            out.push_str(&format!("seed = {seed}\n"));
        }
        for step in &self.steps {
            out.push_str(&format!(
                "step sigma={} arrivals={} candidates={} coins={} bits={}\n",
                join_usize(&step.sigma_before),
                join_u32(&step.arrivals),
                join_usize(&step.candidates),
                encode_coins(&step.coins),
                encode_bits(&step.bits),
            ));
        }
        out
    }

    /// Parses a trace produced by [`Counterexample::encode`].
    ///
    /// A trace is checked here for the shapes the engine would otherwise
    /// panic on, so that a malformed one is an error and not a panic in
    /// [`replay`]: `n` lies in `2..=20`, the sizes [`crate::check`] and
    /// [`fn@crate::smc`] record, the configuration's deadline fits in `u64`
    /// nanoseconds, and every step has `n` priorities and `n` arrival
    /// counts, sorted, pairwise non-adjacent candidates in `1..n`, and one
    /// coin pair per candidate. Whether σ is a permutation is left to
    /// [`replay`], which reports it as a [`Property::SigmaBijection`]
    /// violation.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line or step.
    pub fn decode(text: &str) -> Result<Counterexample, String> {
        let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
        let header = lines.next().ok_or("empty counterexample text")?;
        if header != "rtmac-verify counterexample v1" {
            return Err(format!("unrecognized header: {header:?}"));
        }
        let mut property = None;
        let mut detail = String::new();
        let mut n = None;
        let mut a_max = None;
        let mut payload = None;
        let mut q = None;
        let mut seed = None;
        let mut steps = Vec::new();
        for line in lines {
            if let Some(rest) = line.strip_prefix("step ") {
                steps.push(decode_step(rest)?);
            } else if let Some((key, value)) = line.split_once(" = ") {
                match key {
                    "property" => {
                        property = Some(
                            Property::from_label(value)
                                .ok_or_else(|| format!("unknown property {value:?}"))?,
                        );
                    }
                    "detail" => detail = value.to_string(),
                    "n" => n = Some(parse_num::<usize>("n", value)?),
                    "a_max" => a_max = Some(parse_num::<u32>("a_max", value)?),
                    "payload" => payload = Some(parse_num::<u32>("payload", value)?),
                    "q" => {
                        let v = parse_num::<f64>("q", value)?;
                        if !v.is_finite() || v < 0.0 {
                            return Err(format!("q must be finite and non-negative, got {value}"));
                        }
                        q = Some(v);
                    }
                    "seed" => seed = Some(parse_num::<u64>("seed", value)?),
                    other => return Err(format!("unknown key {other:?}")),
                }
            } else {
                return Err(format!("malformed line: {line:?}"));
            }
        }
        let ce = Counterexample {
            property: property.ok_or("missing property line")?,
            detail,
            n: n.ok_or("missing n line")?,
            a_max: a_max.ok_or("missing a_max line")?,
            payload_bytes: payload.ok_or("missing payload line")?,
            q: q.ok_or("missing q line")?,
            seed,
            steps,
        };
        if !(2..=20).contains(&ce.n) {
            return Err(format!("n must be in 2..=20, got {}", ce.n));
        }
        if ce.config().deadline(&PhyProfile::ieee80211a()).is_none() {
            return Err(format!(
                "payload {} with a_max {} gives a deadline beyond u64 nanoseconds",
                ce.payload_bytes, ce.a_max
            ));
        }
        for (i, step) in ce.steps.iter().enumerate() {
            check_step(step, ce.n).map_err(|e| format!("step {i}: {e}"))?;
        }
        Ok(ce)
    }
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.encode())
    }
}

/// Re-runs a counterexample trace against `subject`, step by step.
///
/// Returns `Ok(())` if every step satisfies all safety properties (the
/// subject is clean on this trace), or the violation found — which for a
/// faithful reproduction matches the original's property.
///
/// # Errors
///
/// Returns the violating step's property and detail, with the trace
/// truncated at that step.
pub fn replay(subject: &mut dyn Subject, ce: &Counterexample) -> Result<(), Box<Counterexample>> {
    let cfg = ce.config();
    let timing = cfg.timing();
    for (i, step) in ce.steps.iter().enumerate() {
        let sigma = match Permutation::from_priorities(step.sigma_before.clone()) {
            Ok(s) => s,
            Err(e) => {
                return Err(Box::new(Counterexample {
                    property: Property::SigmaBijection,
                    detail: format!("step {i}: starting σ is not a permutation: {e}"),
                    steps: ce.steps[..=i].to_vec(),
                    ..ce.clone()
                }));
            }
        };
        let input = StepInput {
            sigma_before: &sigma,
            arrivals: &step.arrivals,
            candidates: &step.candidates,
            coins: &step.coins,
        };
        let (_bits, verdict) = run_checked_step(subject, &cfg, &timing, &input, step.bits.clone());
        if let Err((property, detail)) = verdict {
            return Err(Box::new(Counterexample {
                property,
                detail: format!("step {i}: {detail}"),
                steps: ce.steps[..=i].to_vec(),
                ..ce.clone()
            }));
        }
    }
    Ok(())
}

fn join_usize(v: &[usize]) -> String {
    let items: Vec<String> = v.iter().map(ToString::to_string).collect();
    format!("[{}]", items.join(","))
}

fn join_u32(v: &[u32]) -> String {
    let items: Vec<String> = v.iter().map(ToString::to_string).collect();
    format!("[{}]", items.join(","))
}

fn encode_coins(coins: &[PairCoins]) -> String {
    let items: Vec<String> = coins
        .iter()
        .map(|c| {
            format!(
                "{}{}",
                if c.hi_up { '+' } else { '-' },
                if c.lo_up { '+' } else { '-' }
            )
        })
        .collect();
    items.join(",")
}

fn encode_bits(bits: &[bool]) -> String {
    if bits.is_empty() {
        return "~".to_string();
    }
    bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid {key} value: {value:?}"))
}

fn decode_list<T: std::str::FromStr>(key: &str, field: &str) -> Result<Vec<T>, String> {
    let inner = field
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("{key} must be bracketed, got {field:?}"))?;
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    inner
        .split(',')
        .map(|item| parse_num::<T>(key, item))
        .collect()
}

fn decode_step(rest: &str) -> Result<Step, String> {
    let mut sigma = None;
    let mut arrivals = None;
    let mut candidates = None;
    let mut coins = None;
    let mut bits = None;
    for field in rest.split_whitespace() {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| format!("malformed step field {field:?}"))?;
        match key {
            "sigma" => sigma = Some(decode_list::<usize>("sigma", value)?),
            "arrivals" => arrivals = Some(decode_list::<u32>("arrivals", value)?),
            "candidates" => candidates = Some(decode_list::<usize>("candidates", value)?),
            "coins" => coins = Some(decode_coins(value)?),
            "bits" => bits = Some(decode_bits(value)?),
            other => return Err(format!("unknown step field {other:?}")),
        }
    }
    Ok(Step {
        sigma_before: sigma.ok_or("step missing sigma")?,
        arrivals: arrivals.ok_or("step missing arrivals")?,
        candidates: candidates.ok_or("step missing candidates")?,
        coins: coins.ok_or("step missing coins")?,
        bits: bits.ok_or("step missing bits")?,
    })
}

/// Checks a decoded step's shape against the trace's `n` links.
fn check_step(step: &Step, n: usize) -> Result<(), String> {
    if step.sigma_before.len() != n {
        return Err(format!(
            "sigma has {} entries for n = {n}",
            step.sigma_before.len()
        ));
    }
    if step.arrivals.len() != n {
        return Err(format!(
            "arrivals has {} entries for n = {n}",
            step.arrivals.len()
        ));
    }
    let c = &step.candidates;
    if c.iter().any(|&p| !(1..n).contains(&p)) || c.windows(2).any(|w| w[1] < w[0] + 2) {
        return Err(format!(
            "candidates {c:?} must be sorted, pairwise non-adjacent and in 1..{n}"
        ));
    }
    if step.coins.len() != c.len() {
        return Err(format!(
            "{} coin pair(s) for {} candidate(s)",
            step.coins.len(),
            c.len()
        ));
    }
    Ok(())
}

fn decode_coins(field: &str) -> Result<Vec<PairCoins>, String> {
    if field.is_empty() {
        return Ok(Vec::new());
    }
    field
        .split(',')
        .map(|pair| {
            let mut chars = pair.chars();
            let hi = chars.next();
            let lo = chars.next();
            match (hi, lo, chars.next()) {
                (Some(h @ ('+' | '-')), Some(l @ ('+' | '-')), None) => Ok(PairCoins {
                    hi_up: h == '+',
                    lo_up: l == '+',
                }),
                _ => Err(format!("coin pair must be two of '+'/'-', got {pair:?}")),
            }
        })
        .collect()
}

fn decode_bits(field: &str) -> Result<Vec<bool>, String> {
    if field == "~" {
        return Ok(Vec::new());
    }
    field
        .chars()
        .map(|c| match c {
            '1' => Ok(true),
            '0' => Ok(false),
            other => Err(format!("channel bit must be '0' or '1', got {other:?}")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Counterexample {
        Counterexample {
            property: Property::SwapDiscipline,
            detail: "example\nwith newline".to_string(),
            n: 3,
            a_max: 2,
            payload_bytes: 100,
            q: 0.7,
            seed: Some(2018),
            steps: vec![
                Step {
                    sigma_before: vec![1, 2, 3],
                    arrivals: vec![0, 2, 1],
                    candidates: vec![1],
                    coins: vec![PairCoins {
                        hi_up: true,
                        lo_up: false,
                    }],
                    bits: vec![true, false, true],
                },
                Step {
                    sigma_before: vec![2, 1, 3],
                    arrivals: vec![0, 0, 0],
                    candidates: vec![2],
                    coins: vec![PairCoins {
                        hi_up: false,
                        lo_up: false,
                    }],
                    bits: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let ce = sample();
        let text = ce.encode();
        assert!(text.contains("property = swap-discipline"));
        assert!(text.contains("detail = example with newline"));
        assert!(text.contains("seed = 2018"));
        assert!(
            text.contains("step sigma=[1,2,3] arrivals=[0,2,1] candidates=[1] coins=+- bits=101")
        );
        assert!(text.contains("coins=-- bits=~"));
        let decoded = Counterexample::decode(&text).unwrap();
        let mut expected = ce.clone();
        expected.detail = "example with newline".to_string();
        assert_eq!(decoded, expected);
        assert_eq!(decoded.config(), CheckConfig::new(3, 2));
        assert_eq!(ce.to_string(), text);
    }

    #[test]
    fn decode_rejects_malformed_input() {
        assert!(Counterexample::decode("").is_err());
        assert!(Counterexample::decode("something else\n").is_err());
        let missing = "rtmac-verify counterexample v1\nproperty = empty-claim\n";
        assert!(Counterexample::decode(missing)
            .unwrap_err()
            .contains("missing n"));
        let bad_coin = sample().encode().replace("+-", "+?");
        assert!(Counterexample::decode(&bad_coin).is_err());
        let bad_bits = sample().encode().replace("bits=101", "bits=1x1");
        assert!(Counterexample::decode(&bad_bits).is_err());
        let bad_q = sample().encode().replace("q = 0.7", "q = NaN");
        assert!(Counterexample::decode(&bad_q).is_err());
    }

    /// `sample()`'s text with `from` replaced by `to`, decoded.
    fn decode_edited(from: &str, to: &str) -> Result<Counterexample, String> {
        let text = sample().encode();
        assert!(text.contains(from), "{from:?} is not in the sample");
        Counterexample::decode(&text.replacen(from, to, 1))
    }

    /// A trace over `n` links, each with one arrival, whose one step
    /// starts from the identity and draws `candidates` with `coins`.
    fn decode_at(n: usize, candidates: &str, coins: &str) -> Result<Counterexample, String> {
        let ones = vec!["1"; n].join(",");
        let sigma: Vec<String> = (1..=n).map(|p| p.to_string()).collect();
        Counterexample::decode(&format!(
            "rtmac-verify counterexample v1\nproperty = swap-discipline\nn = {n}\n\
             a_max = 1\npayload = 100\nq = 0.7\nstep sigma=[{}] arrivals=[{ones}] \
             candidates={candidates} coins={coins} bits=~\n",
            sigma.join(",")
        ))
    }

    #[test]
    fn decode_bounds_the_link_count() {
        assert!(decode_at(2, "[1]", "++").is_ok());
        assert!(decode_at(20, "[1,19]", "++,--").is_ok());
        // Decoding builds nothing per link, so a huge n is rejected
        // without allocating an engine.
        for n in ["0", "1", "21", "1000000000"] {
            let err = decode_edited("n = 3", &format!("n = {n}")).unwrap_err();
            assert!(err.contains("2..=20"), "n = {n}: {err}");
        }
    }

    #[test]
    fn decode_rejects_steps_the_engine_would_panic_on() {
        let cases = [
            // σ and arrivals have one entry per link.
            ("sigma=[1,2,3] ", "sigma=[1,2] ", "sigma has 2 entries"),
            ("sigma=[2,1,3] ", "sigma=[2,1,3,4] ", "sigma has 4 entries"),
            ("arrivals=[0,2,1]", "arrivals=[0,2]", "arrivals has 2"),
            // A candidate is the upper priority of a pair within 1..=n.
            ("candidates=[1]", "candidates=[5]", "in 1..3"),
            ("candidates=[1]", "candidates=[0]", "in 1..3"),
            ("candidates=[2]", "candidates=[3]", "in 1..3"),
            // One coin pair per candidate.
            ("coins=+- ", "coins= ", "0 coin pair(s) for 1"),
            ("coins=+- ", "coins=+-,++ ", "2 coin pair(s) for 1"),
            // A payload whose airtime overflows.
            ("payload = 100", "payload = 4294967295", "beyond u64"),
        ];
        for (from, to, want) in cases {
            let err = decode_edited(from, to).unwrap_err();
            assert!(err.contains(want), "{from:?} -> {to:?}: {err}");
        }
        assert!(decode_at(5, "[1,3]", "++,--").is_ok());
        assert!(decode_at(5, "[2,4]", "+-,-+").is_ok());
        for (bad, coins) in [("[3,1]", "++,++"), ("[1,2]", "++,++"), ("[2,2]", "++,++")] {
            let err = decode_at(5, bad, coins).unwrap_err();
            assert!(
                err.contains("sorted, pairwise non-adjacent"),
                "{bad}: {err}"
            );
        }
    }
}
