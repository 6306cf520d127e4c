//! On-disk scenario descriptions for `rtmac-netd`.
//!
//! Every node of a deployment must construct an *identical* [`Scenario`]
//! — the handshake digests it — so the daemon accepts either a registry
//! name (`rtmac::scenario::by_name`) or a file in a deliberately tiny
//! `key = value` format that [`render`] and [`parse`] round-trip exactly:
//! `parse(&render(sc)?)? == sc` for every renderable scenario, and
//! rendering refuses (with [`NetError::Unsupported`]) any scenario the
//! format cannot represent losslessly (fault injection, admission
//! control, tracking, non-default policy parameterizations).
//!
//! ```text
//! # one key per line; '#' starts a comment
//! links = 10
//! deadline_us = 2000
//! payload_bytes = 100
//! success = 0.9            # or a per-link list: 0.9,0.8,...
//! traffic = bernoulli:0.6  # or burst:0.25:6 | burst:0.25 | constant
//! ratio = 0.99
//! policy = db-dp           # db-dp | db-dp:pairs=K | ldf | eldf | fcsma
//!                          #   | dcf | frame-csma | frame-csma:slots=K | fixed
//! intervals = 1000
//! seed = 2018
//! engine = timeline        # timeline | batched (optional; inert, see EngineSpec)
//! ```
//!
//! The values of `success`, `ratio`, `traffic` and `policy` are spelled
//! as everywhere else: [`Param`], [`TrafficSpec`] and [`PolicySpec`]
//! parse and render them, and the `rtmac` CLI's `--p`, `--ratio`,
//! `--arrivals` and `--policy` take the same spellings. Rendering is
//! canonical (a burst always names its maximum; `dbdp` and `framecsma`
//! render as `db-dp` and `frame-csma`).

use rtmac::scenario::{by_name, EngineSpec, Param, ParseError, Scenario, TrafficSpec};
use rtmac::PolicySpec;

use crate::error::NetError;

/// Renders a scenario to the file format.
///
/// # Errors
///
/// Returns [`NetError::Unsupported`] when the scenario uses features the
/// format cannot represent (see the module docs) — rendering such a
/// scenario lossily would let two nodes silently run different
/// experiments.
///
/// # Example
///
/// ```
/// use rtmac_net::scenario_file;
///
/// let sc = rtmac::scenario::by_name("control10").unwrap();
/// let text = scenario_file::render(&sc).unwrap();
/// assert!(text.contains("links = 10"));
/// ```
pub fn render(sc: &Scenario) -> Result<String, NetError> {
    if sc.fault.is_some() {
        return Err(unsupported("fault injection"));
    }
    if sc.admission.is_some() {
        return Err(unsupported("admission control"));
    }
    if sc.track.is_some() {
        return Err(unsupported("throughput tracking"));
    }
    let policy = sc.policy.render().ok_or_else(|| {
        unsupported(&format!(
            "a non-default {} parameterization",
            sc.policy.label()
        ))
    })?;
    let mut out = String::from("# rtmac-netd scenario\n");
    let mut field = |key: &str, value: String| {
        out.push_str(key);
        out.push_str(" = ");
        out.push_str(&value);
        out.push('\n');
    };
    field("links", sc.links.to_string());
    field("deadline_us", sc.deadline_us.to_string());
    field("payload_bytes", sc.payload_bytes.to_string());
    field("success", sc.success.render());
    field("traffic", sc.traffic.render());
    field("ratio", sc.ratio.render());
    field("policy", policy);
    field("intervals", sc.intervals.to_string());
    field("seed", sc.seed.to_string());
    field("engine", sc.engine.label().to_string());
    Ok(out)
}

fn unsupported(what: &str) -> NetError {
    NetError::Unsupported(format!(
        "{what} cannot be expressed in the scenario file format"
    ))
}

/// Parses the file format back into a scenario (named `"custom"`).
///
/// # Errors
///
/// Returns [`NetError::Parse`] with the offending line number for unknown
/// keys, bad values, or missing required keys.
///
/// # Example
///
/// ```
/// use rtmac_net::scenario_file;
///
/// let sc = rtmac::scenario::by_name("video20").unwrap();
/// let back = scenario_file::parse(&scenario_file::render(&sc).unwrap()).unwrap();
/// assert_eq!(back.name, "custom");
/// assert_eq!(back.links, sc.links);
/// ```
pub fn parse(text: &str) -> Result<Scenario, NetError> {
    // Start from a registry scenario so defaults (no fault/admission/track)
    // are shared, then overwrite every field the format carries.
    let mut sc = by_name("tiny").ok_or_else(|| NetError::Config("registry lost tiny".into()))?;
    sc.name = "custom";
    sc.engine = EngineSpec::default();
    let mut present = [false; 9];
    const KEYS: [&str; 9] = [
        "links",
        "deadline_us",
        "payload_bytes",
        "success",
        "traffic",
        "ratio",
        "policy",
        "intervals",
        "seed",
    ];
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(parse_err(lineno, "expected `key = value`"));
        };
        let (key, value) = (key.trim(), value.trim());
        if let Some(slot) = KEYS.iter().position(|&k| k == key) {
            present[slot] = true;
        }
        match key {
            "links" => sc.links = parse_num(lineno, key, value)?,
            "deadline_us" => sc.deadline_us = parse_num(lineno, key, value)?,
            "payload_bytes" => sc.payload_bytes = parse_num(lineno, key, value)?,
            "success" => sc.success = spelled(lineno, key, Param::parse(value))?,
            "traffic" => sc.traffic = spelled(lineno, key, TrafficSpec::parse(value))?,
            "ratio" => sc.ratio = spelled(lineno, key, Param::parse(value))?,
            "policy" => sc.policy = spelled(lineno, key, PolicySpec::parse(value))?,
            "intervals" => sc.intervals = parse_num(lineno, key, value)?,
            "seed" => sc.seed = parse_num(lineno, key, value)?,
            "engine" => {
                sc.engine = match value {
                    "timeline" => EngineSpec::Timeline,
                    "batched" => EngineSpec::Batched,
                    other => {
                        return Err(parse_err(
                            lineno,
                            &format!("unknown engine `{other}` (timeline, batched)"),
                        ))
                    }
                }
            }
            other => return Err(parse_err(lineno, &format!("unknown key `{other}`"))),
        }
    }
    for (slot, key) in KEYS.iter().enumerate() {
        if !present[slot] {
            return Err(parse_err(0, &format!("missing required key `{key}`")));
        }
    }
    Ok(sc)
}

fn parse_err(line: usize, msg: &str) -> NetError {
    NetError::Parse {
        line,
        msg: msg.to_string(),
    }
}

fn parse_num<T: std::str::FromStr>(line: usize, key: &str, value: &str) -> Result<T, NetError> {
    value
        .parse()
        .map_err(|_| parse_err(line, &format!("bad {key} value `{value}`")))
}

fn spelled<T>(line: usize, key: &str, value: Result<T, ParseError>) -> Result<T, NetError> {
    value.map_err(|e| parse_err(line, &format!("bad {key} value: {e}")))
}

/// Resolves a CLI `--scenario` value: a registry name first, then a file
/// path.
///
/// # Errors
///
/// Returns [`NetError::Config`] when the file cannot be read and
/// [`NetError::Parse`] when its contents do not parse.
///
/// # Example
///
/// ```
/// use rtmac_net::scenario_file;
///
/// assert_eq!(scenario_file::load("control10").unwrap().links, 10);
/// assert!(scenario_file::load("/no/such/file").is_err());
/// ```
pub fn load(spec: &str) -> Result<Scenario, NetError> {
    if let Some(sc) = by_name(spec) {
        return Ok(sc);
    }
    let text = std::fs::read_to_string(spec).map_err(|e| {
        NetError::Config(format!(
            "`{spec}` is neither a registry scenario nor a readable file: {e}"
        ))
    })?;
    parse(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtmac::scenario;

    #[test]
    fn every_registry_scenario_round_trips_or_is_rejected() {
        for name in scenario::NAMES {
            let sc = scenario::by_name(name).unwrap();
            match render(&sc) {
                Ok(text) => {
                    let back = parse(&text).unwrap();
                    let mut canonical = sc.clone();
                    canonical.name = "custom";
                    assert_eq!(back, canonical, "{name} did not round-trip");
                }
                Err(NetError::Unsupported(_)) => {
                    // Fault/admission scenarios are rejected by design.
                    assert!(
                        sc.fault.is_some() || sc.admission.is_some() || sc.track.is_some(),
                        "{name} was rejected without cause"
                    );
                }
                Err(e) => panic!("{name}: unexpected error {e}"),
            }
        }
    }

    #[test]
    fn every_spelling_of_the_shared_grammar_is_accepted() {
        let text = render(&scenario::by_name("tiny").unwrap())
            .unwrap()
            .replace("traffic = constant", "traffic = burst:0.5")
            .replace("policy = db-dp", "policy = framecsma");
        // Rendering is canonical.
        let again = render(&parse(&text).unwrap()).unwrap();
        assert!(again.contains("traffic = burst:0.5:6\n"), "{again}");
        assert!(again.contains("policy = frame-csma\n"), "{again}");
    }

    #[test]
    fn bad_inputs_name_their_line() {
        let err = parse("links = 3\nwat\n").unwrap_err();
        assert!(matches!(err, NetError::Parse { line: 2, .. }));
        // A misspelled value names its key, its text and the accepted forms.
        let text = render(&scenario::by_name("tiny").unwrap())
            .unwrap()
            .replace("policy = db-dp", "policy = tdma");
        match parse(&text).unwrap_err() {
            NetError::Parse { line: 8, msg } => {
                assert!(msg.contains("policy") && msg.contains("`tdma`"), "{msg}");
                assert!(msg.contains("frame-csma:slots=K"), "{msg}");
            }
            e => panic!("unexpected error {e}"),
        }
        let err = parse("nonsense = 1\n").unwrap_err();
        assert!(matches!(err, NetError::Parse { line: 1, .. }));
        // Missing keys are reported too.
        assert!(matches!(parse("links = 3\n"), Err(NetError::Parse { .. })));
    }

    #[test]
    fn unsupported_features_refuse_to_render() {
        let sc = scenario::by_name("tiny")
            .unwrap()
            .with_fault(rtmac::FaultSpec::sensing(0.01));
        assert!(matches!(render(&sc), Err(NetError::Unsupported(_))));
        let sc = scenario::by_name("tiny").unwrap().with_track(0, 0.05);
        assert!(matches!(render(&sc), Err(NetError::Unsupported(_))));
    }

    /// Values that parse but overflow the simulated time arithmetic are
    /// a typed error from `network()`, never a panic (debug) or a silent
    /// wrap (release).
    #[test]
    fn out_of_range_file_is_a_config_error_not_a_panic() {
        use rtmac::model::ConfigError;
        let base = render(&scenario::by_name("tiny").unwrap()).unwrap();
        let with = |key: &str, value: &str| {
            let text: String = base
                .lines()
                .map(|l| {
                    if l.starts_with(key) {
                        format!("{key} = {value}\n")
                    } else {
                        format!("{l}\n")
                    }
                })
                .collect();
            parse(&text).expect("in-range integers parse")
        };
        for (key, value, name) in [
            ("deadline_us", "18446744073709552", "deadline_us"),
            ("deadline_us", "18446744073709551615", "deadline_us"),
            (
                "payload_bytes",
                "4294967295",
                "payload_bytes (frame airtime)",
            ),
        ] {
            match with(key, value).network() {
                Err(ConfigError::Overflow { name: got, .. }) => assert_eq!(got, name),
                Err(e) => panic!("{key} = {value}: unexpected error {e}"),
                Ok(_) => panic!("{key} = {value}: built a network"),
            }
        }
        // A deadline shorter than one backoff slot parses but cannot run.
        assert!(matches!(
            with("deadline_us", "8").network(),
            Err(ConfigError::InvalidParameter { .. })
        ));
        // The largest representable values still build.
        assert!(with("deadline_us", "18446744073709551").network().is_ok());
        assert!(with("payload_bytes", "4294967267").network().is_ok());
    }

    #[test]
    fn load_prefers_the_registry() {
        assert_eq!(load("video20").unwrap().name, "video20");
    }
}
