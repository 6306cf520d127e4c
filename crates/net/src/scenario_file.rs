//! On-disk scenario descriptions for `rtmac-netd`.
//!
//! Every node of a deployment must construct an *identical* [`Scenario`]
//! — the handshake digests it — so the daemon accepts either a registry
//! name (`rtmac::scenario::by_name`) or a file in a deliberately tiny
//! `key = value` format that [`render`] and [`parse`] round-trip exactly:
//! `parse(&render(sc)?)? == sc` for every renderable scenario, and
//! rendering refuses (with [`NetError::Unsupported`]) any scenario the
//! format cannot represent losslessly (fault injection, admission
//! control, tracking, multi-replication runs, non-default policy
//! parameterizations).
//!
//! ```text
//! # one key per line; '#' starts a comment
//! links = 10
//! deadline_us = 2000
//! payload_bytes = 100
//! success = 0.9            # or a comma list: 0.9,0.8,...
//! traffic = bernoulli:0.6  # or burst:0.25:6 | constant
//! ratio = 0.99
//! policy = db-dp           # db-dp | db-dp:pairs=K | ldf | eldf | fcsma
//!                          #   | dcf | frame-csma | frame-csma:slots=K | fixed
//! intervals = 1000
//! seed = 2018
//! engine = timeline        # timeline | batched (optional; inert, see EngineSpec)
//! ```

use rtmac::scenario::{by_name, EngineSpec, Param, Scenario, TrafficSpec};
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
    if sc.replications != 1 {
        return Err(unsupported("multiple replications"));
    }
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
    field("success", render_param(&sc.success));
    field("traffic", render_traffic(&sc.traffic)?);
    field("ratio", render_param(&sc.ratio));
    field("policy", render_policy(&sc.policy)?);
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

fn render_param(p: &Param) -> String {
    match p {
        Param::Uniform(v) => v.to_string(),
        // A trailing comma keeps a one-element per-link vector distinct
        // from a uniform value, so parse(render(x)) == x holds.
        Param::PerLink(v) if v.len() == 1 => format!("{},", v[0]),
        Param::PerLink(v) => v.iter().map(f64::to_string).collect::<Vec<_>>().join(","),
    }
}

fn render_traffic(t: &TrafficSpec) -> Result<String, NetError> {
    Ok(match t {
        TrafficSpec::Constant => "constant".to_string(),
        TrafficSpec::Bernoulli { lambda } => format!("bernoulli:{}", render_param(lambda)),
        TrafficSpec::Burst { alpha, burst_max } => {
            format!("burst:{}:{burst_max}", render_param(alpha))
        }
    })
}

fn render_policy(p: &PolicySpec) -> Result<String, NetError> {
    if let PolicySpec::DbDp { swap_pairs, .. } = p {
        if *p == PolicySpec::db_dp() {
            return Ok("db-dp".to_string());
        }
        if *p == PolicySpec::db_dp_pairs(*swap_pairs) {
            return Ok(format!("db-dp:pairs={swap_pairs}"));
        }
        return Err(unsupported("a non-default DB-DP parameterization"));
    }
    if let PolicySpec::FrameCsma { control_slots, .. } = p {
        if *p == PolicySpec::frame_csma() {
            return Ok("frame-csma".to_string());
        }
        let canonical = match PolicySpec::frame_csma() {
            PolicySpec::FrameCsma { influence, .. } => PolicySpec::FrameCsma {
                influence,
                control_slots: *control_slots,
            },
            _ => unreachable!("frame_csma() constructs FrameCsma"),
        };
        if *p == canonical {
            return Ok(format!("frame-csma:slots={control_slots}"));
        }
        return Err(unsupported("a non-default frame-CSMA parameterization"));
    }
    Ok(match p {
        PolicySpec::Ldf => "ldf",
        PolicySpec::Fcsma => "fcsma",
        PolicySpec::Dcf => "dcf",
        PolicySpec::FixedPriority => "fixed",
        PolicySpec::Eldf { .. } => {
            if *p == PolicySpec::eldf() {
                "eldf"
            } else {
                return Err(unsupported("a non-default ELDF parameterization"));
            }
        }
        PolicySpec::DbDp { .. } | PolicySpec::FrameCsma { .. } => {
            unreachable!("handled above")
        }
    }
    .to_string())
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
    // Start from a registry scenario so defaults (replications = 1, no
    // fault/admission/track) are shared, then overwrite every field the
    // format carries.
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
            "success" => sc.success = parse_param(lineno, value)?,
            "traffic" => sc.traffic = parse_traffic(lineno, value)?,
            "ratio" => sc.ratio = parse_param(lineno, value)?,
            "policy" => sc.policy = parse_policy(lineno, value)?,
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

fn parse_param(line: usize, value: &str) -> Result<Param, NetError> {
    if value.contains(',') {
        let mut out = Vec::new();
        for part in value.split(',').filter(|p| !p.trim().is_empty()) {
            out.push(
                part.trim()
                    .parse::<f64>()
                    .map_err(|_| parse_err(line, &format!("bad number `{part}`")))?,
            );
        }
        if out.is_empty() {
            return Err(parse_err(line, "empty per-link list"));
        }
        Ok(Param::PerLink(out))
    } else {
        Ok(Param::Uniform(value.parse::<f64>().map_err(|_| {
            parse_err(line, &format!("bad number `{value}`"))
        })?))
    }
}

fn parse_traffic(line: usize, value: &str) -> Result<TrafficSpec, NetError> {
    if value == "constant" {
        return Ok(TrafficSpec::Constant);
    }
    if let Some(lambda) = value.strip_prefix("bernoulli:") {
        return Ok(TrafficSpec::Bernoulli {
            lambda: parse_param(line, lambda)?,
        });
    }
    if let Some(rest) = value.strip_prefix("burst:") {
        let Some((alpha, burst_max)) = rest.rsplit_once(':') else {
            return Err(parse_err(line, "burst traffic needs `burst:<alpha>:<max>`"));
        };
        return Ok(TrafficSpec::Burst {
            alpha: parse_param(line, alpha)?,
            burst_max: parse_num(line, "burst_max", burst_max)?,
        });
    }
    Err(parse_err(
        line,
        &format!("unknown traffic `{value}` (constant, bernoulli:<λ>, burst:<α>:<max>)"),
    ))
}

fn parse_policy(line: usize, value: &str) -> Result<PolicySpec, NetError> {
    match value {
        "db-dp" => return Ok(PolicySpec::db_dp()),
        "ldf" => return Ok(PolicySpec::Ldf),
        "eldf" => return Ok(PolicySpec::eldf()),
        "fcsma" => return Ok(PolicySpec::Fcsma),
        "dcf" => return Ok(PolicySpec::Dcf),
        "frame-csma" => return Ok(PolicySpec::frame_csma()),
        "fixed" => return Ok(PolicySpec::FixedPriority),
        _ => {}
    }
    if let Some(pairs) = value.strip_prefix("db-dp:pairs=") {
        return Ok(PolicySpec::db_dp_pairs(parse_num(line, "pairs", pairs)?));
    }
    if let Some(slots) = value.strip_prefix("frame-csma:slots=") {
        let control_slots = parse_num(line, "slots", slots)?;
        return Ok(match PolicySpec::frame_csma() {
            PolicySpec::FrameCsma { influence, .. } => PolicySpec::FrameCsma {
                influence,
                control_slots,
            },
            _ => unreachable!("frame_csma() constructs FrameCsma"),
        });
    }
    Err(parse_err(line, &format!("unknown policy `{value}`")))
}

/// Resolves a CLI `--scenario` value: a registry name first, then a file
/// path.
///
/// # Errors
///
/// Returns [`NetError::Io`] when the file cannot be read and
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
        NetError::Io(format!(
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
    fn per_link_vectors_survive_even_with_one_entry() {
        let mut sc = scenario::by_name("tiny").unwrap().with_links(1);
        sc.success = Param::PerLink(vec![0.75]);
        sc.ratio = Param::PerLink(vec![0.5]);
        let back = parse(&render(&sc).unwrap()).unwrap();
        assert_eq!(back.success, Param::PerLink(vec![0.75]));
        assert_eq!(back.ratio, Param::PerLink(vec![0.5]));
    }

    #[test]
    fn policy_spellings_round_trip() {
        for policy in [
            rtmac::PolicySpec::db_dp(),
            rtmac::PolicySpec::db_dp_pairs(4),
            rtmac::PolicySpec::Ldf,
            rtmac::PolicySpec::eldf(),
            rtmac::PolicySpec::Fcsma,
            rtmac::PolicySpec::Dcf,
            rtmac::PolicySpec::frame_csma(),
            rtmac::PolicySpec::FixedPriority,
        ] {
            let sc = scenario::by_name("tiny").unwrap().with_policy(policy);
            let back = parse(&render(&sc).unwrap()).unwrap();
            assert_eq!(back.policy, policy);
        }
    }

    #[test]
    fn bad_inputs_name_their_line() {
        let err = parse("links = 3\nwat\n").unwrap_err();
        assert!(matches!(err, NetError::Parse { line: 2, .. }));
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
        let sc = scenario::by_name("tiny").unwrap().with_replications(5);
        assert!(matches!(render(&sc), Err(NetError::Unsupported(_))));
    }

    #[test]
    fn load_prefers_the_registry() {
        assert_eq!(load("video20").unwrap().name, "video20");
    }
}
