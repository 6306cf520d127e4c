//! # rtmac-suite
//!
//! The workspace umbrella package: hosts the runnable examples under
//! `examples/` and the cross-crate integration tests under `tests/`. Both
//! build their workloads from the simulator's scenario registry
//! ([`rtmac::scenario`]), so the suite runs exactly the configurations the
//! benchmarks and the CLI do.

#[cfg(test)]
mod tests {
    use rtmac::scenario::{self, CONTENDERS};
    use rtmac::PolicySpec;

    #[test]
    fn scenario_builders_produce_valid_networks() {
        assert!(scenario::video(4, 0.5, 0.9, 0)
            .with_policy(PolicySpec::Ldf)
            .network()
            .is_ok());
        assert!(scenario::control(4, 0.5, 0.9, 0)
            .with_policy(PolicySpec::db_dp())
            .network()
            .is_ok());
        assert!(scenario::tiny(0)
            .with_policy(PolicySpec::Fcsma)
            .network()
            .is_ok());
        assert_eq!(CONTENDERS.len(), 3);
    }
}
