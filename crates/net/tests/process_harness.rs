//! A process fleet that cannot be launched leaves nothing behind: the
//! harness stops the daemons it already started and removes its temporary
//! directory. This file is its own test binary, so no other harness call
//! shares the process id the directory is named after.

use std::path::Path;

use rtmac_net::{run_emulation_processes, NetError, NodeConfig};

#[test]
fn a_failed_launch_leaves_no_temp_dir_behind() {
    let sc = rtmac::scenario::by_name("tiny").expect("tiny is a registry scenario");
    let missing = Path::new("/no/such/rtmac-netd");
    let err = run_emulation_processes(&NodeConfig::new(sc, 5), missing)
        .expect_err("a missing daemon cannot be launched");
    assert!(
        matches!(err, NetError::Io(ref m) if m.contains("cannot launch")),
        "{err}"
    );
    let dir = format!("rtmac-netd-emul-{}", std::process::id());
    let leftovers: Vec<_> = std::fs::read_dir(std::env::temp_dir())
        .expect("the temp dir is readable")
        .filter_map(Result::ok)
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|name| *name == dir || name.starts_with(&format!("{dir}-")))
        .collect();
    assert!(leftovers.is_empty(), "left behind: {leftovers:?}");
}
