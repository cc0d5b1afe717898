//! Every library crate of the workspace forbids unsafe code.

#[test]
fn every_library_forbids_unsafe_code() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut libs = vec![root.join("src/lib.rs")];
    for dir in std::fs::read_dir(root.join("crates")).expect("read crates/") {
        libs.push(dir.expect("crate directory").path().join("src/lib.rs"));
    }
    libs.retain(|lib| lib.exists());
    assert!(libs.len() > 10, "found only {libs:?}");
    for lib in libs {
        let text = std::fs::read_to_string(&lib).expect("read lib.rs");
        let forbids = text
            .lines()
            .any(|l| l.starts_with("#![forbid(unsafe_code)]"));
        assert!(forbids, "{} lacks #![forbid(unsafe_code)]", lib.display());
    }
}
