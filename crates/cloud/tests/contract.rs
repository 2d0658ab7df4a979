//! One conformance suite, four backends and the composed stack.
//!
//! `cloud_contract_tests!` (see `unidrive_cloud::contract`) expands the
//! same behavioral checks against every [`CloudStore`] implementation
//! the workspace ships, and against a full `CloudBuilder` decorator
//! stack: the checks are identical, only the *driver* — how a fresh
//! store is built and torn down — differs.
//! A backend that needs special semantics gets no carve-outs here;
//! passing this file is what "implements `CloudStore`" means.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use unidrive_cloud::{
    cloud_contract_tests, CloudBuilder, CloudHealth, CloudStore, FaultPlan, HealthConfig,
    LocalDirCloud, MemCloud, MockS3, S3Cloud, S3Endpoint, SimCloud, SimCloudConfig,
};
use unidrive_sim::{RealRuntime, Runtime, SimRuntime};

/// Instantaneous in-memory reference backend.
mod mem {
    use super::*;

    cloud_contract_tests!(|check: fn(&dyn CloudStore)| {
        check(&MemCloud::new("mem"));
    });
}

/// Real bytes on disk, each check in its own scratch directory.
mod local {
    use super::*;

    static NEXT_DIR: AtomicU32 = AtomicU32::new(0);

    cloud_contract_tests!(|check: fn(&dyn CloudStore)| {
        let dir = std::env::temp_dir().join(format!(
            "unidrive-contract-{}-{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        let cloud = LocalDirCloud::create("local", &dir).expect("scratch dir");
        check(&cloud);
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// The simulated-network backend under a deterministic virtual clock.
mod sim {
    use super::*;

    cloud_contract_tests!(|check: fn(&dyn CloudStore)| {
        let sim = SimRuntime::new(0xc047ac7);
        let cloud = SimCloud::new(&sim, "sim", SimCloudConfig::steady(64e6, 64e6));
        check(&cloud);
    });
}

/// The HTTP backend, each check against its own in-process `MockS3`.
mod s3 {
    use super::*;

    cloud_contract_tests!(|check: fn(&dyn CloudStore)| {
        let server = MockS3::start().expect("bind mock server");
        // A one-key listing page forces every multi-entry directory in
        // the suite through the IsTruncated/NextContinuationToken chain.
        server.set_page_size(1);
        let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
        let endpoint = S3Endpoint::new("s3", server.addr(), "contract-bucket");
        let cloud = S3Cloud::connect(&rt, &endpoint, 2);
        check(&cloud);
    });
}

/// Every builder stage over the in-memory backend: a shaper that never
/// engages, chaos with an empty plan and outermost observation must
/// leave all five ops (and `append`) semantically transparent.
mod stack {
    use super::*;

    cloud_contract_tests!(|check: fn(&dyn CloudStore)| {
        let rt = SimRuntime::new(0x57ac).as_runtime();
        let built = CloudBuilder::new(&rt, Arc::new(MemCloud::new("stack")))
            .qps(1_000_000, 1_000_000)
            .chaos(&FaultPlan::new(1), "contract")
            .observed(CloudHealth::new("stack", HealthConfig::default()))
            .build();
        check(&*built.store);
    });
}
