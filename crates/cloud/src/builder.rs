//! Builder-composed decorator stacks over any [`CloudStore`].
//!
//! Order matters: observation *outside* everything times what the
//! caller actually experienced (injected faults included), and rate
//! shaping belongs *inside* chaos so throttle delays can themselves be
//! disturbed and an injected rejection costs no token.
//! [`CloudBuilder`] is the one construction path and fixes the
//! canonical order once:
//!
//! ```text
//! base → QpsShaper → ChaosCloud → ObservedCloud
//! ```
//!
//! Retry is deliberately not a stage: the sync engine and the
//! call-site [`Retry`](crate::Retry) own it, so a store-level loop
//! would double every retry.
//!
//! Every stage is optional; setters may be called in any order and the
//! stack still composes canonically. [`build`](CloudBuilder::build)
//! returns the composed store plus the [`ChaosCloud`] handle (when
//! configured) so harnesses keep access to fault accounting and the
//! availability switch.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use unidrive_cloud::{CloudBuilder, CloudStore, FaultPlan, MemCloud};
//! use unidrive_sim::{RealRuntime, Runtime};
//!
//! let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
//! let built = CloudBuilder::new(&rt, Arc::new(MemCloud::new("m")))
//!     .qps(100, 10)
//!     .chaos(&FaultPlan::new(7), "demo")
//!     .build();
//! assert_eq!(built.store.name(), "m");
//! assert!(built.chaos.is_some());
//! ```

use std::sync::Arc;

use unidrive_obs::Obs;
use unidrive_sim::Runtime;

use crate::health::CloudHealth;
use crate::qps::QpsShaper;
use crate::{ChaosCloud, CloudStore, FaultPlan, ObservedCloud};

/// The composed stack plus handles to stages that stay interactive.
pub struct BuiltCloud {
    /// The outermost store of the composed stack.
    pub store: Arc<dyn CloudStore>,
    /// The fault injector, when [`CloudBuilder::chaos`] was configured
    /// (harnesses need [`ChaosCloud::injected_faults`],
    /// [`ChaosCloud::set_available`], and the flat-probability knob).
    pub chaos: Option<Arc<ChaosCloud>>,
}

impl std::fmt::Debug for BuiltCloud {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuiltCloud")
            .field("store", &self.store.name())
            .field("chaos", &self.chaos.is_some())
            .finish()
    }
}

/// Composes decorators over a base store in the canonical order; see
/// the [module docs](self).
#[must_use = "CloudBuilder does nothing until .build() is called"]
pub struct CloudBuilder {
    rt: Arc<dyn Runtime>,
    base: Arc<dyn CloudStore>,
    qps: Option<(u64, u64)>,
    chaos: Option<(FaultPlan, String)>,
    observed: Option<Arc<CloudHealth>>,
    obs: Option<Obs>,
}

impl std::fmt::Debug for CloudBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudBuilder")
            .field("base", &self.base.name())
            .field("qps", &self.qps.is_some())
            .field("chaos", &self.chaos.is_some())
            .field("observed", &self.observed.is_some())
            .finish()
    }
}

impl CloudBuilder {
    /// Starts a stack over `base`; with no stages configured,
    /// [`build`](CloudBuilder::build) returns `base` unchanged.
    pub fn new(rt: &Arc<dyn Runtime>, base: Arc<dyn CloudStore>) -> CloudBuilder {
        CloudBuilder {
            rt: Arc::clone(rt),
            base,
            qps: None,
            chaos: None,
            observed: None,
            obs: None,
        }
    }

    /// Adds request-rate shaping: `rate_per_sec` requests sustained,
    /// `burst` of headroom (see [`QpsShaper`]).
    pub fn qps(mut self, rate_per_sec: u64, burst: u64) -> CloudBuilder {
        self.qps = Some((rate_per_sec, burst));
        self
    }

    /// Adds seeded fault injection. `salt` keeps RNG streams disjoint
    /// when several stacks share one plan (see
    /// [`ChaosCloud::with_label`]).
    pub fn chaos(mut self, plan: &FaultPlan, salt: &str) -> CloudBuilder {
        self.chaos = Some((plan.clone(), salt.to_owned()));
        self
    }

    /// Adds outermost latency/health observation feeding `health`.
    pub fn observed(mut self, health: Arc<CloudHealth>) -> CloudBuilder {
        self.observed = Some(health);
        self
    }

    /// Attaches observability to the stages that emit it: installed on
    /// the chaos stage and used by the observed stage's series. Without
    /// it those stages run silent.
    pub fn obs(mut self, obs: &Obs) -> CloudBuilder {
        self.obs = Some(obs.clone());
        self
    }

    /// Composes the stack in canonical order and returns it with the
    /// interactive stage handles.
    pub fn build(self) -> BuiltCloud {
        let mut store = self.base;
        if let Some((rate, burst)) = self.qps {
            store = Arc::new(QpsShaper::new(store, Arc::clone(&self.rt), rate, burst));
        }
        let mut chaos_handle = None;
        if let Some((plan, salt)) = &self.chaos {
            let chaos = Arc::new(ChaosCloud::with_label(
                store,
                Arc::clone(&self.rt),
                plan,
                salt,
            ));
            if let Some(obs) = &self.obs {
                chaos.install_obs(obs.clone());
            }
            chaos_handle = Some(Arc::clone(&chaos));
            store = chaos;
        }
        if let Some(health) = self.observed {
            let obs = self.obs.unwrap_or_else(Obs::noop);
            store = Arc::new(ObservedCloud::new(store, Arc::clone(&self.rt), health, obs));
        }
        BuiltCloud {
            store,
            chaos: chaos_handle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthConfig;
    use crate::{CloudError, FaultEvent, FaultKind, MemCloud};
    use unidrive_sim::SimRuntime;
    use unidrive_util::bytes::Bytes;

    fn rt() -> Arc<dyn Runtime> {
        SimRuntime::new(0xb111d).as_runtime()
    }

    fn always_transient() -> FaultPlan {
        let mut plan = FaultPlan::new(0x5eed);
        plan.push(FaultEvent::always(
            "m",
            FaultKind::TransientBurst { probability: 1.0 },
        ));
        plan
    }

    #[test]
    fn empty_builder_returns_base_unchanged() {
        let rt = rt();
        let base: Arc<dyn CloudStore> = Arc::new(MemCloud::new("m"));
        let built = CloudBuilder::new(&rt, Arc::clone(&base)).build();
        built.store.upload("f", Bytes::from_static(b"x")).unwrap();
        assert_eq!(base.download("f").unwrap(), Bytes::from_static(b"x"));
        assert!(built.chaos.is_none());
        // No wrapper masked the base's native append capability.
        assert!(built.store.caps().native_append);
    }

    #[test]
    fn canonical_order_is_independent_of_setter_order() {
        // Shaping inside chaos even though .chaos() was configured
        // before .qps(): the injector rejects every op before reaching
        // the shaper, so a 1 op/s bucket with a burst of 1 never makes
        // the caller wait. Were the shaper outside, ops 2..10 would
        // each sleep ~1 s of virtual time.
        let sim = SimRuntime::new(0xb111d);
        let rt = sim.clone().as_runtime();
        let built = CloudBuilder::new(&rt, Arc::new(MemCloud::new("m")))
            .chaos(&always_transient(), "t")
            .qps(1, 1)
            .build();
        let t0 = sim.now();
        for i in 0..10 {
            let err = built
                .store
                .upload(&format!("f{i}"), Bytes::from_static(b"x"))
                .unwrap_err();
            assert!(matches!(err, CloudError::Transient { .. }));
        }
        assert_eq!(sim.now(), t0, "shaper sat outside chaos");
        assert_eq!(built.chaos.as_ref().unwrap().injected_faults(), 10);
    }

    #[test]
    fn observed_stage_is_outermost_and_health_sees_failures() {
        let sim = SimRuntime::new(0xb111d);
        let rt = sim.clone().as_runtime();
        let health = CloudHealth::new("m", HealthConfig::default());
        let built = CloudBuilder::new(&rt, Arc::new(MemCloud::new("m")))
            .observed(Arc::clone(&health))
            .chaos(&always_transient(), "t")
            .build();
        for i in 0..5 {
            assert!(built
                .store
                .upload(&format!("f{i}"), Bytes::from_static(b"x"))
                .is_err());
        }
        health.finish(sim.now().as_nanos());
        let tracker = health.tracker();
        // Only an observer outside the injector sees the failures.
        let window = tracker
            .timeline()
            .first()
            .expect("observer saw no ops: it sits inside the injector");
        assert_eq!((window.ops, window.errors), (5, 5));
        assert_eq!(tracker.state(), crate::HealthState::Down);
    }
}
