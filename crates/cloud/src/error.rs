//! Error taxonomy for cloud storage operations.

use std::fmt;

/// The five RESTful operations of the [`CloudStore`](crate::CloudStore)
/// API, as an enum so errors (and fault schedules) can carry *which*
/// operation was in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CloudOp {
    /// `upload(path, data)`.
    Upload,
    /// `download(path)`.
    Download,
    /// `create_dir(path)`.
    CreateDir,
    /// `list(path)`.
    List,
    /// `delete(path)`.
    Delete,
}

impl CloudOp {
    /// All five operations, in declaration order.
    pub const ALL: [CloudOp; 5] = [
        CloudOp::Upload,
        CloudOp::Download,
        CloudOp::CreateDir,
        CloudOp::List,
        CloudOp::Delete,
    ];

    /// Stable lowercase name (`"upload"`, `"download"`, …), matching the
    /// `op` attribute of `chaos.fault` spans.
    pub fn as_str(self) -> &'static str {
        match self {
            CloudOp::Upload => "upload",
            CloudOp::Download => "download",
            CloudOp::CreateDir => "create_dir",
            CloudOp::List => "list",
            CloudOp::Delete => "delete",
        }
    }
}

impl fmt::Display for CloudOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error returned by [`CloudStore`](crate::CloudStore) operations.
///
/// The variants mirror the failure classes the UniDrive measurement study
/// observed for real CCS Web APIs (paper §3.2): transient request
/// failures (by far the most common), admission-level unavailability
/// (regional blocks, outages), quota exhaustion, and plain not-found.
///
/// `Transient` and `Unavailable` optionally carry *operation context*
/// (which of the five ops failed, on what path) so retry loops, fault
/// checkers, and logs can attribute a failure without threading labels
/// out of band. Use the shorthand constructors
/// ([`transient`](CloudError::transient) /
/// [`transient_op`](CloudError::transient_op) /
/// [`unavailable`](CloudError::unavailable) /
/// [`unavailable_op`](CloudError::unavailable_op)) rather than struct
/// literals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CloudError {
    /// The object or directory does not exist.
    NotFound {
        /// Path that was requested.
        path: String,
    },
    /// The request failed transiently (network or server hiccup); the
    /// operation may succeed if retried.
    Transient {
        /// Human-readable cause.
        reason: String,
        /// Operation that failed, when known.
        op: Option<CloudOp>,
        /// Path the operation addressed, when known.
        path: Option<String>,
    },
    /// The cloud is administratively unavailable (outage or regional
    /// block); retrying soon is unlikely to help.
    Unavailable {
        /// Cloud that is unavailable.
        cloud: String,
        /// Operation that was refused, when known.
        op: Option<CloudOp>,
        /// Path the operation addressed, when known.
        path: Option<String>,
    },
    /// The account's storage quota would be exceeded.
    QuotaExceeded {
        /// Bytes the upload needed.
        needed: u64,
        /// Bytes still free under the quota.
        available: u64,
    },
    /// The path is syntactically invalid for this store.
    InvalidPath {
        /// Offending path.
        path: String,
        /// Why it was rejected.
        reason: String,
    },
    /// An underlying I/O error (filesystem-backed stores).
    Io {
        /// Stringified `std::io::Error`.
        message: String,
    },
}

impl CloudError {
    /// Whether retrying the same operation may succeed.
    ///
    /// Decided explicitly per variant:
    ///
    /// * `Transient` — yes, by definition.
    /// * `Io` — yes. Filesystem-backed stores surface interrupted
    ///   syscalls, sharing violations, and momentary contention as `Io`;
    ///   those are the local-disk analogue of a network hiccup, and the
    ///   retry budget is bounded anyway. (Before this was decided
    ///   explicitly, `Io` silently fell through to "not retryable".)
    /// * `Unavailable` / `QuotaExceeded` — no: they need failover, not
    ///   retry (UniDrive routes the block to another cloud instead).
    /// * `NotFound` / `InvalidPath` — no: deterministic outcomes.
    pub fn is_retryable(&self) -> bool {
        match self {
            CloudError::Transient { .. } | CloudError::Io { .. } => true,
            CloudError::NotFound { .. }
            | CloudError::Unavailable { .. }
            | CloudError::QuotaExceeded { .. }
            | CloudError::InvalidPath { .. } => false,
        }
    }

    /// Shorthand constructor for transient failures without operation
    /// context.
    pub fn transient(reason: impl Into<String>) -> Self {
        CloudError::Transient {
            reason: reason.into(),
            op: None,
            path: None,
        }
    }

    /// Transient failure with operation context.
    pub fn transient_op(reason: impl Into<String>, op: CloudOp, path: impl Into<String>) -> Self {
        CloudError::Transient {
            reason: reason.into(),
            op: Some(op),
            path: Some(path.into()),
        }
    }

    /// Shorthand constructor for unavailability without operation
    /// context.
    pub fn unavailable(cloud: impl Into<String>) -> Self {
        CloudError::Unavailable {
            cloud: cloud.into(),
            op: None,
            path: None,
        }
    }

    /// Unavailability with operation context.
    pub fn unavailable_op(cloud: impl Into<String>, op: CloudOp, path: impl Into<String>) -> Self {
        CloudError::Unavailable {
            cloud: cloud.into(),
            op: Some(op),
            path: Some(path.into()),
        }
    }

    /// Shorthand constructor for not-found.
    pub fn not_found(path: impl Into<String>) -> Self {
        CloudError::NotFound { path: path.into() }
    }

    /// The failed operation, when the error carries that context.
    pub fn op(&self) -> Option<CloudOp> {
        match self {
            CloudError::Transient { op, .. } | CloudError::Unavailable { op, .. } => *op,
            _ => None,
        }
    }

    /// Attaches operation context to a `Transient`/`Unavailable` error
    /// that lacks it; context already present wins (the deepest layer
    /// knows the *originating* op), and other variants pass through
    /// untouched. Every decorator applies this to errors crossing it,
    /// so retry accounting and health tracking see the originating
    /// operation through any stack depth.
    pub fn with_op_context(self, op: CloudOp, path: &str) -> CloudError {
        match self {
            CloudError::Transient {
                reason,
                op: prev_op,
                path: prev_path,
            } => CloudError::Transient {
                reason,
                op: prev_op.or(Some(op)),
                path: prev_path.or_else(|| Some(path.to_owned())),
            },
            CloudError::Unavailable {
                cloud,
                op: prev_op,
                path: prev_path,
            } => CloudError::Unavailable {
                cloud,
                op: prev_op.or(Some(op)),
                path: prev_path.or_else(|| Some(path.to_owned())),
            },
            other => other,
        }
    }
}

impl fmt::Display for CloudError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Renders the optional context as " during upload of p" so
        // messages stay terse when no context was recorded.
        fn ctx(f: &mut fmt::Formatter<'_>, op: &Option<CloudOp>, path: &Option<String>) -> fmt::Result {
            if let Some(op) = op {
                write!(f, " during {op}")?;
            }
            if let Some(path) = path {
                write!(f, " of {path:?}")?;
            }
            Ok(())
        }
        match self {
            CloudError::NotFound { path } => write!(f, "object not found: {path}"),
            CloudError::Transient { reason, op, path } => {
                write!(f, "transient failure: {reason}")?;
                ctx(f, op, path)
            }
            CloudError::Unavailable { cloud, op, path } => {
                write!(f, "cloud unavailable: {cloud}")?;
                ctx(f, op, path)
            }
            CloudError::QuotaExceeded { needed, available } => write!(
                f,
                "quota exceeded: needed {needed} bytes, {available} available"
            ),
            CloudError::InvalidPath { path, reason } => {
                write!(f, "invalid path {path:?}: {reason}")
            }
            CloudError::Io { message } => write!(f, "i/o error: {message}"),
        }
    }
}

impl std::error::Error for CloudError {}

impl From<std::io::Error> for CloudError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::NotFound {
            CloudError::NotFound {
                path: String::new(),
            }
        } else {
            CloudError::Io {
                message: e.to_string(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_and_io_are_retryable_the_rest_are_not() {
        assert!(CloudError::transient("x").is_retryable());
        assert!(CloudError::Io {
            message: "interrupted".into()
        }
        .is_retryable());
        assert!(!CloudError::not_found("p").is_retryable());
        assert!(!CloudError::unavailable("c").is_retryable());
        assert!(!CloudError::QuotaExceeded {
            needed: 1,
            available: 0
        }
        .is_retryable());
        assert!(!CloudError::InvalidPath {
            path: "/x".into(),
            reason: "abs".into()
        }
        .is_retryable());
    }

    #[test]
    fn display_is_informative() {
        let e = CloudError::QuotaExceeded {
            needed: 10,
            available: 3,
        };
        let s = e.to_string();
        assert!(s.contains("10") && s.contains('3'));
    }

    #[test]
    fn display_includes_operation_context() {
        let e = CloudError::transient_op("dropped", CloudOp::Upload, "docs/a.bin");
        let s = e.to_string();
        assert!(s.contains("dropped") && s.contains("upload") && s.contains("docs/a.bin"), "{s}");
        let e = CloudError::unavailable_op("dropbox", CloudOp::List, "locks");
        let s = e.to_string();
        assert!(s.contains("dropbox") && s.contains("list") && s.contains("locks"), "{s}");
        // Without context, no dangling separators.
        assert_eq!(CloudError::transient("x").to_string(), "transient failure: x");
    }

    #[test]
    fn op_accessor_exposes_context() {
        assert_eq!(
            CloudError::transient_op("x", CloudOp::Delete, "p").op(),
            Some(CloudOp::Delete)
        );
        assert_eq!(CloudError::transient("x").op(), None);
        assert_eq!(CloudError::not_found("p").op(), None);
    }

    #[test]
    fn cloud_op_names_are_stable() {
        let names: Vec<&str> = CloudOp::ALL.iter().map(|o| o.as_str()).collect();
        assert_eq!(
            names,
            vec!["upload", "download", "create_dir", "list", "delete"]
        );
    }

    #[test]
    fn io_not_found_maps_to_not_found() {
        let io = std::io::Error::from(std::io::ErrorKind::NotFound);
        assert!(matches!(CloudError::from(io), CloudError::NotFound { .. }));
    }
}
